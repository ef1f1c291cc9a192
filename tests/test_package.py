"""Public names: the package imports and every module's ``__all__`` resolves;
imports load only what they use; results do not depend on the BLAS thread
count."""

import importlib
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import calma
from calma.core import Dataset, save_dataset

MODULES = sorted(info.name for info in pkgutil.iter_modules(calma.__path__))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(calma.__file__)))


def _fresh(code: str, *args) -> list[str]:
    """The last line ``code`` prints, split on whitespace, run with ``args`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.splitlines()[-1].split() if out.stdout.strip() else []


def test_package_imports():
    assert calma.__version__
    assert {"core", "calibration", "multiaccuracy", "training", "audit"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"calma.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_import_leaves_scipy_and_hashlib_unloaded():
    """``import calma.cli`` loads no scipy module (so neither scipy.optimize nor
    scipy.special) and not hashlib: both are imported where they are used."""
    code = "import sys, calma.cli; print(*sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'hashlib')))"
    assert _fresh(code) == []


def test_import_loads_only_what_the_cli_shares():
    """A bare ``import calma`` runs no submodule; ``import calma.cli`` adds only
    the two modules every command uses."""
    code = """
import sys
def loaded():
    return ",".join(sorted(m for m in sys.modules if m.split(".")[0] == "calma"))
import calma
bare = loaded()
import calma.cli
print(bare, loaded())
"""
    assert _fresh(code) == ["calma", "calma,calma.cli,calma.core,calma.losses"]


def test_every_exported_name_is_its_modules_object():
    assert len(set(calma.__all__)) == len(calma.__all__)
    starred = {}
    exec("from calma import *", starred)
    for module, names in calma._EXPORTS.items():
        source = importlib.import_module(f"calma.{module}")
        for name in names:
            assert getattr(calma, name) is getattr(source, name) is starred[name], name
    assert set(calma.__all__) <= set(dir(calma))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        calma.nope


def test_submodules_resolve_after_a_bare_import():
    code = """
import sys, calma
print(*(name for name in sys.argv[1:] if getattr(calma, name) is sys.modules[f"calma.{name}"] and name in dir(calma)))
"""
    assert _fresh(code, *MODULES) == MODULES


# runs one command as ``calma`` would, then prints the calma modules it loaded
_COMMAND_LOADS = """
import sys
from calma.cli import main
main(sys.argv[1:], standalone_mode=False)
print(*sorted(m for m in sys.modules if m.startswith("calma.")))
"""


def test_train_and_audit_load_only_the_modules_they_run(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 2))
    data, model = str(tmp_path / "data.csv"), tmp_path / "model.json"
    save_dataset(Dataset(X, (X[:, 0] > 0).astype(float)), data)
    trained = _fresh(_COMMAND_LOADS, "train", "--data", data, "--out", model, "--trace", tmp_path / "trace.json")
    audited = _fresh(_COMMAND_LOADS, "audit", "--model", model, "--data", data, "--out", tmp_path / "report.json")
    assert trained == ["calma.calibration", "calma.cli", "calma.core", "calma.losses", "calma.multiaccuracy",
                       "calma.training"]
    assert audited == ["calma.audit", "calma.calibration", "calma.cli", "calma.core", "calma.losses",
                       "calma.multiaccuracy"]


# hashes the l1 and exp baselines of one 3,000-row table cell and one exact-mode
# calma() run on a 6x6 grid
_HASH_RUNS = """
import hashlib, json, math
import numpy as np
from calma import bench, core, multiaccuracy, training
h = hashlib.sha256()
train, _, _ = bench.gen_gaussian_mixture(bench.MixtureConfig(s=4, d=10, seed=1, n_cal=10, n_test=10))
for loss in ("l1", "exp"):
    fit = bench.fit_linear_baseline(loss, train)
    h.update(np.append(fit.w, [fit.b, fit.grad_norm]).tobytes())
rng = np.random.default_rng(1)
axis = np.linspace(-1.0, 1.0, 6)
points = np.array([(a, b) for a in axis for b in axis])
mass = rng.uniform(0.2, 1.0, len(points))
mass /= mass.sum()
mass[-1] = 1.0 - math.fsum(mass[:-1].tolist())
bayes = 1.0 / (1.0 + np.exp(-(points @ rng.normal(0.0, 2.0, 2) + rng.normal())))
engine = core.ExpectationEngine.exact(core.FiniteDistribution(points, mass, bayes))
rho = 0.1 - 0.1**2 / 32
wl = multiaccuracy.ExhaustiveWeakLearner(core.interval_class(core.coordinate_class(2), 0.5), rho=rho, sigma=rho)
pred, trace = training.calma(core.TablePredictor(points, rng.uniform(0.0, 1.0, len(points))), 0.1, wl, engine)
h.update(pred.values(points).tobytes())
h.update(json.dumps(trace.to_dict()).encode())
print(h.hexdigest())
"""


# trains calma() at the benchmark's alpha over the 178-member interval class of a
# 2,000-row mixture (past the dense cut-off, so through the cell index), audits
# the clamped predictor on 2,000 held-out rows and hashes the predictions, the
# model, the trace, the audit payload and the held-out mae
_HASH_TRAIN_AUDIT = """
import hashlib, json
import numpy as np
from calma import audit, bench, core, losses, multiaccuracy, training
train, _, held = bench.gen_gaussian_mixture(bench.MixtureConfig(s=4, d=10, seed=1, n_train=2000, n_cal=10, n_test=2000))
coords = core.coordinate_class(train.dim, np.max(np.abs(train.X), axis=0).tolist())
rho = 0.03 - 0.03**2 / 32
wl = multiaccuracy.ExhaustiveWeakLearner(core.interval_class(coords, 0.25), rho=rho, sigma=rho)
pred, trace = training.calma(core.ConstantPredictor(float(np.mean(train.y))), 0.03, wl, core.ExpectationEngine.empirical(train))
engine = core.ExpectationEngine.empirical(held)
clamped = core.FunctionPredictor(lambda X: np.clip(pred.values(X), 1e-9, 1 - 1e-9))
report = audit.audit_family(clamped, [losses.get_loss(n) for n in ("l1", "l2", "l4", "glm:sigmoid")], coords, engine)
h = hashlib.sha256(pred.values(held.X).tobytes())
for part in (pred.to_dict(), trace.to_dict(), report.to_dict(), multiaccuracy.mae(clamped, coords, engine)):
    h.update(json.dumps(part).encode())
print(h.hexdigest())
"""


def _digests_under_one_and_two_blas_threads(script: str) -> list[str]:
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        runs.append(subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True))
    digests = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    return digests


def test_results_do_not_depend_on_the_blas_thread_count():
    digests = _digests_under_one_and_two_blas_threads(_HASH_RUNS)
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64


def test_trained_and_audited_files_do_not_depend_on_the_blas_thread_count():
    digests = _digests_under_one_and_two_blas_threads(_HASH_TRAIN_AUDIT)
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64
