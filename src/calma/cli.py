"""Command-line interface: data generation, training, auditing, baselines,
the benchmark table, and the two exact counterexample checks.

Exit codes: 0 on success, 1 on a ``click.ClickException``, 2 on a usage
error, 3 on convergence failures, 4 when a result violates its acceptance
threshold.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import reprlib
import sys

import click
import numpy as np

from .core import (
    ConstantPredictor,
    Dataset,
    ExpectationEngine,
    FunctionPredictor,
    HypothesisClass,
    coordinate_class,
    load_dataset,
    load_distribution,
    predictor_from_dict,
    save_dataset,
)
from .losses import OutOfRangeError, get_loss

# each command imports the algorithm modules it runs, so start-up loads only the two above

EXIT_THRESHOLD = 4
EXIT_CONVERGENCE = 3


class _Float(click.FloatRange):
    """A float within the range that is also finite: ``click.FloatRange`` admits
    NaN, which compares false with either bound."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return rv


class _OutPath(click.Path):
    """A path the command writes, checked before any work starts: a file
    (``dir_okay=False``) goes into an existing, writable directory; a directory
    (``file_okay=False``) exists, or its nearest existing ancestor is a writable
    directory to make it in.  An empty path writes nothing and passes."""

    def __init__(self, **kwargs):
        super().__init__(writable=True, **kwargs)

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)  # an existing path of the wrong kind or unwritable fails here
        if not rv or os.path.exists(rv):
            return rv
        parent = os.path.dirname(rv) or os.curdir
        if not self.file_okay:  # makedirs makes the missing ancestors
            while not os.path.exists(parent):
                parent = os.path.dirname(parent) or os.curdir
        if not os.path.exists(parent):
            self.fail(f"directory {parent!r} does not exist.", param, ctx)
        if not os.path.isdir(parent):
            self.fail(f"{parent!r} is not a directory.", param, ctx)
        if not os.access(parent, os.W_OK):
            self.fail(f"directory {parent!r} is not writable.", param, ctx)
        return rv


def _build_class(spec: str, X: np.ndarray) -> tuple[HypothesisClass, dict]:
    """Resolve a --class spec against data; 'coords' scales each coordinate
    by its max absolute value so members are bounded by 1."""
    if spec == "coords":
        scales = [max(float(np.max(np.abs(X[:, j]))), 1e-12) for j in range(X.shape[1])]
    elif spec.startswith("coords:"):
        scales = [_number(v) for v in spec.split(":", 1)[1].split(",")]
    else:
        raise click.UsageError(f"unknown class spec {spec!r}; use 'coords' or 'coords:s0,s1,...'")
    class_dict = {"kind": "coords", "scales": scales}
    return _class_from_dict(class_dict, X.shape[1], f"class spec {spec!r}"), class_dict


def _number(text: str):
    """``text`` as a float, or ``text`` itself when it is no number (the class check names it)."""
    try:
        return float(text)
    except ValueError:
        return text


def _bad_scale(scales: list, n_columns: int) -> str | None:
    """The first entry of ``scales`` that is not a finite positive number, a
    missing one or the surplus, named; None if all ``n_columns`` are good."""
    for i, s in enumerate(scales[:n_columns]):
        if not (isinstance(s, (int, float)) and abs(s) <= sys.float_info.max and s > 0):  # NaN fails too
            return f"scales[{i}] is {reprlib.repr(s)}"
    if len(scales) < n_columns:
        return f"scales[{len(scales)}] is missing"
    if len(scales) > n_columns:
        return f"scales has {len(scales)} entries"
    return None


def _class_from_dict(d: dict, n_columns: int, source: str = "the model file's class") -> HypothesisClass:
    """The class a spec or model file describes, checked against data with ``n_columns`` columns."""
    if not (isinstance(d, dict) and "kind" in d and isinstance(d.get("scales"), list)):
        raise click.UsageError(f"{source} must be an object with a 'kind' and a list of 'scales'")
    if d["kind"] != "coords":
        raise click.UsageError(f"unknown class kind {d['kind']!r} in model file")
    bad = _bad_scale(d["scales"], n_columns)
    if bad is not None:
        raise click.UsageError(f"{source} needs {n_columns} scales, one per data column, each finite and positive: {bad}")
    return coordinate_class(n_columns, d["scales"])


@contextlib.contextmanager
def _loading(path: str):
    """Report a ``ValueError`` raised while reading ``path`` as a usage error that names the file."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(f"cannot load {path}: {' '.join(str(exc).split())}")


def _load_csv(path: str) -> Dataset:
    with _loading(path):
        return load_dataset(path)


def _load_engine(path: str) -> ExpectationEngine:
    if path.endswith(".json"):
        with _loading(path):
            return ExpectationEngine.exact(load_distribution(path))
    return ExpectationEngine.empirical(_load_csv(path))


@click.group()
def main():
    """Calibrated multiaccuracy training and loss-based audits."""


@main.command()
@click.option("--s", default=2, type=click.IntRange(min=1), show_default=True, help="clusters per class")
@click.option("--d", default=2, type=click.IntRange(min=2), show_default=True, help="dimension")
@click.option("--n-train", default=3000, type=click.IntRange(min=1), show_default=True)
@click.option("--n-cal", default=1000, type=click.IntRange(min=1), show_default=True)
@click.option("--n-test", default=10000, type=click.IntRange(min=1), show_default=True)
@click.option("--seed", default=0, type=click.IntRange(min=0), show_default=True)
@click.option("--out-dir", default=".", show_default=True, type=_OutPath(file_okay=False))
def gen(s, d, n_train, n_cal, n_test, seed, out_dir):
    """Emit train/cal/test CSV splits of the Gaussian-mixture benchmark."""
    from .bench import CenterPlacementError, MixtureConfig, gen_gaussian_mixture

    cfg = MixtureConfig(s=s, d=d, n_train=n_train, n_cal=n_cal, n_test=n_test, seed=seed)
    try:
        train, cal, test = gen_gaussian_mixture(cfg)
    except CenterPlacementError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_CONVERGENCE)
    os.makedirs(out_dir, exist_ok=True)
    for name, split in (("train", train), ("cal", cal), ("test", test)):
        save_dataset(split, os.path.join(out_dir, f"{name}.csv"))
    click.echo(f"wrote train/cal/test CSVs to {out_dir}")


@main.command()
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--class", "class_spec", default="coords", show_default=True)
@click.option("--alpha", default=0.1, type=_Float(0, 1, min_open=True), show_default=True)
@click.option("--seed", default=0, type=click.IntRange(min=0), show_default=True)
@click.option("--out", "out_path", default="model.json", show_default=True, type=_OutPath(dir_okay=False))
@click.option("--trace", "trace_path", default="trace.json", show_default=True, type=_OutPath(dir_okay=False),
              help="training trace file")
def train(data_path, class_spec, alpha, seed, out_path, trace_path):
    """Train a calibrated multiaccurate predictor on a CSV dataset."""
    from .multiaccuracy import ExhaustiveWeakLearner
    from .training import CalmaConfig, calma

    data = _load_csv(data_path)
    hclass, class_dict = _build_class(class_spec, data.X)
    engine = ExpectationEngine.empirical(data)
    delta = alpha * alpha / 32.0
    wl = ExhaustiveWeakLearner(hclass, rho=alpha - delta, sigma=alpha - delta)
    p0 = ConstantPredictor(float(np.clip(np.mean(data.y), 0.0, 1.0)))
    pred, trace = calma(p0, alpha, wl, engine, config=CalmaConfig())
    model = {
        "alpha": alpha,
        "seed": seed,
        "class": class_dict,
        "predictor": pred.to_dict(),
        "final_ece": trace.final_ece,
        "final_mae": trace.final_mae,
    }
    with open(out_path, "w") as fh:
        json.dump(model, fh, indent=2)
    if trace_path:
        with open(trace_path, "w") as fh:
            json.dump(trace.to_dict(), fh, indent=2)
    click.echo(
        f"trained: ece={trace.final_ece:.4f} mae={trace.final_mae:.4f} "
        f"rounds={trace.outer_iterations} wl_calls={trace.total_wl_calls}"
    )


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--losses", default="l1,l2,l4", show_default=True)
@click.option("--class", "class_spec", default=None, help="audit class override; defaults to the model's")
@click.option("--out", "out_path", default="report.json", show_default=True, type=_OutPath(dir_okay=False))
@click.option("--clamp", default=1e-9, type=_Float(0, 0.5, max_open=True), show_default=True,
              help="keep glm decisions finite")
def audit(model_path, data_path, losses, class_spec, out_path, clamp):
    """Run the indistinguishability audit of a trained model."""
    from .audit import audit_family
    from .calibration import ece
    from .multiaccuracy import mae

    with open(model_path) as fh, _loading(model_path):
        model = json.load(fh)
        if not isinstance(model, dict):
            raise ValueError(f"a model file must be an object, not {reprlib.repr(model)}")
    if "class" not in model:
        raise click.UsageError("the model file has no 'class' key; calma train writes the hypothesis class there")
    engine = _load_engine(data_path)
    hclass = _class_from_dict(model["class"], engine.X.shape[1])
    with _loading(model_path):
        pred = predictor_from_dict(model.get("predictor"), hclass)
        pred.values(engine.X)  # a pipeline keeps these values for the audit below
    if class_spec is not None:
        hclass, _ = _build_class(class_spec, engine.X)
    if clamp > 0:
        base = pred
        pred = FunctionPredictor(lambda X: np.clip(base.values(X), clamp, 1.0 - clamp), name="clamped")
    loss_objs = []
    for name in filter(None, (n.strip() for n in losses.split(","))):
        try:
            loss_objs.append(get_loss(name))
        except ValueError as exc:
            raise click.BadParameter(f"{name!r}: {exc}", param_hint="'--losses'")
    if not loss_objs:
        raise click.BadParameter(f"{losses!r} names no loss", param_hint="'--losses'")
    try:
        report = audit_family(pred, loss_objs, hclass, engine)
    except OutOfRangeError as exc:  # a glm transfer's inverse at a prediction of exactly 0 or 1
        raise click.UsageError(f"{exc}; a --clamp above {clamp:g} keeps them inside it")
    payload = report.to_dict()
    payload["ece"] = ece(pred, engine)
    payload["mae"] = mae(pred, hclass, engine)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
    click.echo(
        f"audited {len(payload['pairs'])} pairs: max |loss gap| = {payload['max_abs_loss_gap']:.5f}"
    )


@main.command()
@click.option("--loss", "loss_name", required=True, type=click.Choice(("l2", "l1", "exp", "log")))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--test", "test_path", default=None, type=click.Path(exists=True))
def baseline(loss_name, data_path, test_path):
    """Fit the per-loss linear baseline; print train (and test) loss."""
    from .bench import column_value_for_score, fit_linear_baseline

    data = _load_csv(data_path)
    fit = fit_linear_baseline(loss_name, data)
    out = {
        "loss": loss_name,
        "weights": fit.w.tolist(),
        "intercept": fit.b,
        "grad_norm": fit.grad_norm,
        "train_loss": column_value_for_score(loss_name, fit.score(data.X), data.y),
    }
    if test_path:
        test = _load_csv(test_path)
        out["test_loss"] = column_value_for_score(loss_name, fit.score(test.X), test.y)
    click.echo(json.dumps(out, indent=2))
    if not fit.converged:
        sys.exit(EXIT_CONVERGENCE)


@main.command()
@click.option("--s", default=2, type=click.IntRange(min=1), show_default=True)
@click.option("--d", default=2, type=click.IntRange(min=2), show_default=True)
@click.option("--alpha", default=0.1, type=_Float(0, 1, min_open=True), show_default=True)
@click.option("--seeds", default=5, type=click.IntRange(min=1), show_default=True, help="number of seeds (0..n-1)")
@click.option("--recal", default="isotonic", type=click.Choice(["isotonic", "bucket"]), show_default=True)
@click.option("--tolerance", default=0.05, type=_Float(min=0), show_default=True)
@click.option("--out", "out_path", default=None, type=_OutPath(dir_okay=False), help="table file: .json, .csv or .md")
def bench(s, d, alpha, seeds, recal, tolerance, out_path):
    """Run the multi-seed benchmark table and gate the trained predictor
    against each per-loss baseline."""
    from .bench import (
        BENCH_COLUMNS,
        CenterPlacementError,
        MixtureConfig,
        aggregate_results,
        markdown_table,
        run_benchmark,
    )

    try:
        results = [
            run_benchmark(MixtureConfig(s=s, d=d, seed=seed), alpha=alpha, recal_backend=recal)
            for seed in range(seeds)
        ]
    except CenterPlacementError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_CONVERGENCE)
    agg = aggregate_results(results)
    payload = {
        "config": {"s": s, "d": d, "alpha": alpha, "recal": recal, "seeds": seeds},
        "iterations": [r.iterations for r in results],
        "table": agg,
    }
    if out_path:
        if out_path.endswith(".json"):
            with open(out_path, "w") as fh:
                json.dump(payload, fh, indent=2)
        elif out_path.endswith(".csv"):
            with open(out_path, "w") as fh:
                fh.write("algorithm," + ",".join(BENCH_COLUMNS) + "\n")
                for algo, row in agg.items():
                    fh.write(algo + "," + ",".join(f"{row[c]['mean']:.5f}" for c in BENCH_COLUMNS) + "\n")
        else:
            with open(out_path, "w") as fh:
                fh.write(markdown_table(agg, lambda cell: f"{cell['mean']:.3f}") + "\n")
    for algo, row in agg.items():
        click.echo(algo + ": " + "  ".join(f"{c}={row[c]['mean']:.3f}" for c in BENCH_COLUMNS))
    bad = [
        c
        for c in BENCH_COLUMNS
        if agg["calma"][c]["mean"] > agg["optimal"][c]["mean"] + tolerance
    ]
    if bad:
        click.echo(f"trained predictor exceeds baseline + {tolerance} on: {', '.join(bad)}", err=True)
        sys.exit(EXIT_THRESHOLD)


@main.command()
@click.option("--which", required=True, type=click.Choice(["parity", "sim"]))
@click.option("--resolution", default=100, type=click.IntRange(min=50), show_default=True, help="sim grid resolution")
def counterexamples(which, resolution):
    """Run an exact counterexample construction and check its thresholds."""
    from .audit import parity_counterexample, sim_counterexample

    if which == "parity":
        report = parity_counterexample()
        click.echo(json.dumps(report.to_dict(), indent=2))
        ok = (
            abs(report.l4_hypothesis_gap - 4.0 / 9.0) <= 1e-12
            and report.mae <= 1e-12
            and report.l2_omni_regret <= 1e-9
            and report.l4_omni_regret <= 1e-9
        )
    else:
        report = sim_counterexample(resolution)
        click.echo(json.dumps(report.to_dict(), indent=2))
        # no single-index model gets below 1/20, on the grid or off it
        ok = (
            report.min_violation >= 0.05 - 1e-9
            and report.min_violation_value_grid >= report.min_violation - 1e-12
            and report.ma_system_residual <= 1e-12
        )
    if not ok:
        sys.exit(EXIT_THRESHOLD)


if __name__ == "__main__":
    main()
