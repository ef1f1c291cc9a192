"""The benchmark's three workloads and the checks on every output they time.

A workload builds its inputs from the run seed (``build``, the set-up) and
then hands out cycles of ops (``cycle(k)``).  Each op is ``(kind, run,
check)``: ``run`` does the timed work through calma's public functions and
returns its outputs; ``check`` returns the problems found in them, an empty
list when they are correct.  Checks recompute what they can with plain numpy
instead of trusting the library's own figures.

Inputs of cycle ``k`` depend only on the seed and ``k``, so the traced run
can replay a cycle on the same inputs.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from calma import audit, bench, calibration, core, losses, multiaccuracy, training

SIZES = {
    "full": {"sample_rows": 10_000, "sample_datasets": 2, "grid": 6, "table": (3000, 1000, 10_000)},
    "tiny": {"sample_rows": 800, "sample_datasets": 1, "grid": 3, "table": (1500, 500, 2000)},
}


def _rho(alpha: float) -> float:
    return alpha - alpha * alpha / 32.0


def _ece(pv: np.ndarray, ystar: np.ndarray, w: np.ndarray) -> float:
    """Calibration error over the exact level sets of the predictions."""
    levels, inv = np.unique(pv, return_inverse=True)
    gap = np.bincount(inv, weights=w * (ystar - pv), minlength=len(levels))
    return float(np.sum(np.abs(gap)))


def _mae(H: np.ndarray, pv: np.ndarray, ystar: np.ndarray, w: np.ndarray) -> float:
    """Largest |E[h(x) (y* - p(x))]| over the columns of H."""
    return float(np.max(np.abs(H.T @ (w * (ystar - pv)))))


def _matrix(members, X) -> np.ndarray:
    return np.column_stack([h.values(X) for h in members])


class Sample:
    """The CLI path on a Gaussian-mixture sample: train and audit alternate.

    A train op loads a CSV, builds the interval class over scaled coordinates
    and runs the formal trainer from the constant label mean, then writes the
    model JSON.  An audit op loads that model and a held-out CSV, clamps the
    predictions as the CLI does and audits them over coordinates x losses.
    """

    name = "sample"
    alpha = 0.03
    width = 0.25
    clamp = 1e-9
    loss_names = ("l1", "l2", "l4", "exp", "glm:sigmoid")

    def __init__(self, seed: int, workdir: str, tracer, size: str = "full"):
        sz = SIZES[size]
        self.rows = sz["sample_rows"]
        self.tracer = tracer
        self.data_seeds = [int(v) for v in np.random.default_rng(seed).integers(0, 2**31, sz["sample_datasets"])]
        self.paths = [
            {part: os.path.join(workdir, f"{part}{j}.{ext}") for part, ext in
             (("train", "csv"), ("held", "csv"), ("model", "json"), ("report", "json"))}
            for j in range(len(self.data_seeds))
        ]
        self._train_matrix: dict[int, np.ndarray] = {}

    def build(self) -> None:
        for data_seed, paths in zip(self.data_seeds, self.paths):
            cfg = bench.MixtureConfig(s=4, d=10, n_train=self.rows, n_cal=1, n_test=self.rows, seed=data_seed)
            train, _, held = bench.gen_gaussian_mixture(cfg)
            core.save_dataset(train, paths["train"])
            core.save_dataset(held, paths["held"])

    def cycle(self, k: int) -> list:
        j = k % len(self.paths)
        return [
            ("train", lambda: self.train(j), self.check_train),
            ("audit", lambda: self.audit(j), self.check_audit),
        ]

    def train(self, j: int) -> dict:
        paths = self.paths[j]
        data = core.load_dataset(paths["train"])
        scales = [max(float(np.max(np.abs(data.X[:, c]))), 1e-12) for c in range(data.dim)]
        hclass = core.interval_class(core.coordinate_class(data.dim, scales), self.width)
        engine = core.ExpectationEngine.empirical(data)
        wl = multiaccuracy.ExhaustiveWeakLearner(hclass, rho=_rho(self.alpha), sigma=_rho(self.alpha))
        p0 = core.ConstantPredictor(float(np.clip(np.mean(data.y), 0.0, 1.0)))
        pred, trace = training.calma(p0, self.alpha, wl, engine, config=training.CalmaConfig())
        with self.tracer.span("core.io.model_json"):
            model = {
                "alpha": self.alpha,
                "class": {"kind": "interval_coords", "scales": scales, "width": self.width},
                "predictor": pred.to_dict(),
                "in_sample_ece": trace.final_ece,
                "in_sample_mae": trace.final_mae,
            }
            with open(paths["model"], "w") as fh:
                json.dump(model, fh, indent=2)
        return {"j": j, "data": data, "hclass": hclass, "pred": pred, "trace": trace}

    def check_train(self, out: dict) -> list[str]:
        data, pred, trace, j = out["data"], out["pred"], out["trace"], out["j"]
        problems = []
        pv = pred.values(data.X)
        w = np.full(data.n, 1.0 / data.n)
        if j not in self._train_matrix:
            self._train_matrix[j] = _matrix(out["hclass"].members, data.X)
        ece = _ece(pv, data.y, w)
        mae = _mae(self._train_matrix[j], pv, data.y, w)
        if not ece <= self.alpha + 1e-12:
            problems.append(f"in-sample ece {ece:.4g} > alpha {self.alpha}")
        if not mae <= self.alpha + 1e-12:
            problems.append(f"in-sample mae {mae:.4g} > alpha {self.alpha}")
        if not (abs(ece - trace.final_ece) <= 1e-9 and abs(mae - trace.final_mae) <= 1e-9):
            problems.append(f"reported in-sample ece/mae {trace.final_ece:.4g}/{trace.final_mae:.4g} "
                            f"differ from recomputed {ece:.4g}/{mae:.4g}")
        with open(self.paths[j]["model"]) as fh:
            loaded = core.predictor_from_dict(json.load(fh)["predictor"], out["hclass"])
        if not np.array_equal(loaded.values(data.X), pv):
            problems.append("model JSON round trip changes predictions on the train rows")
        return problems

    def audit(self, j: int) -> dict:
        paths = self.paths[j]
        with self.tracer.span("core.io.model_json"):
            with open(paths["model"]) as fh:
                model = json.load(fh)
            scales = model["class"]["scales"]
            coords = core.coordinate_class(len(scales), scales)
            pred = core.predictor_from_dict(model["predictor"], core.interval_class(coords, model["class"]["width"]))
        engine = core.ExpectationEngine.empirical(core.load_dataset(paths["held"]))
        clamp = self.clamp
        clamped = core.FunctionPredictor(lambda X: np.clip(pred.values(X), clamp, 1.0 - clamp), name="clamped")
        loss_objs = [losses.get_loss(name) for name in self.loss_names]
        report = audit.audit_family(clamped, loss_objs, coords.members, engine)
        payload = report.to_dict()
        payload["held_out_ece"] = calibration.ece(clamped, engine)
        payload["held_out_mae"] = multiaccuracy.mae(clamped, coords, engine)
        with open(paths["report"], "w") as fh:
            json.dump(payload, fh, indent=2)
        return {"report": report, "payload": payload, "classes": len(coords)}

    def check_audit(self, out: dict) -> list[str]:
        report, payload = out["report"], out["payload"]
        problems = []
        if report.max_decomposition_residual > 1e-12:
            problems.append(f"decomposition residual {report.max_decomposition_residual:.3g} > 1e-12")
        if not all(math.isfinite(v) for r in report.rows for v in r[2:5]):
            problems.append("non-finite gap in the audit report")
        if len(report.rows) != len(self.loss_names) * out["classes"]:
            problems.append(f"{len(report.rows)} pairs, expected {len(self.loss_names) * out['classes']}")
        if not (math.isfinite(payload["held_out_ece"]) and math.isfinite(payload["held_out_mae"])):
            problems.append("non-finite held-out ece/mae")
        return problems


class Exact:
    """Exact mode, no I/O: train from a random table, audit with random losses.

    Neither random loss has a closed-form decision, so the audit goes through
    the per-point decision fallback.
    """

    name = "exact"
    alpha = 0.1
    width = 0.5

    def __init__(self, seed: int, workdir: str, tracer, size: str = "full"):
        self.seed = seed
        self.grid = SIZES[size]["grid"]

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        axis = np.linspace(-1.0, 1.0, self.grid)
        points = np.array([(a, b) for a in axis for b in axis])
        mass = rng.uniform(0.2, 1.0, len(points))
        mass /= mass.sum()
        mass[-1] = 1.0 - math.fsum(mass[:-1].tolist())
        bayes = 1.0 / (1.0 + np.exp(-(points @ rng.normal(0.0, 2.0, 2) + rng.normal())))
        self.engine = core.ExpectationEngine.exact(core.FiniteDistribution(points, mass, bayes))
        self.hclass = core.interval_class(core.coordinate_class(2), self.width)
        self.members = [m for m in self.hclass.members if not m.tag.startswith("-")]
        self.wl = multiaccuracy.ExhaustiveWeakLearner(self.hclass, rho=_rho(self.alpha), sigma=_rho(self.alpha))
        self._all = _matrix(self.hclass.members, points)
        self._audited = _matrix(self.members, points)

    def cycle(self, k: int) -> list:
        return [("exact", lambda: self.op(k), self.check)]

    def op(self, k: int) -> dict:
        rng = np.random.default_rng([self.seed, k])
        engine = self.engine
        p0 = core.TablePredictor(engine.X, rng.uniform(0.0, 1.0, len(engine.X)))
        pred, _ = training.calma(p0, self.alpha, self.wl, engine)
        loss_objs = [audit.random_bounded_loss(rng), audit.random_lipschitz_loss(rng)]
        report = audit.audit_family(pred, loss_objs, self.members, engine)
        return {"pred": pred, "report": report, "losses": len(loss_objs)}

    def check(self, out: dict) -> list[str]:
        e = self.engine
        report = out["report"]
        pv = out["pred"].values(e.X)
        ece = _ece(pv, e.ystar, e.weights)
        mae = _mae(self._all, pv, e.ystar, e.weights)
        problems = []
        if not (ece <= self.alpha + 1e-12 and mae <= self.alpha + 1e-12):
            problems.append(f"ece {ece:.4g} or mae {mae:.4g} > alpha {self.alpha}")
        if report.max_decomposition_residual > 1e-12:
            problems.append(f"decomposition residual {report.max_decomposition_residual:.3g} > 1e-12")
        if len(report.rows) != out["losses"] * len(self.members):
            problems.append(f"{len(report.rows)} pairs, expected {out['losses'] * len(self.members)}")
        # Boolean route: calibration and multiaccuracy over {0,1}-valued
        # members bound every bounded loss's gap by 4 max(ece, mae)
        bound = 4.0 * max(ece, _mae(self._audited, pv, e.ystar, e.weights)) + 1e-9
        if not report.max_abs_loss_gap <= bound:
            problems.append(f"loss gap {report.max_abs_loss_gap:.4g} > Boolean-route bound {bound:.4g}")
        return problems


class Table:
    """The paper's table, one seeded cell per op over three (s, d) settings."""

    name = "table"
    alpha = 0.1
    tolerance = 0.05
    settings = ((2, 2), (4, 4), (4, 10))

    def __init__(self, seed: int, workdir: str, tracer, size: str = "full"):
        self.seed = seed
        self.n_train, self.n_cal, self.n_test = SIZES[size]["table"]

    def build(self) -> None:
        """Cells draw their data inside ``run_benchmark``; nothing to build."""

    def cycle(self, k: int) -> list:
        cell_seed = int(np.random.default_rng([self.seed, k]).integers(0, 2**31))
        return [("cell", lambda s=s, d=d: self.cell(s, d, cell_seed), self.check) for s, d in self.settings]

    def cell(self, s: int, d: int, cell_seed: int):
        cfg = bench.MixtureConfig(s=s, d=d, n_train=self.n_train, n_cal=self.n_cal, n_test=self.n_test, seed=cell_seed)
        return bench.run_benchmark(cfg, alpha=self.alpha, recal_backend="isotonic")

    def check(self, result) -> list[str]:
        problems = []
        for col in bench.BENCH_COLUMNS:
            got, best = result.rows["calma"][col], result.rows["optimal"][col]
            if not got <= best + self.tolerance:
                problems.append(f"(s,d)=({result.config.s},{result.config.d}) {col}: calma {got:.4f} > optimal {best:.4f} + {self.tolerance}")
        return problems


WORKLOADS = {w.name: w for w in (Sample, Exact, Table)}
