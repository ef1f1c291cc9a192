"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps calma's public functions and methods.  Every call
made while the tracer is enabled records one span: name, start, end, parent
span and op id, plus the work the call did (rows, points, ...).  Spans stay
in memory until ``write_jsonl``.  A function imported elsewhere with ``from
.x import y`` is rebound in every ``calma.*`` module that holds it, and
``restore`` puts every original back and checks that none is left wrapped.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

_MARK = "__perfbench_original__"


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _stage_rows(args, kwargs, result):
    return {"stage_rows": len(result) * len(args[0].stages)}


def _decision_points(args, kwargs, result):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["p"]))}


def _fallback_solve(args, kwargs, result):
    loss = args[0] if args else kwargs["loss"]
    return {"solves": int(loss.kfn is None)}


def _accepted(args, kwargs, result):
    return {"accepted": int(result is not None)}


def _isotonic_points(args, kwargs, result):
    return {"points": len(args[0] if args else kwargs["scores"])}


def _calma_rounds(args, kwargs, result):
    trace = result[1]
    return {"rounds": trace.outer_iterations, "wl_calls": trace.total_wl_calls}


def _pairs(args, kwargs, result):
    return {"pairs": len(result.rows)}


def _file_bytes(args, kwargs, result):
    path = args[-1] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _baseline_name(args, kwargs):
    return "bench.baseline." + (args[0] if args else kwargs["loss_name"])


def targets():
    """(owner, attribute, span name, work function) for every traced call."""
    from calma import audit, bench, calibration, core, losses, multiaccuracy, training

    return [
        (core.ExpectationEngine, "expect", "core.expect", None),
        (core.Hypothesis, "values", "core.hypothesis", _rows),
        (core.PipelinePredictor, "values", "core.pipeline", _stage_rows),
        (core.TablePredictor, "values", "core.table", _rows),
        (core.ConstantPredictor, "values", "core.predictor", None),
        (core.FunctionPredictor, "values", "core.predictor", None),
        (core.BucketRecalPredictor, "values", "core.predictor", None),
        (multiaccuracy.GlmLinearPredictor, "values", "core.predictor", None),
        (core, "load_dataset", "core.io.csv_read", _file_bytes),
        (core, "save_dataset", "core.io.csv_write", _file_bytes),
        (losses.Loss, "decision", "losses.decision", _decision_points),
        (losses, "optimal_decision", "losses.fallback", _fallback_solve),
        (calibration, "ece", "calibration.ece", None),
        (calibration, "recalibrate_with_engine", "calibration.recalibrate", None),
        (calibration, "isotonic_fit", "calibration.isotonic", _isotonic_points),
        (multiaccuracy.ExhaustiveWeakLearner, "query", "multiaccuracy.wl_query", _accepted),
        (multiaccuracy.ResidualAccess, "correlation", "multiaccuracy.correlation", None),
        (multiaccuracy, "mae", "multiaccuracy.mae", None),
        (training, "calma", "training.calma", _calma_rounds),
        (audit, "audit_family", "audit.family", _pairs),
        (audit, "hypothesis_oi_gap", "audit.gap", None),
        (audit, "decision_oi_gap", "audit.gap", None),
        (audit, "loss_oi_gap", "audit.gap", None),
        (bench, "fit_linear_baseline", _baseline_name, None),
        (bench, "train_calma_bench", "bench.trainer", None),
        (bench, "gen_gaussian_mixture", "bench.gen", None),
    ]


def _calma_modules():
    return [m for n, m in list(sys.modules.items()) if (n == "calma" or n.startswith("calma.")) and m is not None]


class Tracer:
    """Records nested spans of wrapped calls; one thread, one caller."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id, work dict]
        self.spans: list[list] = []
        self.enabled = False
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextmanager
    def paused(self):
        """Run output checks without recording them."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _wrap(self, fn, name, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if work is not None:
                rec[5] = work(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self):
        for owner, attr, name, work in targets():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, name, work))
                self._patched.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, work)
            for module in _calma_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def restore(self) -> list[str]:
        """Put every original back; returns the bindings still wrapped."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        left = [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self._patched
            if (owner.__dict__ if isinstance(owner, type) else vars(owner))[attr] is not original
        ]
        for module in _calma_modules():
            for key, value in vars(module).items():
                if hasattr(value, _MARK):
                    left.append(f"{module.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == module.__name__:
                    left += [f"{value.__name__}.{k}" for k, v in vars(value).items() if hasattr(v, _MARK)]
        self._patched.clear()
        return left

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, work in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if work:
                    rec["work"] = work
                fh.write(json.dumps(rec) + "\n")


def aggregate(spans, ops) -> dict:
    """Per span name: calls, self time and summed work over spans of ``ops``.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op, work in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, op, work) in enumerate(spans):
        if op not in ops:
            continue
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += end - start - child[i]
        for key, value in (work or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out


# name -> (unit, span name, field); fields are "calls", "self_s" or a work key
LAYER_METRICS = {
    "core.expect.calls": ("count", "core.expect", "calls"),
    "core.expect.self_s": ("s", "core.expect", "self_s"),
    "core.hypothesis.rows": ("count", "core.hypothesis", "rows"),
    "core.hypothesis.self_s": ("s", "core.hypothesis", "self_s"),
    "core.pipeline.stage_rows": ("count", "core.pipeline", "stage_rows"),
    "core.pipeline.self_s": ("s", "core.pipeline", "self_s"),
    "core.table.rows": ("count", "core.table", "rows"),
    "core.table.self_s": ("s", "core.table", "self_s"),
    "core.predictor.self_s": ("s", "core.predictor", "self_s"),
    "core.io.csv_read_s": ("s", "core.io.csv_read", "self_s"),
    "core.io.csv_write_s": ("s", "core.io.csv_write", "self_s"),
    "core.io.csv_bytes": ("count", ("core.io.csv_read", "core.io.csv_write"), "bytes"),
    "core.io.model_json_s": ("s", "core.io.model_json", "self_s"),
    "losses.decision.calls": ("count", "losses.decision", "calls"),
    "losses.decision.points": ("count", "losses.decision", "points"),
    "losses.decision.self_s": ("s", "losses.decision", "self_s"),
    "losses.fallback.solves": ("count", "losses.fallback", "solves"),
    "losses.fallback.self_s": ("s", "losses.fallback", "self_s"),
    "calibration.ece.calls": ("count", "calibration.ece", "calls"),
    "calibration.ece.self_s": ("s", "calibration.ece", "self_s"),
    "calibration.recalibrate.calls": ("count", "calibration.recalibrate", "calls"),
    "calibration.recalibrate.self_s": ("s", "calibration.recalibrate", "self_s"),
    "calibration.isotonic.calls": ("count", "calibration.isotonic", "calls"),
    "calibration.isotonic.points": ("count", "calibration.isotonic", "points"),
    "calibration.isotonic.self_s": ("s", "calibration.isotonic", "self_s"),
    "multiaccuracy.wl_query.calls": ("count", "multiaccuracy.wl_query", "calls"),
    "multiaccuracy.wl_query.self_s": ("s", "multiaccuracy.wl_query", "self_s"),
    "multiaccuracy.wl_query.accepted": ("count", "multiaccuracy.wl_query", "accepted"),
    "multiaccuracy.correlation.calls": ("count", "multiaccuracy.correlation", "calls"),
    "multiaccuracy.correlation.self_s": ("s", "multiaccuracy.correlation", "self_s"),
    "multiaccuracy.mae.calls": ("count", "multiaccuracy.mae", "calls"),
    "multiaccuracy.mae.self_s": ("s", "multiaccuracy.mae", "self_s"),
    "training.calma.self_s": ("s", "training.calma", "self_s"),
    "training.rounds": ("count", "training.calma", "rounds"),
    "training.wl_calls": ("count", "training.calma", "wl_calls"),
    "audit.family.self_s": ("s", "audit.family", "self_s"),
    "audit.pairs": ("count", "audit.family", "pairs"),
    "audit.gap.calls": ("count", "audit.gap", "calls"),
    "bench.baseline.l2.self_s": ("s", "bench.baseline.l2", "self_s"),
    "bench.baseline.l1.self_s": ("s", "bench.baseline.l1", "self_s"),
    "bench.baseline.exp.self_s": ("s", "bench.baseline.exp", "self_s"),
    "bench.baseline.log.self_s": ("s", "bench.baseline.log", "self_s"),
    "bench.trainer.self_s": ("s", "bench.trainer", "self_s"),
    "bench.gen.self_s": ("s", "bench.gen", "self_s"),
}


def layer_metrics(spans, setup_op, cycle_ops: list[list]) -> dict:
    """Per-layer numbers for one set-up plus one cycle of ops.

    Counts come from the set-up and the first traced cycle, so they repeat
    exactly for a seed.  Times are the set-up's plus the median over traced
    cycles.
    """
    setup = aggregate(spans, {setup_op})
    cycles = [aggregate(spans, set(ops)) for ops in cycle_ops]

    def field(agg, spans_of, key):
        names = spans_of if isinstance(spans_of, tuple) else (spans_of,)
        return sum(agg.get(n, {}).get(key, 0) for n in names)

    out = {}
    for metric, (unit, spans_of, key) in LAYER_METRICS.items():
        if unit == "s":
            value = field(setup, spans_of, key) + statistics.median(field(c, spans_of, key) for c in cycles)
        else:
            value = field(setup, spans_of, key) + field(cycles[0], spans_of, key)
        out[metric] = (value, unit)
    points = out["losses.decision.points"][0]
    out["losses.fallback_ratio"] = (out["losses.fallback.solves"][0] / points if points else 0.0, "ratio")
    queries = out["multiaccuracy.wl_query.calls"][0]
    out["multiaccuracy.wl_accept_ratio"] = (out["multiaccuracy.wl_query.accepted"][0] / queries if queries else 0.0, "ratio")
    return out
