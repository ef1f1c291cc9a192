"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_smoke.py

Checks that every metric is emitted with its unit, that traced counts repeat
for a seed, that a wrong output fails the run, that the tracer restores what
it wraps, and that the benchmark refuses to run without calma's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

REPORTED = {
    "sample": ["train_s", "train_tail_s", "audit_s", "audit_tail_s"],
    "exact": ["exact_s", "exact_tail_s"],
    "table": ["table_cell_s", "table_cell_tail_s"],
}
ALWAYS = ["cycle_ref", "setup_s", "import_ref", "peak_rss_mb", "cycle_s", "import_s", "reference_s",
          "ops_failed_frac", "warnings_per_op"]
LAYER_EXTRA = ["losses.fallback_ratio", "multiaccuracy.wl_accept_ratio", "import.scipy_s",
               "import.calma_self_s", "trace.overhead_frac", "audit.warnings"]


def _run(workload, trace, seed=0, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _report(stdout):
    """Metric name -> unit from the human-readable lines."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sample", "exact", "table"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    report = _report(proc.stdout)
    if trace:
        expected = {k: unit for k, (unit, _, _) in tracing.LAYER_METRICS.items()}
        assert expected.items() <= report.items()
        assert set(LAYER_EXTRA) <= set(report)
    else:
        assert set(ALWAYS + REPORTED[workload]) <= set(report)
        assert report["ops_failed_frac"] == "ratio"


def test_traced_counts_repeat_for_a_seed():
    layers = os.path.join(ROOT, ".bench_out", "sample-seed3.layers.json")
    counts = []
    for _ in range(2):
        proc = _run("sample", 1, seed=3)
        assert proc.returncode == 0, proc.stderr
        with open(layers) as fh:
            counts.append({k: v["value"] for k, v in json.load(fh).items() if v["unit"] == "count"})
    assert counts[0]["audit.pairs"] > 0 and counts[0] == counts[1]


def test_wrong_output_fails_the_run(monkeypatch, capsys):
    """A trainer that skips boosting and recalibration breaks the calibration
    check: the failure is counted and the exit code is nonzero."""
    from calma import calibration, training

    def untrained(p0, alpha, wl, engine, sampler=None, config=None):
        return calibration.discretize(p0, alpha * alpha / 32.0), None

    monkeypatch.setattr(training, "calma", untrained)
    code = run.main(["--workload", "exact", "--seed", "0", "--seconds", "0.2", "--size", "tiny"])
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    frac = next(line.split()[1] for line in out.splitlines() if line.startswith("ops_failed_frac"))
    assert float(frac) > 0


def test_tracer_restores_every_binding():
    from calma import bench, calibration, core, multiaccuracy, training

    before = (training.ece, bench.isotonic_fit, training.mae, core.Hypothesis.values, calibration.ece)
    tracer = tracing.Tracer()
    tracer.install()
    assert training.ece is calibration.ece and training.ece is not before[0]
    assert hasattr(core.Hypothesis.__dict__["values"], "__perfbench_original__")
    assert tracer.restore() == []
    after = (training.ece, bench.isotonic_fit, training.mae, core.Hypothesis.values, calibration.ece)
    assert all(a is b for a, b in zip(before, after))
    assert multiaccuracy.mae is before[2]


def test_refuses_to_run_without_the_sources():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("exact", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
