"""Command-line surface: generation, training, auditing, counterexamples."""

import json
import os

import pytest
from click.testing import CliRunner

from calma.bench import MixtureConfig, run_benchmark
from calma.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_gen_train_audit_roundtrip(runner, tmp_path):
    out = str(tmp_path)
    res = runner.invoke(
        main,
        ["gen", "--s", "2", "--d", "2", "--n-train", "300", "--n-cal", "100", "--n-test", "100", "--seed", "4", "--out-dir", out],
    )
    assert res.exit_code == 0, res.output
    for name in ("train.csv", "cal.csv", "test.csv"):
        assert os.path.exists(os.path.join(out, name))

    model = os.path.join(out, "model.json")
    trace = os.path.join(out, "trace.json")
    res = runner.invoke(
        main,
        ["train", "--data", os.path.join(out, "train.csv"), "--alpha", "0.2", "--out", model, "--trace", trace],
    )
    assert res.exit_code == 0, res.output
    with open(model) as fh:
        payload = json.load(fh)
    assert payload["predictor"]["kind"] == "bucket_recal"  # discretized output
    assert payload["final_ece"] <= 0.2
    with open(trace) as fh:
        tr = json.load(fh)
    assert tr["alpha"] == 0.2

    report = os.path.join(out, "report.json")
    res = runner.invoke(
        main,
        ["audit", "--model", model, "--data", os.path.join(out, "test.csv"), "--losses", "l1,l2,l4,glm:sigmoid", "--out", report],
    )
    assert res.exit_code == 0, res.output
    with open(report) as fh:
        rep = json.load(fh)
    assert rep["max_decomposition_residual"] <= 1e-9
    assert len(rep["pairs"]) > 0


def test_baseline_command(runner, tmp_path):
    out = str(tmp_path)
    runner.invoke(main, ["gen", "--n-train", "200", "--n-cal", "50", "--n-test", "50", "--out-dir", out])
    res = runner.invoke(main, ["baseline", "--loss", "l2", "--data", os.path.join(out, "train.csv")])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["loss"] == "l2"
    assert payload["train_loss"] > 0


def test_counterexample_parity_exit_code(runner):
    res = runner.invoke(main, ["counterexamples", "--which", "parity"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["l4_hypothesis_gap"] == pytest.approx(4 / 9, abs=1e-12)


def test_bench_writes_table(runner, tmp_path):
    table = str(tmp_path / "table.json")
    res = runner.invoke(
        main,
        ["bench", "--s", "2", "--d", "2", "--seeds", "1", "--out", table],
    )
    assert res.exit_code == 0, res.output
    with open(table) as fh:
        payload = json.load(fh)
    assert "calma" in payload["table"]


def test_bench_writes_markdown_table(runner, tmp_path):
    table = str(tmp_path / "table.md")
    res = runner.invoke(main, ["bench", "--s", "2", "--d", "2", "--seeds", "1", "--out", table])
    assert res.exit_code == 0, res.output
    with open(table) as fh:
        text = fh.read()
    # one seed: every mean is that seed's value, so the table is the cell's own
    assert text == run_benchmark(MixtureConfig(s=2, d=2, seed=0)).to_markdown() + "\n"
