"""Command-line surface: generation, training, auditing, counterexamples."""

import dataclasses
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from calma import bench, core
from calma.bench import MixtureConfig, aggregate_results, markdown_table, run_benchmark
from calma.cli import main
from calma.core import (
    Dataset,
    FiniteDistribution,
    coordinate_class,
    load_dataset,
    predictor_from_dict,
    save_dataset,
    save_distribution,
)


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
    predictor = payload["predictor"]
    assert predictor["kind"] == "pipeline"  # one flat stage list
    assert not any(s["op"] == "base" and "stages" in s["base"] for s in predictor["stages"])
    assert predictor["stages"][-1]["op"] == "bucket"  # discretized output
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

    # the same rows as a JSON distribution of mass 1/n each: its exact engine equals the CSV's empirical one
    test = load_dataset(os.path.join(out, "test.csv"))
    dist = os.path.join(out, "test.json")
    save_distribution(FiniteDistribution(test.X, np.full(test.n, 1.0 / test.n), test.y), dist)
    exact_report = os.path.join(out, "exact_report.json")
    res = runner.invoke(
        main,
        ["audit", "--model", model, "--data", dist, "--losses", "l1,l2,l4,glm:sigmoid", "--out", exact_report],
    )
    assert res.exit_code == 0, res.output
    with open(report, "rb") as fh, open(exact_report, "rb") as fx:
        assert fh.read() == fx.read()


@pytest.fixture()
def three_columns(tmp_path):
    """A 3-column CSV and a model file over it with a constant predictor."""
    data, model = str(tmp_path / "data.csv"), str(tmp_path / "model.json")
    rng = np.random.default_rng(5)
    save_dataset(Dataset(rng.normal(size=(40, 3)), rng.integers(0, 2, 40)), data)
    with open(model, "w") as fh:
        json.dump({"class": {"kind": "coords", "scales": [1.0, 1.0, 1.0]}, "predictor": {"kind": "constant", "value": 0.5}}, fh)
    return data, model


@pytest.mark.parametrize("command", ["train", "audit"])
@pytest.mark.parametrize(
    "spec", ["coords:1,1,1,1", "coords:1,x", "coords:5,5", "coords:", "coords:1,0,1", "coords:1,-2,1", "coords:1,nan,1", "coords:1,inf,1"]
)
def test_malformed_coords_spec_is_a_usage_error(runner, tmp_path, three_columns, command, spec):
    data, model = three_columns
    args = {
        "train": ["train", "--data", data, "--out", str(tmp_path / "m.json"), "--trace", str(tmp_path / "t.json")],
        "audit": ["audit", "--model", model, "--data", data, "--out", str(tmp_path / "r.json")],
    }[command]
    res = runner.invoke(main, args + ["--class", spec])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert f"class spec {spec!r} needs 3 scales, one per data column, each finite and positive" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("scales", [[1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
def test_model_class_must_match_the_data_columns(runner, tmp_path, three_columns, scales):
    # too few scales audited the first columns alone; too many ended in an IndexError
    data, model = three_columns
    with open(model, "w") as fh:
        json.dump({"class": {"kind": "coords", "scales": scales}, "predictor": {"kind": "constant", "value": 0.5}}, fh)
    res = runner.invoke(main, ["audit", "--model", model, "--data", data, "--out", str(tmp_path / "r.json")])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert "the model file's class needs 3 scales, one per data column, each finite and positive" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("source", ["spec", "model"])
@pytest.mark.parametrize(
    "scales,named",
    [([1.0, 1.0, -1.0], "scales[2] is -1.0"), ([1.0, float("nan"), 1.0], "scales[1] is nan"),
     ([1.0, "x", 1.0], "scales[1] is 'x'"), ([1.0, 1.0], "scales[2] is missing"),
     ([1.0, 1.0, 1.0, 1.0], "scales has 4 entries")],
    ids=["negative", "nan", "string", "short", "long"],
)
def test_bad_scale_is_named(runner, tmp_path, three_columns, source, scales, named):
    data, model = three_columns
    if source == "spec":
        spec = "coords:" + ",".join(str(s) for s in scales)
        prefix = f"class spec {spec!r}"
        args = ["train", "--data", data, "--out", str(tmp_path / "m.json"), "--trace", str(tmp_path / "t.json"), "--class", spec]
    else:
        with open(model, "w") as fh:
            json.dump({"class": {"kind": "coords", "scales": scales}, "predictor": {"kind": "constant", "value": 0.5}}, fh)
        prefix = "the model file's class"
        args = ["audit", "--model", model, "--data", data, "--out", str(tmp_path / "r.json")]
    res = runner.invoke(main, args)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert f"{prefix} needs 3 scales, one per data column, each finite and positive: {named}" in res.output
    assert "Traceback" not in res.output


def test_scale_past_the_float_range_is_named(runner, tmp_path, three_columns):
    # a JSON integer too large for a float ended in an OverflowError traceback and exit 1
    data, model = three_columns
    with open(model, "w") as fh:
        fh.write('{"class": {"kind": "coords", "scales": [1.0, 1%s, 1.0]}, "predictor": {"kind": "constant", "value": 0.5}}' % ("0" * 400))
    res = runner.invoke(main, ["audit", "--model", model, "--data", data, "--out", str(tmp_path / "r.json")])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert "each finite and positive: scales[1] is 1000" in res.output
    assert "Traceback" not in res.output


def test_model_without_a_class_is_a_usage_error(runner, tmp_path, three_columns):
    # a KeyError traceback and exit 1 before the key was checked
    data, model = three_columns
    with open(model, "w") as fh:
        json.dump({"predictor": {"kind": "constant", "value": 0.5}}, fh)
    res = runner.invoke(main, ["audit", "--model", model, "--data", data, "--out", str(tmp_path / "r.json")])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert "the model file has no 'class' key" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "model_class",
    [["coords", [1.0, 1.0, 1.0]], {"scales": [1.0, 1.0, 1.0]}, {"kind": "coords"}, {"kind": "coords", "scales": 3}],
    ids=["not-a-dict", "no-kind", "no-scales", "scales-not-a-list"],
)
def test_malformed_model_class_is_a_usage_error(runner, tmp_path, three_columns, model_class):
    # each ended in a KeyError or TypeError traceback and exit 1
    data, model = three_columns
    with open(model, "w") as fh:
        json.dump({"class": model_class, "predictor": {"kind": "constant", "value": 0.5}}, fh)
    res = runner.invoke(main, ["audit", "--model", model, "--data", data, "--out", str(tmp_path / "r.json")])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert "the model file's class must be an object with a 'kind' and a list of 'scales'" in res.output
    assert "Traceback" not in res.output


def test_audit_builds_the_member_matrix_once(runner, tmp_path, three_columns, monkeypatch):
    data, model = three_columns
    builds = []
    value_matrix = core.value_matrix
    monkeypatch.setattr(core, "value_matrix", lambda fns, X: builds.append(len(fns)) or value_matrix(fns, X))
    res = runner.invoke(main, ["audit", "--model", model, "--data", data, "--out", str(tmp_path / "r.json")])
    assert res.exit_code == 0, res.output
    assert builds == [8]  # 3 coordinates, the constant and their negations: the gaps and mae share it


@pytest.mark.parametrize("command", ["train", "audit", "baseline", "baseline-test"])
@pytest.mark.parametrize(
    "text, reason",
    [
        ("f0,f1,f2,y\n0.5,1.5,2.5,1\n0.5,1.5,1\n", "the number of columns changed from 4 to 3 at row 2"),
        ("f0,f1,f2,y\n0.5,1.5,2.5,3\n", "labels must be binary"),
        ("f0,f1,f2,label\n0.5,1.5,2.5,1\n", "expected CSV header f0,...,f{d-1},y"),
        ("f0,f1,f2,y\n", "dataset must be nonempty"),
    ],
    ids=["ragged", "label-3", "header", "no-rows"],
)
def test_unloadable_csv_is_a_usage_error(runner, tmp_path, three_columns, command, text, reason):
    # each ended in a ValueError traceback and exit 1
    data, model = three_columns
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    args = {
        "train": ["train", "--data", str(bad), "--out", str(tmp_path / "m.json"), "--trace", ""],
        "audit": ["audit", "--model", model, "--data", str(bad), "--out", str(tmp_path / "r.json")],
        "baseline": ["baseline", "--loss", "l2", "--data", str(bad)],
        "baseline-test": ["baseline", "--loss", "l2", "--data", data, "--test", str(bad)],
    }[command]
    res = runner.invoke(main, args)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and errors[0].startswith(f"Error: cannot load {bad}: {reason}"), res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "dist, reason",
    [
        ({"points": [[0.0, 0.0, 0.0]], "mass": [1.0]}, "a distribution needs 'points', 'mass' and 'bayes'; missing: bayes"),
        ({"points": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], "mass": [0.25, 0.25], "bayes": [0.5, 0.5]},
         "masses must sum to 1 within 1e-12"),
        ("{", "Expecting property name enclosed in double quotes"),
        ({"points": [[0.0, 0.0, 0.0]], "mass": "abc", "bayes": [0.5]}, "mass must be a list of numbers, not 'abc'"),
        ({"points": [[0.0, 0.0, 0.0]], "mass": [1.0], "bayes": None}, "bayes must be a list of numbers, not None"),
        ({"points": [0.0, 0.0, 0.0], "mass": [1.0], "bayes": [0.5]},
         "points must be a 2-D list of numbers, not [0.0, 0.0, 0.0]"),
    ],
    ids=["no-bayes", "mass-0.5", "not-json", "mass-a-string", "null-bayes", "points-1-d"],
)
def test_unloadable_distribution_is_a_usage_error(runner, tmp_path, three_columns, dist, reason):
    # no bayes ended in a KeyError traceback and exit 1, the others in a ValueError traceback; a
    # string mass was reported as "could not convert string to float", a null bayes as not finite,
    # and 1-D points loaded as one point
    _, model = three_columns
    bad = tmp_path / "bad.json"
    bad.write_text(dist if isinstance(dist, str) else json.dumps(dist))
    res = runner.invoke(main, ["audit", "--model", model, "--data", str(bad), "--out", str(tmp_path / "r.json")])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and errors[0].startswith(f"Error: cannot load {bad}: {reason}"), res.output
    assert "Traceback" not in res.output


def _model_text(predictor):
    return json.dumps({"class": {"kind": "coords", "scales": [1.0, 1.0, 1.0]}, "predictor": predictor})


@pytest.mark.parametrize(
    "text, reason",
    [
        (_model_text({"value": 0.5}), "a predictor must be an object with a 'kind'"),
        (_model_text(None), "a predictor must be an object with a 'kind'"),
        (_model_text({"kind": "pipeline"}), "a pipeline predictor needs a list of 'stages'"),
        (_model_text({"kind": "pipeline", "stages": 3}), "a pipeline predictor needs a list of 'stages'"),
        ('{"class": ', "Expecting value"),
        (_model_text({"kind": "constant", "value": None}), "value must be a number, not None"),
        (_model_text({"kind": "pipeline", "stages": [3]}), "stages[0] must be an object with an 'op'"),
        (_model_text({"kind": "pipeline", "stages": [{"op": "const", "value": 0.5}, {"op": "add_hyp", "tag": "x0"}]}),
         "stages[1].coef must be a number, not None"),
        (_model_text({"kind": "pipeline", "stages": [{"op": "const", "value": 0.5},
                                                     {"op": "add_hyp", "tag": "x9", "coef": 0.1}]}),
         "stages[1].tag 'x9' names no member of the class"),
        (_model_text({"kind": "pipeline", "stages": [{"op": "const", "value": 0.5}, {"op": "add_linear", "b": 0.0}]}),
         "stages[1].w is missing"),
        (_model_text({"kind": "pipeline", "stages": [{"op": "const", "value": 0.5},
                                                     {"op": "bucket", "buckets": [], "values": []}]}),
         "stages[1].delta must be a number, not None"),
        (_model_text({"kind": "pipeline", "stages": [{"op": "const", "value": 0.5},
                                                     {"op": "isotonic", "values": [0.5]}]}),
         "stages[1].thresholds is missing"),
        (_model_text({"kind": "table", "values": [0.5]}), "points is missing"),
        (_model_text({"kind": "pipeline", "stages": [{"op": "const", "value": 0.5}, {"op": ["bucket"]}]}),
         "stages[1].op ['bucket'] names no stage"),
        (_model_text({"kind": "bucket_recal", "delta": 0.25, "bucket_values": [0.25, 0.75]}),
         "base must be an object with a 'kind'"),
        (_model_text({"kind": "glm_linear", "transfer": "sigmoid"}), "weights is missing"),
        (_model_text({"kind": "glm_linear", "weights": {"x0": 0.1}}), "transfer is missing"),
        (_model_text({"kind": "pipeline", "stages": [{"op": "const", "value": 0.5},
                                                     {"op": "isotonic", "thresholds": None, "values": [0.5]}]}),
         "stages[1].thresholds must be a list of numbers, not None"),
        (_model_text({"kind": "pipeline", "stages": [{"op": "const", "value": 0.5},
                                                     {"op": "add_linear", "w": [0.1, 0.0, 0.0], "b": None}]}),
         "stages[1].b must be a number, not None"),
        (_model_text({"kind": "glm_linear", "transfer": "sigmoid", "weights": 3}),
         "weights must be an object of member weights, not 3"),
        (_model_text({"kind": "table", "points": None, "values": [0.5]}), "points must be a 2-D list of numbers, not None"),
        (_model_text({"kind": "table", "points": 3, "values": [0.5]}), "points must be a 2-D list of numbers, not 3"),
        (_model_text({"kind": "table", "points": [[0.0, 0.0, 0.0], [1.0]], "values": [0.5, 0.5]}),
         "points must be a 2-D list of numbers, not [[0.0, 0.0, 0.0], [1.0]]"),
        (_model_text({"kind": "glm_linear", "transfer": "sigmoid", "weights": {"x0": 0.1, "zz": 0.1}}),
         "weights.zz names no member of the class"),
        (_model_text({"kind": "pipeline", "stages": [{"op": "base", "base": {"kind": "pipeline"}}]}),
         "stages[0].base needs a list of 'stages'"),
        (_model_text({"kind": "pipeline", "stages": [{"op": "const", "value": 0.5}, {"op": "add_hyp", "coef": 0.1}]}),
         "stages[1].tag is missing"),
        (_model_text({"kind": "pipeline", "stages": [{"op": "const", "value": 0.5},
                                                     {"op": "add_linear", "w": [0.1, 0.0], "b": 0.0}]}),
         "add_linear w has 2 entries but the data has 3 columns"),
        (_model_text({"kind": "table", "points": [[0.0, 0.0]], "values": [0.5]}),
         "point outside the table predictor's domain"),
    ],
    ids=["no-kind", "null-predictor", "no-stages", "stages-not-a-list", "not-json", "null-constant",
         "stage-not-an-object", "add-hyp-without-coef", "add-hyp-unknown-tag", "add-linear-without-w",
         "bucket-without-delta", "isotonic-without-thresholds", "table-without-points", "op-is-a-list",
         "bucket-recal-without-base", "glm-without-weights", "glm-without-transfer",
         "isotonic-null-thresholds", "add-linear-null-b", "glm-weights-a-number", "table-null-points",
         "table-points-a-number", "table-ragged-points", "glm-unknown-weight-tag", "nested-pipeline-without-stages",
         "add-hyp-without-tag", "add-linear-w-too-short", "table-points-too-narrow"],
)
def test_unloadable_model_is_a_usage_error(runner, tmp_path, three_columns, text, reason):
    # each ended in a KeyError, TypeError or JSONDecodeError traceback and exit 1, or (null
    # isotonic thresholds, read as [nan]) loaded and audited with exit 0; a predictor that
    # cannot evaluate the data's rows ended in a ValueError traceback and exit 1
    data, model = three_columns
    with open(model, "w") as fh:
        fh.write(text)
    res = runner.invoke(main, ["audit", "--model", model, "--data", data, "--out", str(tmp_path / "r.json")])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and errors[0].startswith(f"Error: cannot load {model}: {reason}"), res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "args, option",
    [
        (["bench", "--seeds", "0"], "--seeds"),
        (["bench", "--d", "1"], "--d"),
        (["counterexamples", "--which", "sim", "--resolution", "10"], "--resolution"),
        (["counterexamples", "--which", "parity", "--resolution", "10"], "--resolution"),
        (["train", "--data", "{data}", "--alpha", "0"], "--alpha"),
        (["train", "--data", "{data}", "--alpha", "1.5"], "--alpha"),
        (["audit", "--model", "{model}", "--data", "{data}", "--clamp", "0.7"], "--clamp"),
        (["gen", "--d", "1"], "--d"),
        (["gen", "--n-train", "0"], "--n-train"),
        (["gen", "--seed", "-1"], "--seed"),
        (["train", "--data", "{data}", "--seed", "-1"], "--seed"),
        (["bench", "--alpha", "0"], "--alpha"),
        (["bench", "--alpha", "1.5"], "--alpha"),
        (["train", "--data", "{data}", "--alpha", "nan"], "--alpha"),
        (["bench", "--alpha", "nan"], "--alpha"),
        (["bench", "--tolerance", "nan"], "--tolerance"),
        (["bench", "--tolerance", "inf"], "--tolerance"),
        (["bench", "--tolerance", "-1"], "--tolerance"),
        (["audit", "--model", "{model}", "--data", "{data}", "--clamp", "nan"], "--clamp"),
    ],
)
def test_out_of_range_option_is_a_usage_error(runner, tmp_path, three_columns, args, option):
    # each of these ended in a traceback with exit 1, or (--clamp 0.7) audited a constant prediction;
    # NaN passed every range check: train --alpha nan raised, bench --alpha nan trained at NaN,
    # --tolerance nan or inf gave a gate that cannot fail and --clamp nan skipped the clamp
    data, model = three_columns
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, [a.format(data=data, model=model) for a in args])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert f"Invalid value for '{option}'" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "args, option, reason",
    [
        (["train", "--data", "{data}", "--out", "nodir/m.json"], "--out", "directory 'nodir' does not exist"),
        (["train", "--data", "{data}", "--trace", "afile/t.json"], "--trace", "'afile' is not a directory"),
        (["train", "--data", "{data}", "--out", "."], "--out", "is a directory"),
        (["audit", "--model", "{model}", "--data", "{data}", "--out", "nodir/r.json"], "--out", "'nodir' does not exist"),
        (["bench", "--seeds", "1", "--out", "nodir/table.json"], "--out", "directory 'nodir' does not exist"),
        (["gen", "--out-dir", "afile"], "--out-dir", "'afile' is a file"),
        (["gen", "--out-dir", "afile/sub/dir"], "--out-dir", "'afile' is not a directory"),
    ],
    ids=["train-out", "train-trace", "train-out-is-a-dir", "audit-out", "bench-out", "gen-file", "gen-under-a-file"],
)
def test_unwritable_output_path_is_a_usage_error(runner, tmp_path, three_columns, args, option, reason):
    # train, audit and bench did all their work before open() raised FileNotFoundError, and gen ended in a
    # FileExistsError from makedirs: tracebacks with exit 1.  Now the command line is refused when parsed.
    data, model = three_columns
    with runner.isolated_filesystem(temp_dir=tmp_path):
        open("afile", "w").close()
        res = runner.invoke(main, [a.format(data=data, model=model) for a in args])
        assert sorted(os.listdir()) == ["afile"]  # nothing written, no directory made
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert f"Invalid value for '{option}'" in res.output and reason in res.output
    assert "Traceback" not in res.output


def test_output_directory_is_made_with_its_ancestors(runner, tmp_path):
    out = str(tmp_path / "new" / "deep")
    res = runner.invoke(main, ["gen", "--n-train", "20", "--n-cal", "5", "--n-test", "20", "--out-dir", out])
    assert res.exit_code == 0, res.output
    assert os.path.exists(os.path.join(out, "train.csv"))


@pytest.mark.parametrize(
    "losses, entry",
    [("l1,foo", "foo"), ("l1,lp:0.5", "lp:0.5"), ("l1,lp:x", "lp:x"), ("l1,lp:nan", "lp:nan"), ("l1,lp:inf", "lp:inf"),
     (",", ",")],
)
def test_unknown_loss_is_a_usage_error(runner, tmp_path, three_columns, losses, entry):
    # foo, lp:0.5 and lp:x ended in a ValueError traceback and exit 1; lp:nan and lp:inf audited
    # NaN gaps, and ',' audited no loss at all, with exit 0
    data, model = three_columns
    res = runner.invoke(main, ["audit", "--model", model, "--data", data, "--losses", losses,
                               "--out", str(tmp_path / "r.json")])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and errors[0].startswith(f"Error: Invalid value for '--losses': {entry!r}"), res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_glm_audit_of_an_end_prediction_without_clamp_is_a_usage_error(runner, tmp_path, three_columns, value):
    # an OutOfRangeError traceback and exit 1: the sigmoid's inverse has no value at 0 or 1
    data, model = three_columns
    with open(model, "w") as fh:
        fh.write(_model_text({"kind": "constant", "value": value}))
    res = runner.invoke(main, ["audit", "--model", model, "--data", data, "--clamp", "0", "--losses", "l1,glm:sigmoid",
                               "--out", str(tmp_path / "r.json")])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "glm:sigmoid" in errors[0] and "--clamp" in errors[0], res.output
    assert "Traceback" not in res.output


def test_unknown_class_spec_is_a_usage_error(runner, tmp_path, three_columns):
    data, _ = three_columns
    res = runner.invoke(main, ["train", "--data", data, "--class", "levels", "--out", str(tmp_path / "m.json"), "--trace", ""])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert "unknown class spec 'levels'; use 'coords' or 'coords:s0,s1,...'" in res.output


def test_unknown_model_class_kind_is_a_usage_error(runner, tmp_path, three_columns):
    data, model = three_columns
    with open(model, "w") as fh:
        json.dump({"class": {"kind": "levels", "scales": [1.0, 1.0, 1.0]}, "predictor": {"kind": "constant", "value": 0.5}}, fh)
    res = runner.invoke(main, ["audit", "--model", model, "--data", data, "--out", str(tmp_path / "r.json")])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert "unknown class kind 'levels' in model file" in res.output


def test_coords_spec_scales_are_stored(runner, tmp_path, three_columns):
    data, _ = three_columns
    model = str(tmp_path / "m.json")
    res = runner.invoke(main, ["train", "--data", data, "--class", "coords:2,0.5,4", "--out", model, "--trace", ""])
    assert res.exit_code == 0, res.output
    with open(model) as fh:
        assert json.load(fh)["class"] == {"kind": "coords", "scales": [2.0, 0.5, 4.0]}


def test_nested_bucket_recal_model_still_loads():
    # the nested format older versions wrote: each recalibration wrapped the
    # pipeline whose base stage held the previous model
    nested = {
        "kind": "bucket_recal",
        "delta": 0.25,
        "bucket_values": [0.2, 0.7],
        "base": {
            "kind": "pipeline",
            "stages": [
                {
                    "op": "base",
                    "base": {
                        "kind": "bucket_recal",
                        "delta": 0.25,
                        "bucket_values": [0.25, 0.75],
                        "base": {
                            "kind": "pipeline",
                            "stages": [
                                {"op": "base", "base": {"kind": "constant", "value": 0.4}},
                                {"op": "add_hyp", "tag": "x0", "coef": 0.3},
                            ],
                        },
                    },
                },
                {"op": "add_hyp", "tag": "-x1", "coef": 0.3},
            ],
        },
    }
    flat = {
        "kind": "pipeline",
        "stages": [
            {"op": "base", "base": {"kind": "constant", "value": 0.4}},
            {"op": "add_hyp", "tag": "x0", "coef": 0.3},
            {"op": "bucket", "delta": 0.25, "values": [0.25, 0.75]},
            {"op": "add_hyp", "tag": "-x1", "coef": 0.3},
            {"op": "bucket", "delta": 0.25, "values": [0.2, 0.7]},
        ],
    }
    hclass = coordinate_class(2)
    X = np.array([[a, b] for a in np.linspace(-1, 1, 9) for b in np.linspace(-1, 1, 9)])
    old, new = predictor_from_dict(nested, hclass), predictor_from_dict(flat, hclass)
    # the dense bucket lists of older files are written back sparsely: only
    # the buckets whose value is not the midpoint (2j+1)delta
    assert old.to_dict() == new.to_dict()
    assert [s for s in new.to_dict()["stages"] if s["op"] == "bucket"] == [
        {"op": "bucket", "delta": 0.25, "buckets": [], "values": []},
        {"op": "bucket", "delta": 0.25, "buckets": [0, 1], "values": [0.2, 0.7]},
    ]
    assert np.array_equal(old.values(X), new.values(X))
    p = np.clip(0.4 + 0.3 * X[:, 0], 0, 1)
    p = np.clip(np.where(p < 0.5, 0.25, 0.75) - 0.3 * X[:, 1], 0, 1)
    assert np.array_equal(old.values(X), np.where(p < 0.5, 0.2, 0.7))


def test_baseline_command(runner, tmp_path):
    out = str(tmp_path)
    runner.invoke(main, ["gen", "--n-train", "200", "--n-cal", "50", "--n-test", "50", "--out-dir", out])
    res = runner.invoke(main, ["baseline", "--loss", "l2", "--data", os.path.join(out, "train.csv")])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["loss"] == "l2"
    assert payload["train_loss"] > 0


def test_baseline_choices_are_the_bench_columns():
    (loss,) = [p for p in main.commands["baseline"].params if p.name == "loss_name"]
    assert tuple(loss.type.choices) == bench.BENCH_COLUMNS


def test_baseline_l1_is_solved_exactly(runner, tmp_path):
    out = str(tmp_path)
    runner.invoke(main, ["gen", "--n-train", "200", "--n-cal", "50", "--n-test", "50", "--out-dir", out])
    res = runner.invoke(
        main,
        ["baseline", "--loss", "l1", "--data", os.path.join(out, "train.csv"), "--test", os.path.join(out, "test.csv")],
    )
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["grad_norm"] <= 1e-9
    assert payload["test_loss"] > 0


@pytest.mark.parametrize(
    "loss,gen,tol",
    [
        # the L-BFGS exp fit stopped at a gradient norm of 1e-4..1e-2 and exited 3 here
        ("exp", ["--s", "4", "--d", "4", "--n-train", "3000", "--seed", "1"], 1e-9),
        # the damped Newton log fit stalled at a gradient norm of 1.1e-8 and exited 3 here;
        # exit 0 certifies its tolerance of 1e-9, and TestBaselines pins the norm itself
        ("log", ["--s", "2", "--d", "2", "--n-train", "3000", "--seed", "17"], 1e-8),
    ],
)
def test_baseline_exp_and_log_certify(runner, tmp_path, loss, gen, tol):
    out = str(tmp_path)
    runner.invoke(main, ["gen", *gen, "--n-cal", "10", "--n-test", "10", "--out-dir", out])
    res = runner.invoke(main, ["baseline", "--loss", loss, "--data", os.path.join(out, "train.csv")])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["grad_norm"] <= tol


@pytest.mark.parametrize("x", [None, "solved"])
def test_baseline_l1_solver_failure_exit_code(runner, tmp_path, monkeypatch, x):
    out = str(tmp_path)
    runner.invoke(main, ["gen", "--n-train", "200", "--n-cal", "50", "--n-test", "50", "--out-dir", out])
    if x is None:
        # a walk cut off by its step cap reports converged=False
        monkeypatch.setattr(bench, "_L1_MAX_STEPS", 1)
    else:
        # a walk that ends but whose certificate misses the tolerance does too
        monkeypatch.setattr(bench, "_BASELINE_TOL", -1.0)
    res = runner.invoke(main, ["baseline", "--loss", "l1", "--data", os.path.join(out, "train.csv")])
    assert res.exit_code == 3, res.output


def test_counterexample_parity_exit_code(runner):
    res = runner.invoke(main, ["counterexamples", "--which", "parity"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["l4_hypothesis_gap"] == pytest.approx(4 / 9, abs=1e-12)


def test_counterexample_sim_passes_at_the_exact_optimum(runner, monkeypatch):
    from calma import audit
    from calma.audit import SimReport

    # both violations exactly 1/20, the optimum the construction is built to have
    report = SimReport(0.05, 0.05, (0.2, 0.2, 0.9, 0.2), 12, 0.125, 0.0, 0.0, False)
    monkeypatch.setattr(audit, "sim_counterexample", lambda resolution: report)
    res = runner.invoke(main, ["counterexamples", "--which", "sim"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["min_violation_value_grid"] == 0.05


def test_counterexample_parity_violation_exits_4(runner, monkeypatch):
    from calma import audit

    # the construction's report with a hypothesis gap short of 4/9
    report = dataclasses.replace(audit.parity_counterexample(), l4_hypothesis_gap=0.4)
    monkeypatch.setattr(audit, "parity_counterexample", lambda: report)
    res = runner.invoke(main, ["counterexamples", "--which", "parity"])
    assert res.exit_code == 4, res.output
    assert json.loads(res.output)["l4_hypothesis_gap"] == 0.4


def test_threshold_violation_exits_4(runner):
    # 2 stays click's usage error, as in test_malformed_coords_spec_is_a_usage_error
    res = runner.invoke(main, ["bench", "--seeds", "1", "--tolerance", "0"])
    assert res.exit_code == 4, res.output
    assert "exceeds baseline + 0.0" in res.output


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
    rows = run_benchmark(MixtureConfig(s=2, d=2, seed=0)).rows
    assert text == markdown_table(rows, lambda v: f"{v:.3f}") + "\n"


def test_bench_writes_csv_table(runner, tmp_path):
    table = str(tmp_path / "t.csv")
    res = runner.invoke(main, ["bench", "--s", "2", "--d", "2", "--seeds", "1", "--out", table])
    assert res.exit_code == 0, res.output
    with open(table) as fh:
        text = fh.read()
    agg = aggregate_results([run_benchmark(MixtureConfig(s=2, d=2, seed=0))])
    rows = [name + "," + ",".join(f"{agg[name][c]['mean']:.5f}" for c in ("l2", "l1", "exp", "log")) for name in agg]
    assert text == "\n".join(["algorithm,l2,l1,exp,log", *rows]) + "\n"
