"""tools/upgrade_model.py: version 1 model files, their own checks, and the split they gain."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from stockcast import pipeline
from stockcast.cli import main as stockcast_main
from stockcast.indicators import build_features
from stockcast.lstm import (CorruptModel, LstmModel, TrainConfig, gate_view, load_model,
                            model_param_items)
from stockcast.market_data import parse_csv, serialize_csv
from stockcast.scaling import ScalerParams

from conftest import random_walk_series
from test_lstm import CONTRACT

FIXTURES = Path(__file__).parent / "fixtures"
_spec = importlib.util.spec_from_file_location(
    "upgrade_model", Path(__file__).parents[1] / "tools" / "upgrade_model.py")
upgrade_model = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(upgrade_model)

WALK_CSV = serialize_csv(random_walk_series(300, seed=7))


def v1_doc(name="golden_v1_paper_model.json") -> dict:
    return json.loads((FIXTURES / name).read_text())


def upgrade_doc(doc, fraction=0.8):
    return upgrade_model.upgrade(json.dumps(doc), WALK_CSV, fraction)


def run_tool(tmp_path, model_path, fraction="0.8"):
    """The tool's exit code, and the file it wrote or None."""
    csv_path, out = tmp_path / "walk.csv", tmp_path / "upgraded.json"
    csv_path.write_text(WALK_CSV)
    rc = upgrade_model.main([str(model_path), str(csv_path), "--train-fraction", fraction,
                             "--out", str(out)])
    return rc, out if out.exists() else None


def test_golden_v1_model_resaves_and_predicts(tmp_path, capsys):
    # written by the per-gate implementation that preceded packed storage; the pin checks
    # that each per-gate array lands where gate_view places it
    doc = v1_doc("golden_v1_model.json")
    layers, head_w = upgrade_model.v1_weights(doc)
    names, scaler = tuple(doc["feature_names"]), doc["scaler"]
    model = LstmModel(
        layers=layers, head_w=head_w, head_b=np.array([doc["head"]["b"]]),
        scaler=ScalerParams(names, np.array(scaler["mins"]), np.array(scaler["maxs"])),
        feature_names=names, lookback=doc["lookback"],
        train_config=TrainConfig(hidden_sizes=tuple(doc["hidden_sizes"])), contract=CONTRACT)
    assert model.hidden_sizes == (4, 3) and model.num_features == 3
    X = np.random.default_rng(20241).uniform(-1.0, 1.0, size=(32, 5, 3))
    pinned = json.loads((FIXTURES / "golden_v1_predictions.json").read_text())
    assert np.allclose(model.predict(X, len(X)), pinned, rtol=0.0, atol=1e-12)
    # its feature_names, [Close, CMA, SMA10], are not paper_multivariate's 13 columns,
    # which format_version 2 requires, so the tool refuses it
    assert run_tool(tmp_path, FIXTURES / "golden_v1_model.json") == (2, None)
    assert capsys.readouterr().err.startswith("error: corrupt model document at $.feature_names")

    # a v1 file whose names agree converts with every array's bytes kept
    doc = v1_doc()
    upgraded = upgrade_doc(doc)
    rc, out = run_tool(tmp_path, FIXTURES / "golden_v1_paper_model.json")
    assert rc == 0
    v2 = load_model(out)
    for k, layer_doc in enumerate(doc["layers"]):
        for name in upgrade_model.GATE_ARRAYS:
            expected = np.array(layer_doc[name], dtype=np.float64)
            assert gate_view(v2.layers[k], name).tobytes() == expected.tobytes(), (k, name)
    assert v2.head_w.tobytes() == np.array(doc["head"]["w"]).tobytes()
    assert v2.head_b.tolist() == [doc["head"]["b"]]
    for side in ("mins", "maxs"):
        assert getattr(v2.scaler, side).tobytes() == np.array(doc["scaler"][side]).tobytes()
    for (_, a), (_, b) in zip(model_param_items(upgraded), model_param_items(v2)):
        assert a.tobytes() == b.tobytes()
    for name in ("feature_names", "lookback", "cell_variant", "column_set", "use_adj_close"):
        assert getattr(v2, name) == (tuple(doc[name]) if name == "feature_names" else doc[name])
    assert v2.train_config.hidden_sizes == tuple(doc["hidden_sizes"]) and v2.mode == doc["mode"]
    assert v2.contract == upgraded.contract and v2.contract.clip_scaled is False
    X = np.random.default_rng(20251).uniform(-1.0, 1.0, size=(16, 4, v2.num_features))
    assert v2.predict(X, len(X)).tobytes() == upgraded.predict(X, len(X)).tobytes()


@pytest.mark.parametrize("key, value, path", [
    ("column_set", "sideways", "$.column_set"),
    ("cell_variant", "peephole", "$.cell_variant"),
    ("lookback", 0, "$.lookback"),
    # a layer numpy refuses to allocate: the tool checks the arrays' shapes first
    ("hidden_sizes", [10**12, 2], "$.layers[0].w_fx"),
])
def test_v1_reader_makes_the_shared_checks(key, value, path):
    # the tool hands a v1 file to the package's reader, so it meets each check a v2 file does
    doc = v1_doc()
    assert (doc["format_version"], doc["mode"]) == (1, "multivariate")
    doc[key] = value
    if key == "hidden_sizes":  # and its copy, which the tool checks against it first
        doc["train_config"][key] = value
    with pytest.raises(CorruptModel) as err:
        upgrade_doc(doc)
    assert err.value.path == path


@pytest.mark.parametrize("key, value", [("hidden_sizes", [7]), ("seed", 99)])
def test_load_rejects_train_config_contradicting_its_copies(key, value):
    # v1 repeats hidden_sizes and the seed at the top level; the golden copies agree
    doc = v1_doc("golden_v1_model.json")
    assert (doc["hidden_sizes"], doc["rng_seed"]) == ([4, 3], 2024)
    doc["train_config"][key] = value
    with pytest.raises(CorruptModel) as err:
        upgrade_doc(doc)
    assert err.value.path == f"$.train_config.{key}"


@pytest.mark.parametrize("key, value", [("mode", "univariate"), ("mode", "sideways"),
                                        ("column_set", "univariate")])
def test_load_rejects_mode_contradicting_column_set(key, value):
    # v1 writes the mode its column set implies; the golden copy is multivariate throughout
    doc = v1_doc("golden_v1_model.json")
    assert (doc["mode"], doc["column_set"]) == ("multivariate", "paper_multivariate")
    doc[key] = value
    with pytest.raises(CorruptModel) as err:
        upgrade_doc(doc)
    assert err.value.path == "$.mode"


def test_load_rejects_bad_shape_and_nan():
    # v1's array checks; tests/test_lstm.py's test_v2_reader_rejects_each_bad_array has v2's
    doc = v1_doc()
    for bad in ([1.0, 2.0], [1.0, float("nan"), 0.5], [1.0, 10**400, 0.5]):  # 10**400: no float64
        doc["layers"][0]["b_f"] = bad
        with pytest.raises(CorruptModel) as err:
            upgrade_doc(doc)
        assert err.value.path == "$.layers[0].b_f"

    doc["layers"][0]["b_f"] = [1.0, 0.0, 0.5]
    for bad in (float("inf"), 10**400):
        doc["head"]["b"] = bad
        with pytest.raises(CorruptModel) as err:
            upgrade_doc(doc)
        assert err.value.path == "$.head.b"


def test_load_rejects_scaler_feature_mismatch():
    # v1 writes the scaler's columns apart from feature_names; v2 writes them once
    doc = v1_doc("golden_v1_model.json")
    doc["scaler"]["column_names"] = ["Adj"]
    with pytest.raises(CorruptModel) as err:
        upgrade_doc(doc)
    assert err.value.path == "$.scaler.column_names"


def test_evaluate_an_upgraded_file_takes_its_train_fraction(tmp_path, capsys):
    # a v1 file records no split; the fraction stated once to the tool is the one evaluate uses
    doc = v1_doc()
    rows = build_features(parse_csv(WALK_CSV, "STOCK"), upgrade_doc(doc).indicator_config,
                          doc["column_set"], doc["use_adj_close"]).rows
    for fraction in ("0.8", "0.9"):
        rc, model_path = run_tool(tmp_path, FIXTURES / "golden_v1_paper_model.json", fraction)
        assert rc == 0
        split_row = pipeline.split_row_for(rows, doc["lookback"], float(fraction))
        assert load_model(model_path).contract.split_row == split_row
        report_path = tmp_path / f"report{fraction}.json"
        rc = stockcast_main(["evaluate", "--input", str(tmp_path / "walk.csv"), "--model",
                             str(model_path), "--report-out", str(report_path)])
        assert rc == 0
        assert json.loads(report_path.read_text())["n"] == rows - split_row
    capsys.readouterr()


def test_upgrade_tool_exit_codes(tmp_path, capsys):
    v1_path = FIXTURES / "golden_v1_paper_model.json"
    cases = [
        (FIXTURES / "golden_v2_model.json", "0.8", 2,
         "error: format_version 2; this tool converts version 1\n"),
        (v1_path, "1.5", 64, "usage error: train_fraction must lie strictly between 0 and 1\n"),
        (v1_path, "x", 64, "usage error: train_fraction: "),
        (tmp_path / "absent.json", "0.8", 2, "error: [Errno 2] No such file or directory"),
    ]
    for model_path, fraction, code, prefix in cases:
        assert run_tool(tmp_path, model_path, fraction) == (code, None)
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(prefix) and err.count("\n") == 1, err
    with pytest.raises(SystemExit):  # --help exits 0 through argparse
        upgrade_model.main(["--help"])
    assert upgrade_model.main([str(v1_path)]) == 64
    assert "required: csv, --train-fraction, --out" in capsys.readouterr().err
