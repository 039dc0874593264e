"""End-to-end CLI behavior: files written, stdout, and exit codes."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import stockcast
from stockcast import dataset, pipeline
from stockcast.charts import render_line_chart
from stockcast.cli import SeriesFileError, _read_series_csv, main
from stockcast.config import (FIELD_PARSERS, ConfigError, RunConfig, StockcastError,
                              parse_config_text, resolve_config)
from stockcast.evaluation import evaluate_one_step, forecast_recursive
from stockcast.indicators import IndicatorConfig
from stockcast.lstm import TrainConfig, gate_view, load_model, save_model
from stockcast.market_data import parse_csv, serialize_csv
from stockcast.scaling import ScalerParams

from conftest import SNAPSHOT_CSV, random_walk_series


CLI = "from stockcast.cli import entrypoint; entrypoint()"
FIXTURES = Path(__file__).parent / "fixtures"
UPGRADE_TOOL = Path(__file__).parents[1] / "tools" / "upgrade_model.py"


def run_python(*argv, env=(), **kwargs):
    """Run ``python *argv`` in a fresh process that imports this checkout's stockcast;
    env adds variables to this process's environment."""
    src = str(Path(stockcast.__file__).resolve().parents[1])
    env = {**os.environ, **dict(env),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=60, **kwargs)


def write_walk(tmp_path, n=300, seed=7, name="walk.csv"):
    path = tmp_path / name
    path.write_text(serialize_csv(random_walk_series(n, seed=seed)))
    return path


def run_train(tmp_path, data, extra=(), model_name="model.json", history_name="history.csv"):
    model = tmp_path / model_name
    history = tmp_path / history_name
    rc = main([
        "train", "--input", str(data), "--model-out", str(model),
        "--history-out", str(history), "--mode", "univariate",
        "--lookback", "12", "--epochs", "3", "--hidden-sizes", "8",
        "--batch-size", "32", "--seed", "5", *extra,
    ])
    return rc, model, history


# ----------------------------------------------------------------- exit codes

def test_usage_errors(capsys):
    assert main([]) == 64
    assert main(["frobnicate"]) == 64
    capsys.readouterr()
    assert main(["fetch", "--symbol", "X"]) == 64  # the download command is gone
    assert "invalid choice: 'fetch'" in capsys.readouterr().err


HELP_COMMANDS = ([], ["indicators"], ["train"], ["evaluate"], ["forecast"], ["backtest"],
                 ["plot"])


def test_help_text_matches_fixture(monkeypatch, capsys):
    """Top-level and subcommand --help pages, at 80 columns, byte for byte.

    The fixture was written by Python 3.11's argparse; other minor versions
    may lay help out differently.
    """
    # fixture pin: argparse's text, no arithmetic, so it holds under the blas-kernels matrix
    monkeypatch.setenv("COLUMNS", "80")
    pages = []
    for command in HELP_COMMANDS:
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--help"])
        assert exit_info.value.code == 0
        pages.append(capsys.readouterr().out)
    expected = (Path(__file__).parent / "fixtures" / "cli_help.txt").read_text()
    assert "".join(pages) == expected


def test_missing_input_file_is_data_error(tmp_path, capsys):
    rc, _, _ = run_train(tmp_path, tmp_path / "absent.csv")
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A directory of inputs for the exit-code table: broken files, and a trained model."""
    d = tmp_path_factory.mktemp("bad_inputs")
    header = "Date,Open,High,Low,Close,Adj Close,Volume\n"
    texts = {
        "header.csv": "Date,Open,High,Low,Close\n",
        "short_row.csv": header + "2021-01-04,1.0,2.0\n",
        "no_rows.csv": header,
        "same_day.csv": header + "2021-01-04,1.0,2.0,0.5,1.5,1.5,10\n" * 2,
        "low_above_high.csv": header + "2021-01-04,1.0,2.0,3.0,1.5,1.5,10\n",
        "ragged.csv": "a,b\n1.0,2.0\n3.0\n",
        "nan.csv": "v\n1.0\nnan\n",
        "two.csv": "v\n1.0\n2.0\n",
        "three.csv": "v\n1.0\n2.0\n3.0\n",
        "truncated.json": "{",
        "nul.cfg": "input = walk\0.csv\n",
        "v3.json": '{"format_version": 3}',
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    (d / "latin1.csv").write_bytes(header.encode() + b"2021-01-04,caf\xe9\n")
    (d / "v1.json").write_bytes((FIXTURES / "golden_v1_paper_model.json").read_bytes())
    walk = write_walk(d)
    (d / "short.csv").write_text("".join(walk.read_text().splitlines(keepends=True)[:101]))
    rc, model_path, _ = run_train(d, walk)
    assert rc == 0
    model = load_model(model_path)
    model.scaler = ScalerParams(("Close",), np.array([0.0]), np.array([5e-324]))
    save_model(model, d / "overflowing.json")  # scales every close past float64's range
    return d


# Each documented bad input: its command, exit code and the start of its one stderr line.
EXIT_CODE_TABLE = {
    "MalformedHeader": (["indicators", "--input", "header.csv"], 2, "error: expected header"),
    "MalformedRow": (["indicators", "--input", "short_row.csv"], 2, "error: line 2: expected 7"),
    "EmptySeries": (["indicators", "--input", "no_rows.csv"], 2, "error: no data rows"),
    "NonAscendingDates": (["indicators", "--input", "same_day.csv"], 2,
                          "error: dates not strictly ascending at 2021-01-04"),
    "InvariantViolation": (["indicators", "--input", "low_above_high.csv"], 2,
                           "error: 2021-01-04: low: "),
    "SeriesTooShort": (["indicators", "--input", "short.csv", "--column-set", "table4_all"], 2,
                       "error: need at least 200 bars, have 100"),
    "TooFewRows": (["train", "--input", "walk.csv", "--lookback", "400"], 2,
                   "error: need at least 401 rows, have 300"),
    "SplitMismatch": (["evaluate", "--input", "short.csv", "--model", "model.json"], 2,
                      "error: the model's split_row is "),
    "CorruptModel": (["evaluate", "--input", "walk.csv", "--model", "truncated.json"], 2,
                     "error: corrupt model document at $: invalid JSON: "),
    "UnsupportedVersion": (["evaluate", "--input", "walk.csv", "--model", "v3.json"], 2,
                           "error: format_version 3, supported: 2\n"),
    "UnsupportedVersion, v1": (["forecast", "--input", "walk.csv", "--model", "v1.json"], 2,
                               "error: format_version 1, supported: 2; tools/upgrade_model.py "
                               "converts version 1\n"),
    "LstmError": (["train", "--input", "walk.csv", "--hidden-sizes", "1000000000000"], 2,
                  "error: cannot allocate a layer of input size 1, hidden size 1000000000000"),
    "SeriesFileError": (["plot", "--series", "ragged.csv"], 2, "error: ragged.csv: line 3: ragged"),
    "ChartError, non-finite": (["plot", "--series", "nan.csv"], 2,
                               "error: series 'nan' contains a non-finite value"),
    "ChartError, ragged merge": (["plot", "--series", "two.csv", "--series", "three.csv"], 2,
                                 "error: ragged series lengths [2, 3]; cannot merge"),
    "missing file": (["indicators", "--input", "absent.csv"], 2,
                     "error: [Errno 2] No such file or directory: 'absent.csv'"),
    "missing directory": (["plot", "--series", "two.csv", "--out", "absent/chart.svg"], 2,
                          "error: [Errno 2] No such file or directory: 'absent/chart.svg'"),
    "non-UTF-8 file": (["indicators", "--input", "latin1.csv"], 2,
                       "error: 'utf-8' codec can't decode byte 0xe9"),
    "ConfigError": (["train", "--input", "walk.csv", "--lookback", "0"], 64,
                    "usage error: lookback must be >= 1"),
    "ConfigError, argparse": (["train", "--lookback", "x"], 64,
                              "usage error: argument --lookback: invalid int value: 'x'"),
    "ConfigError, NUL": (["indicators", "--config", "nul.cfg"], 64,
                         "usage error: line 1: NUL character"),
    "ConfigError, infinite": (["train", "--input", "walk.csv", "--gradient-clip-norm", "inf"], 64,
                              "usage error: gradient_clip_norm must be positive and finite"),
    "EvalError, horizon": (["forecast", "--input", "walk.csv", "--model", "model.json",
                            "--horizon", "1000000000000000000"], 2, "error: cannot allocate "),
    "NonFiniteInput": (["forecast", "--input", "walk.csv", "--model", "overflowing.json"], 3,
                       "numerical error: windows contain non-finite values"),
}
_DEFAULT_OUTS = {"indicators": ["--out", "out.csv"], "evaluate": ["--report-out", "report.json"],
                 "forecast": ["--out", "forecast.csv"], "plot": ["--merge-out", "merged.csv"],
                 "train": ["--model-out", "m.json", "--history-out", "h.csv"]}


@pytest.mark.parametrize("case", EXIT_CODE_TABLE)
def test_each_bad_input_exits_with_its_code(bad_inputs, monkeypatch, capsys, case):
    argv, code, prefix = EXIT_CODE_TABLE[case]
    if "--out" not in argv:
        argv = [*argv, *_DEFAULT_OUTS[argv[0]]]
    monkeypatch.chdir(bad_inputs)
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(prefix) and err.count("\n") == 1, err


def test_a_value_error_from_a_handler_is_a_bug_not_bad_data(tmp_path, monkeypatch):
    # only StockcastError and file errors become exit codes; anything else is a traceback
    def broken(series, cfg):
        raise ValueError("cannot reshape array")

    monkeypatch.setattr(pipeline, "build_matrix", broken)
    with pytest.raises(ValueError, match="^cannot reshape array$"):
        main(["indicators", "--input", str(write_walk(tmp_path)), "--out", str(tmp_path / "f.csv")])
    assert not (tmp_path / "f.csv").exists()


# ----------------------------------------------------------------- indicators

def test_indicators_univariate(tmp_path, capsys):
    data = tmp_path / "five.csv"
    data.write_text(SNAPSHOT_CSV)
    out = tmp_path / "features.csv"
    rc = main(["indicators", "--input", str(data), "--out", str(out),
               "--column-set", "univariate"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0"
    lines = out.read_text().splitlines()
    assert lines[0] == "Date,Close"
    assert len(lines) == 6


def test_indicators_multivariate_warmup(tmp_path, capsys):
    data = write_walk(tmp_path, n=2464, seed=9)
    out = tmp_path / "features.csv"
    rc = main(["indicators", "--input", str(data), "--out", str(out),
               "--column-set", "paper_multivariate"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "199"
    lines = out.read_text().splitlines()
    assert len(lines) == 2266
    assert lines[0].startswith("Date,Close,CMA,SMA10,SMA50,SMA200,EMA_0.1,RSI,K%,D%,CCI,macd")


def test_indicators_too_short_is_data_error(tmp_path, capsys):
    data = write_walk(tmp_path, n=100, seed=3)
    rc = main(["indicators", "--input", str(data), "--out", str(tmp_path / "f.csv"),
               "--column-set", "paper_multivariate"])
    assert rc == 2
    capsys.readouterr()


# ---------------------------------------------------------------------- train

def test_train_writes_model_and_history(tmp_path, capsys):
    data = write_walk(tmp_path)
    rc, model_path, history_path = run_train(tmp_path, data)
    assert rc == 0

    document = json.loads(model_path.read_text())
    assert document["format_version"] == 2
    assert document["column_set"] == "univariate"
    assert document["lookback"] == 12
    assert document["train_config"]["epochs"] == 3
    # 300 rows at lookback 12 and train fraction 0.8: rows [0, 242) train
    dates = parse_csv(data.read_text(), "STOCK").dates()
    contract = document["contract"]
    assert (contract["split_row"], contract["clip_scaled"]) == (242, False)
    assert contract["train_first_date"] == dates[0].isoformat()
    assert contract["train_last_date"] == dates[241].isoformat()
    assert contract["first_test_date"] == dates[242].isoformat()
    loaded = load_model(model_path)
    assert loaded.hidden_sizes == (8,)

    lines = history_path.read_text().splitlines()
    assert lines[0] == "epoch,train_mse,val_mse"
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    capsys.readouterr()


def test_train_is_byte_deterministic(tmp_path, capsys):
    # same-machine pin: two trains in one process
    data = write_walk(tmp_path)
    _, model_a, history_a = run_train(tmp_path, data, model_name="a.json", history_name="a.csv")
    _, model_b, history_b = run_train(tmp_path, data, model_name="b.json", history_name="b.csv")
    assert model_a.read_text() == model_b.read_text()
    assert history_a.read_text() == history_b.read_text()
    capsys.readouterr()


def test_train_clip_scaled_changes_only_the_contract(tmp_path, capsys):
    # a scaler maps its own training rows into [-1, 1]; --clip-scaled acts on held-out inputs only
    # same-machine pin: two trains in one process
    data = write_walk(tmp_path)
    _, model_a, history_a = run_train(tmp_path, data, model_name="a.json", history_name="a.csv")
    _, model_b, history_b = run_train(tmp_path, data, ["--clip-scaled"], "b.json", "b.csv")
    assert history_a.read_bytes() == history_b.read_bytes()
    doc_a, doc_b = (json.loads(path.read_text()) for path in (model_a, model_b))
    assert (doc_a["contract"]["clip_scaled"], doc_b["contract"]["clip_scaled"]) == (False, True)
    doc_b["contract"]["clip_scaled"] = False
    assert doc_a == doc_b
    capsys.readouterr()


# ------------------------------------------------------------------- evaluate

def trained_setup(tmp_path):
    data = write_walk(tmp_path)
    rc, model_path, _ = run_train(tmp_path, data)
    assert rc == 0
    return data, model_path


def test_evaluate_report_and_predictions(tmp_path, capsys):
    data, model_path = trained_setup(tmp_path)
    report_path = tmp_path / "report.json"
    predictions_path = tmp_path / "predictions.csv"
    rc = main(["evaluate", "--input", str(data), "--model", str(model_path),
               "--report-out", str(report_path),
               "--predictions-out", str(predictions_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"mape", "mae", "mse", "rmse", "n", "mode", "symbol", "epochs"}
    assert report["mode"] == "univariate"
    assert report["symbol"] == "STOCK"
    assert report["epochs"] == 3
    assert report["n"] > 0
    assert report["rmse"] == pytest.approx(report["mse"] ** 0.5, rel=1e-12)

    lines = predictions_path.read_text().splitlines()
    assert lines[0] == "date,actual,predicted"
    assert len(lines) == report["n"] + 1
    first = lines[1].split(",")
    assert len(first) == 3 and first[0].count("-") == 2
    capsys.readouterr()


def test_evaluate_windows_only_the_held_out_rows(tmp_path, capsys, monkeypatch):
    data, model_path = trained_setup(tmp_path)
    windowed = []
    make_windows = dataset.make_windows

    def spy(matrix, lookback):
        windowed.append(matrix)
        return make_windows(matrix, lookback)

    monkeypatch.setattr(dataset, "make_windows", spy)
    report_path = tmp_path / "report.json"
    rc = main(["evaluate", "--input", str(data), "--model", str(model_path),
               "--report-out", str(report_path)])
    assert rc == 0
    # 300 rows at lookback 12 and train fraction 0.8: targets from row 12 + int(0.8 * 288) = 242
    (matrix,) = windowed
    dates = parse_csv(data.read_text(), "STOCK").dates()
    assert matrix.dates == dates[242 - 12 :]
    assert json.loads(report_path.read_text())["n"] == 300 - 242
    capsys.readouterr()


def test_evaluate_takes_the_split_and_clip_from_the_model_file(tmp_path, capsys):
    # the CSV of the benchmarks' ohlcv_csv(700, 5): 640 windows at lookback 60, of which
    # --train-fraction 0.9 trains on 576; an evaluate that rebuilt the split from its own
    # default 0.8 scored 128 windows, 64 of them training windows
    data = write_walk(tmp_path, n=700, seed=5)
    model_path = tmp_path / "model.json"
    rc = main(["train", "--input", str(data), "--model-out", str(model_path),
               "--history-out", str(tmp_path / "history.csv"), "--mode", "univariate",
               "--epochs", "2", "--batch-size", "7", "--train-fraction", "0.9", "--clip-scaled"])
    assert rc == 0
    report_path, predictions_path = tmp_path / "report.json", tmp_path / "predictions.csv"
    rc = main(["evaluate", "--input", str(data), "--model", str(model_path),
               "--report-out", str(report_path), "--predictions-out", str(predictions_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["n"] == 64
    model = load_model(model_path)
    assert (model.contract.split_row, model.contract.clip_scaled) == (636, True)
    assert predictions_path.read_text().splitlines()[1].startswith(model.contract.first_test_date)

    # the same windows, clipped as training asked, through the library
    series = parse_csv(data.read_text(), "STOCK")
    matrix = pipeline.build_matrix(series, resolve_config({}, {"mode": "univariate"}))
    # the walk climbs past its training maximum
    assert pipeline.held_out_windows(matrix, model).inputs.max() == 1.0
    expected, _ = evaluate_one_step(model, matrix)
    assert report["mape"] == expected.mape

    # the split is the file's alone, so evaluate has no flag that could state another
    rc = main(["evaluate", "--input", str(data), "--model", str(model_path),
               "--report-out", str(report_path), "--train-fraction", "0.9"])
    assert rc == 64
    assert "unrecognized arguments: --train-fraction 0.9" in capsys.readouterr().err


def test_evaluate_refuses_a_csv_whose_training_span_differs(tmp_path, capsys):
    data, model_path = trained_setup(tmp_path)
    capsys.readouterr()
    lines = data.read_text().splitlines()
    bar = lines[101].split(",")
    bar[1:6] = [repr(float(v) * 1.01) for v in bar[1:6]]  # one training bar's prices
    cases = {
        "split_row": lines[:242],
        "train_first_date": [lines[0], *lines[2:]],
        "train_sha256": [*lines[:101], ",".join(bar), *lines[102:]],
    }
    for field, edited in cases.items():
        edited_csv = tmp_path / f"{field}.csv"
        edited_csv.write_text("\n".join(edited) + "\n")
        rc = main(["evaluate", "--input", str(edited_csv), "--model", str(model_path),
                   "--report-out", str(tmp_path / "report.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: the model's {field} is ")
    assert not (tmp_path / "report.json").exists()

    # rows appended since training are more test windows, not a different training span
    last_day, prices = date.fromisoformat(lines[-1][:10]), lines[-1][10:]
    longer = tmp_path / "longer.csv"
    longer.write_text("\n".join([*lines, *[(last_day + timedelta(days=k)).isoformat() + prices
                                           for k in range(1, 21)]]) + "\n")
    rc = main(["evaluate", "--input", str(longer), "--model", str(model_path),
               "--report-out", str(tmp_path / "report.json")])
    assert rc == 0
    assert json.loads((tmp_path / "report.json").read_text())["n"] == 320 - 242
    capsys.readouterr()


def test_evaluate_unparseable_model_is_data_error(tmp_path, capsys):
    data = write_walk(tmp_path)
    model_path = tmp_path / "model.json"
    for payload in (b'{"mode": "caf\xe9"}', b"[" * 100000):  # not UTF-8; nested past recursion
        model_path.write_bytes(payload)
        rc = main(["evaluate", "--input", str(data), "--model", str(model_path),
                   "--report-out", str(tmp_path / "report.json")])
        assert rc == 2
        assert "corrupt model document at $:" in capsys.readouterr().err


def test_evaluate_v1_model_with_unknown_column_set_is_data_error(tmp_path, capsys):
    data = write_walk(tmp_path)
    doc = json.loads((FIXTURES / "golden_v1_paper_model.json").read_text())
    doc["column_set"] = "sideways"  # its mode, multivariate, is what any set but univariate implies
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    rc = main(["evaluate", "--input", str(data), "--model", str(model_path),
               "--report-out", str(tmp_path / "report.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: format_version 1, supported: 2; ")
    assert not (tmp_path / "report.json").exists()
    # the conversion tool reads version 1, and refuses the column set as the package would
    upgraded = tmp_path / "upgraded.json"
    done = run_python(str(UPGRADE_TOOL), str(model_path), str(data), "--train-fraction", "0.8",
                      "--out", str(upgraded))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("error: corrupt model document at $.column_set: "
                           "unknown column set 'sideways'\n")
    assert not upgraded.exists()


# ------------------------------------------------------------------- forecast

def test_forecast_output_and_trend(tmp_path, capsys):
    data, model_path = trained_setup(tmp_path)
    out = tmp_path / "forecast.csv"
    rc = main(["forecast", "--input", str(data), "--model", str(model_path),
               "--out", str(out), "--horizon", "6"])
    assert rc == 0
    assert capsys.readouterr().out.strip() in {"up", "down", "flat"}
    lines = out.read_text().splitlines()
    assert lines[0] == "day_index,predicted_close"
    assert len(lines) == 7
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3", "4", "5", "6"]
    assert all(float(row.split(",")[1]) > 0.0 for row in lines[1:])


def test_forecast_with_saturated_forget_gate_keeps_stderr_empty(tmp_path, capsys):
    # b_f = -1000 puts exp(-z) past float64's range; the sigmoid is still exactly 0
    # same-machine pin: a forecast in a child process against one in this process
    data, model_path = trained_setup(tmp_path)
    capsys.readouterr()
    model = load_model(model_path)
    gate_view(model.layers[0], "b_f")[...] = -1000.0
    saturated = tmp_path / "saturated.json"
    save_model(model, saturated)
    out = tmp_path / "forecast.csv"
    done = run_python("-c", CLI, "forecast", "--input", str(data), "--model", str(saturated),
                      "--out", str(out), "--horizon", "4")
    assert (done.returncode, done.stderr) == (0, "")

    # a forget bias of -inf gives the same exact 0 without overflowing exp
    model = load_model(saturated)
    gate_view(model.layers[0], "b_f")[...] = -np.inf
    result = forecast_recursive(model, parse_csv(data.read_text(), "X"), 4)
    lines = ["day_index,predicted_close"]
    lines += [f"{i},{v:.17g}" for i, v in enumerate(result.values, start=1)]
    assert out.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("clip_scaled", [False, True])
def test_forecast_overflowing_price_prints_one_typed_line(tmp_path, capsys, clip_scaled):
    # a head bias of 1e308 unscales past float64's range on the first day; with --clip-scaled
    # the fed-back row would clip to 1.0, so the price itself must be checked
    data, model_path = trained_setup(tmp_path)
    capsys.readouterr()
    model = load_model(model_path)
    model.head_b[...] = 1e308
    model.contract = replace(model.contract, clip_scaled=clip_scaled)
    overflowing = tmp_path / "overflowing.json"
    save_model(model, overflowing)
    out = tmp_path / "forecast.csv"
    for horizon in ("1", "3"):
        done = run_python("-c", CLI, "forecast", "--input", str(data), "--model", str(overflowing),
                          "--out", str(out), "--horizon", horizon)
        assert (done.returncode, done.stdout, done.stderr) == (
            3, "", "numerical error: forecast day 1: the predicted close is inf\n")
        assert not out.exists()


def test_forecast_overflowing_scaler_prints_one_typed_line(tmp_path, capsys):
    # a Close span of one subnormal scales every close past float64's range
    data, model_path = trained_setup(tmp_path)
    capsys.readouterr()
    model = load_model(model_path)
    model.scaler = ScalerParams(("Close",), np.array([0.0]), np.array([5e-324]))
    overflowing = tmp_path / "overflowing.json"
    save_model(model, overflowing)
    out = tmp_path / "forecast.csv"
    done = run_python("-c", CLI, "forecast", "--input", str(data), "--model", str(overflowing),
                      "--out", str(out), "--horizon", "4")
    assert (done.returncode, done.stderr) == (
        3, "numerical error: windows contain non-finite values\n")
    assert not out.exists()


# ------------------------------------------------------------------- backtest

def test_backtest_writes_fold_reports(tmp_path, capsys):
    data = write_walk(tmp_path, n=200, seed=11)
    out_dir = tmp_path / "folds"
    rc = main(["backtest", "--input", str(data), "--out-dir", str(out_dir),
               "--mode", "univariate", "--lookback", "8", "--epochs", "2",
               "--hidden-sizes", "4", "--folds", "2", "--seed", "13"])
    assert rc == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["fold_01.json", "fold_02.json"]
    first = json.loads((out_dir / "fold_01.json").read_text())
    assert set(first) == {"fold", "mape", "mae", "mse", "rmse", "n"}
    assert first["fold"] == 1
    out = capsys.readouterr().out
    assert "fold 1:" in out and "fold 2:" in out


# ----------------------------------------------------------------------- plot

def test_plot_svg_and_merge(tmp_path, capsys):
    # same-machine pin: two renders in one process
    data, model_path = trained_setup(tmp_path)
    forecast_csv = tmp_path / "forecast.csv"
    main(["forecast", "--input", str(data), "--model", str(model_path),
          "--out", str(forecast_csv), "--horizon", "5"])
    other = tmp_path / "other.csv"
    other.write_text("step,value\n1,10.0\n2,12.5\n3,11.0\n4,14.0\n5,13.0\n")

    svg = tmp_path / "chart.svg"
    merged = tmp_path / "merged.csv"
    argv = ["plot", "--series", f"model={forecast_csv}:predicted_close",
            "--series", f"other={other}", "--out", str(svg),
            "--merge-out", str(merged), "--title", "five day view"]
    assert main(argv) == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert "five day view" in svg.read_text()
    first_render = svg.read_text()
    assert main(argv) == 0
    assert svg.read_text() == first_render

    lines = merged.read_text().splitlines()
    assert lines[0] == "index,model,other"
    assert len(lines) == 6
    capsys.readouterr()


def test_chart_escapes_title_and_labels():
    svg = render_line_chart([("a&b <c> \"d\" 'e'", [1.0, 2.0])], title="T&<>\"'")
    assert ">T&amp;&lt;&gt;\"'</text>" in svg
    assert ">a&amp;b &lt;c&gt; \"d\" 'e'</text>" in svg


def test_cli_import_skips_url_machinery():
    code = "import stockcast.cli, sys; print('urllib.request' in sys.modules)"
    done = run_python("-c", code, check=True)
    assert done.stdout.strip() == "False"


def test_no_module_imports_network_machinery():
    imports = set()  # (module file, top-level package), function-level imports included
    for path in Path(stockcast.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imports.add((path.name, node.module.split(".")[0]))
    assert ("lstm.py", "numpy") in imports
    assert {(name, top) for name, top in imports if top in ("urllib", "http", "socket")} == set()


def test_plot_single_point_and_errors(tmp_path, capsys):
    single = tmp_path / "single.csv"
    single.write_text("value\n3.5\n")
    svg = tmp_path / "single.svg"
    assert main(["plot", "--series", f"s={single}", "--out", str(svg)]) == 0
    assert "circle" in svg.read_text()

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1.0,2.0\n3.0\n")
    assert main(["plot", "--series", f"r={ragged}", "--out", str(svg)]) == 2

    assert main(["plot", "--series", f"x={single}:absent", "--out", str(svg)]) == 2
    assert main(["plot", "--out", str(svg)]) == 64
    assert main(["plot", "--series", f"s={single}"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("text, column, message", [
    ("", None, "{path}: empty file"),
    ("a,b\n1.0,2.0\n", "c", "{path}: no column named 'c'"),
    ("a,b\n1.0,2.0\n3.0\n", None, "{path}: line 3: ragged row"),
    ("a,b\n1.0,2.0\n3.0,x\n", None, "{path}: line 3: non-numeric value 'x'"),
    ("a,b\n", "a", "{path}: no data rows"),
])
def test_plot_csv_errors_are_typed_value_errors_with_exit_2(tmp_path, capsys, text, column, message):
    path = tmp_path / "series.csv"
    path.write_text(text)
    message = message.format(path=path)
    with pytest.raises(SeriesFileError, match="^" + re.escape(message) + "$") as err:
        _read_series_csv(str(path), column)
    # typed as a StockcastError alone: no handler may catch it as a ValueError
    assert isinstance(err.value, StockcastError) and not isinstance(err.value, ValueError)
    spec = f"s={path}" + (f":{column}" if column else "")
    assert main(["plot", "--series", spec, "--out", str(tmp_path / "chart.svg")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


NUMPY_FREE_PROBE = """import sys
from stockcast.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(rc, sorted({"numpy", "stockcast.lstm"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"], ["plot"], ["plot", "ragged"]])
def test_help_and_plot_start_without_numpy(tmp_path, argv):
    # a plot that fails sorts its error into an exit code without numpy too
    rc = 2 if argv == ["plot", "ragged"] else 0
    if argv[0] == "plot":
        series = tmp_path / "series.csv"
        series.write_text("day,close\n1,10.5\n2,11.0\n3,10.75\n" + "4\n" * (rc == 2))
        argv = ["plot", "--series", f"close={series}", "--out", str(tmp_path / "chart.svg"),
                "--merge-out", str(tmp_path / "merged.csv")]
    done = run_python("-c", NUMPY_FREE_PROBE, *argv, cwd=tmp_path, check=True)
    assert done.stdout.splitlines()[-1] == f"{rc} []"


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    # C locale, without Python's coercion to C.UTF-8 or its UTF-8 mode: argv and the
    # locale encoding are ASCII, and "café" reaches the program as surrogate escapes
    env = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    (tmp_path / "series.csv").write_text("day,close\n1,10.5\n2,11.0\n")
    # a path from the config file opens as its UTF-8 bytes, and one from argv as given
    (tmp_path / "run.cfg").write_bytes("symbol = café\nout = café.svg\n".encode())
    done = run_python("-c", CLI, "plot", "--config", "run.cfg", "--series", "series.csv",
                      "--title", "café", "--merge-out", "naïve.csv", cwd=tmp_path, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    svg = (tmp_path / "café.svg").read_bytes()
    assert ">café</text>".encode() in svg
    svg.decode("utf-8")
    assert (tmp_path / "naïve.csv").read_bytes().decode("utf-8").startswith("index,")


def test_public_names_resolve_to_their_modules_objects():
    modules = [importlib.import_module(f"stockcast.{info.name}")
               for info in pkgutil.iter_modules(stockcast.__path__)]
    for name in stockcast.__all__:
        obj = getattr(stockcast, name)
        holders = [module for module in modules if name in vars(module)]
        assert holders or name == "__version__", name
        assert all(vars(module)[name] is obj for module in holders), name
    from stockcast import config, indicators

    assert stockcast.IndicatorConfig is indicators.IndicatorConfig is config.IndicatorConfig
    with pytest.raises(AttributeError, match="no_such_name"):
        stockcast.no_such_name


# --------------------------------------------------------------------- config

def test_run_config_redeclares_every_sub_config_field():
    run_defaults = {f.name: f.default for f in fields(RunConfig)}
    for sub in (IndicatorConfig, TrainConfig):
        for f in fields(sub):
            assert f.name in run_defaults, f.name
            assert run_defaults[f.name] == f.default, f.name
    assert RunConfig().indicator_config() == IndicatorConfig()
    assert RunConfig().train_config() == TrainConfig()


@pytest.mark.parametrize("build, message", [
    (lambda: RunConfig(folds=1), "folds must be >= 2"),
    (lambda: RunConfig(mode="bogus"),
     "mode must be one of ('univariate', 'multivariate'), got 'bogus'"),
    (lambda: replace(RunConfig(), cell_variant="x"),
     "cell_variant must be one of ('standard', 'as_printed')"),
], ids=["direct folds", "direct mode", "replace"])
def test_a_run_config_checks_itself_however_built(build, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


def test_config_file_with_flag_override(tmp_path, capsys):
    data = write_walk(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(
        "# training setup\n"
        "symbol=INFY.NS\n"
        "mode=univariate\n"
        "lookback=7\n"
        "epochs=2\n"
        "hidden_sizes=4\n"
        "seed=3\n"
    )
    model_path = tmp_path / "model.json"
    history_path = tmp_path / "history.csv"
    rc = main(["train", "--config", str(config), "--input", str(data),
               "--model-out", str(model_path), "--history-out", str(history_path),
               "--lookback", "9"])
    assert rc == 0
    document = json.loads(model_path.read_text())
    assert document["lookback"] == 9  # flag beats file
    assert document["train_config"]["epochs"] == 2  # file beats default

    report_path = tmp_path / "report.json"
    rc = main(["evaluate", "--config", str(config), "--input", str(data),
               "--model", str(model_path), "--report-out", str(report_path)])
    assert rc == 0
    assert json.loads(report_path.read_text())["symbol"] == "INFY.NS"
    capsys.readouterr()


def test_config_file_rejections(tmp_path, capsys):
    data = write_walk(tmp_path, n=60)
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("lookbck=9\n")
    rc = main(["indicators", "--config", str(bad_key), "--input", str(data),
               "--out", str(tmp_path / "f.csv"), "--column-set", "univariate"])
    assert rc == 64

    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("lookback=banana\n")
    rc = main(["indicators", "--config", str(bad_value), "--input", str(data),
               "--out", str(tmp_path / "f.csv"), "--column-set", "univariate"])
    assert rc == 64

    duplicate = tmp_path / "duplicate.cfg"
    duplicate.write_text("lookback=9\nlookback=10\n")
    rc = main(["indicators", "--config", str(duplicate), "--input", str(data),
               "--out", str(tmp_path / "f.csv"), "--column-set", "univariate"])
    assert rc == 64
    capsys.readouterr()


@pytest.mark.parametrize("line", ["endpoint = https://quotes.example/{symbol}.csv",
                                  "timeout = 30.0"])
def test_removed_download_keys_are_unknown(tmp_path, capsys, line):
    data = write_walk(tmp_path, n=60)
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    rc = main(["indicators", "--config", str(config), "--input", str(data),
               "--out", str(tmp_path / "f.csv"), "--column-set", "univariate"])
    assert rc == 64
    key = line.split(" =")[0]
    assert capsys.readouterr().err == f"usage error: unknown config keys: {key}\n"
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("key", ["macd_fast", "macd_signal"])
def test_macd_period_of_one_is_config_error(tmp_path, capsys, key):
    # an EMA of period 1 has alpha 1, which no indicator accepts; the key is named, not alpha
    data = write_walk(tmp_path, n=60)
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = 1\n")
    rc = main(["indicators", "--config", str(config), "--input", str(data),
               "--out", str(tmp_path / "f.csv"), "--column-set", "paper_multivariate"])
    assert rc == 64
    assert capsys.readouterr().err == f"usage error: {key} must be >= 2\n"
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("hidden_sizes", "50,,50"), ("hidden_sizes", "50,"), ("sma_periods", ",10,50"),
])
def test_empty_list_item_is_config_error(tmp_path, capsys, key, value):
    data = write_walk(tmp_path, n=60)
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    outputs = ["--model-out", str(tmp_path / "m.json"), "--history-out", str(tmp_path / "h.csv")]
    error = f"usage error: {key}: expected a comma-separated list of integers\n"
    assert main(["train", "--config", str(config), "--input", str(data), *outputs]) == 64
    assert capsys.readouterr().err == error
    if key == "hidden_sizes":
        assert main(["train", "--hidden-sizes", value, "--input", str(data), *outputs]) == 64
        assert capsys.readouterr().err == error
    assert not (tmp_path / "m.json").exists()


def test_hash_starts_a_comment_only_at_line_start_or_after_whitespace():
    values = parse_config_text(
        "# a whole-line comment\n"
        "   # an indented one\n"
        "input = runs/#3/data.csv\n"
        "model = runs/m.json#frag\n"
        "lookback = 9   # note\n"
        "seed = 4\t# after a tab\n"
    )
    assert values == {
        "input": "runs/#3/data.csv",
        "model": "runs/m.json#frag",
        "lookback": "9",
        "seed": "4",
    }
    cfg = resolve_config(values)
    assert (cfg.input, cfg.lookback, cfg.seed) == ("runs/#3/data.csv", 9, 4)
    assert cfg.model.endswith("#frag")


def _as_config_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def test_every_config_key_reads_its_default_back():
    defaults = RunConfig()
    text = "".join(f"{f.name} = {_as_config_text(getattr(defaults, f.name))}\n"
                   for f in fields(RunConfig))
    assert resolve_config(parse_config_text(text)) == defaults


def test_only_a_non_empty_column_set_implies_its_mode():
    assert resolve_config(parse_config_text("column_set =\n")) == RunConfig()
    cfg = resolve_config(parse_config_text("column_set = table4_all\n"))
    assert (cfg.mode, cfg.effective_column_set()) == ("multivariate", "table4_all")


def test_readme_config_reference_lists_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("```ini\n# Every key, set to its default") + len("```ini\n")
    block = readme[start:readme.index("```", start)]
    values = parse_config_text(block)
    assert sorted(values) == sorted(f.name for f in fields(RunConfig))
    defaults = RunConfig()
    for key, text in values.items():
        assert FIELD_PARSERS[key](text) == getattr(defaults, key), key
    assert resolve_config(values) == defaults


def test_global_seed_flag_changes_model(tmp_path, capsys):
    data = write_walk(tmp_path)
    _, model_a, _ = run_train(tmp_path, data, model_name="a.json", history_name="ha.csv")
    rc, model_b, _ = run_train(
        tmp_path, data, extra=["--seed", "99"], model_name="b.json", history_name="hb.csv"
    )
    assert rc == 0
    assert model_a.read_text() != model_b.read_text()
    assert json.loads(model_b.read_text())["train_config"]["seed"] == 99
    capsys.readouterr()
