"""End-to-end CLI behavior: files written, stdout, and exit codes."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import stockcast
from stockcast.charts import render_line_chart
from stockcast.cli import main
from stockcast.config import FIELD_PARSERS, RunConfig, parse_config_text, resolve_config
from stockcast.evaluation import forecast_recursive
from stockcast.indicators import IndicatorConfig
from stockcast.lstm import TrainConfig, gate_view, load_model
from stockcast.market_data import parse_csv, serialize_csv

from conftest import SNAPSHOT_CSV, random_walk_series


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

def test_usage_errors(tmp_path, capsys):
    assert main([]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["fetch", "--out", str(tmp_path / "x.csv")]) == 64  # no dates
    assert main(["fetch", "--start", "2021-13-45", "--end", "2021-12-30",
                 "--out", str(tmp_path / "x.csv")]) == 64
    capsys.readouterr()


HELP_COMMANDS = ([], ["fetch"], ["indicators"], ["train"], ["evaluate"], ["forecast"],
                 ["backtest"], ["plot"])


def test_help_text_matches_fixture(monkeypatch, capsys):
    """Top-level and subcommand --help pages, at 80 columns, byte for byte.

    The fixture was written by Python 3.11's argparse; other minor versions
    may lay help out differently.
    """
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


# ---------------------------------------------------------------------- fetch

def test_fetch_writes_response_verbatim(data_server, tmp_path, capsys):
    out = tmp_path / "quotes.csv"
    endpoint = data_server + "/good?s={symbol}&a={start_epoch}&b={end_epoch}"
    rc = main(["fetch", "--symbol", "RELIANCE.NS", "--start", "2021-12-24",
               "--end", "2021-12-30", "--out", str(out), "--endpoint", endpoint])
    assert rc == 0
    assert out.read_text() == SNAPSHOT_CSV
    assert capsys.readouterr().out.strip() == "5"


def test_fetch_http_error_and_missing_out(data_server, tmp_path, capsys):
    endpoint = data_server + "/missing?s={symbol}&a={start_epoch}&b={end_epoch}"
    rc = main(["fetch", "--symbol", "X", "--start", "2021-01-01", "--end", "2021-01-31",
               "--out", str(tmp_path / "x.csv"), "--endpoint", endpoint])
    assert rc == 2
    rc = main(["fetch", "--symbol", "X", "--start", "2021-01-01", "--end", "2021-01-31",
               "--endpoint", endpoint])
    assert rc == 64
    capsys.readouterr()


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
    assert document["format_version"] == 1
    assert document["mode"] == "univariate"
    assert document["lookback"] == 12
    assert document["train_config"]["epochs"] == 3
    loaded = load_model(model_path)
    assert loaded.hidden_sizes == (8,)

    lines = history_path.read_text().splitlines()
    assert lines[0] == "epoch,train_mse,val_mse"
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    capsys.readouterr()


def test_train_is_byte_deterministic(tmp_path, capsys):
    data = write_walk(tmp_path)
    _, model_a, history_a = run_train(tmp_path, data, model_name="a.json", history_name="a.csv")
    _, model_b, history_b = run_train(tmp_path, data, model_name="b.json", history_name="b.csv")
    assert model_a.read_text() == model_b.read_text()
    assert history_a.read_text() == history_b.read_text()
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


def test_evaluate_unparseable_model_is_data_error(tmp_path, capsys):
    data = write_walk(tmp_path)
    model_path = tmp_path / "model.json"
    for payload in (b'{"mode": "caf\xe9"}', b"[" * 100000):  # not UTF-8; nested past recursion
        model_path.write_bytes(payload)
        rc = main(["evaluate", "--input", str(data), "--model", str(model_path),
                   "--report-out", str(tmp_path / "report.json")])
        assert rc == 2
        assert "corrupt model document at $:" in capsys.readouterr().err


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
    data, model_path = trained_setup(tmp_path)
    capsys.readouterr()
    doc = json.loads(model_path.read_text())
    doc["layers"][0]["b_f"] = [-1000.0] * len(doc["layers"][0]["b_f"])
    saturated = tmp_path / "saturated.json"
    saturated.write_text(json.dumps(doc))
    out = tmp_path / "forecast.csv"
    src = str(Path(stockcast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "from stockcast.cli import entrypoint; entrypoint()", "forecast",
         "--input", str(data), "--model", str(saturated), "--out", str(out), "--horizon", "4"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")

    # a forget bias of -inf gives the same exact 0 without overflowing exp
    model = load_model(saturated)
    gate_view(model.layers[0], "b_f")[...] = -np.inf
    result = forecast_recursive(model, parse_csv(data.read_text(), "X"), 4)
    lines = ["day_index,predicted_close"]
    lines += [f"{i},{v:.17g}" for i, v in enumerate(result.values, start=1)]
    assert out.read_text() == "\n".join(lines) + "\n"


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
    src = str(Path(stockcast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import stockcast.cli, sys; print('urllib.request' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "False"


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


# --------------------------------------------------------------------- config

def test_run_config_redeclares_every_sub_config_field():
    run_defaults = {f.name: f.default for f in fields(RunConfig)}
    for sub in (IndicatorConfig, TrainConfig):
        for f in fields(sub):
            assert f.name in run_defaults, f.name
            assert run_defaults[f.name] == f.default, f.name
    assert RunConfig().indicator_config() == IndicatorConfig()
    assert RunConfig().train_config() == TrainConfig()


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
        "endpoint = https://quotes.example/{symbol}.csv#frag\n"
        "lookback = 9   # note\n"
        "seed = 4\t# after a tab\n"
    )
    assert values == {
        "input": "runs/#3/data.csv",
        "endpoint": "https://quotes.example/{symbol}.csv#frag",
        "lookback": "9",
        "seed": "4",
    }
    cfg = resolve_config(values)
    assert (cfg.input, cfg.lookback, cfg.seed) == ("runs/#3/data.csv", 9, 4)
    assert cfg.endpoint.endswith("#frag")


def _as_config_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def test_every_config_key_reads_its_default_back():
    defaults = RunConfig()
    text = "".join(f"{f.name} = {_as_config_text(getattr(defaults, f.name))}\n"
                   for f in fields(RunConfig))
    assert resolve_config(parse_config_text(text)) == defaults


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
    assert json.loads(model_b.read_text())["rng_seed"] == 99
    capsys.readouterr()
