"""Acceptance checks for the whole toolkit, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
check has a wall-clock budget; blowing the budget is a failure too.
"""

import json
import math
import os
import time
from contextlib import contextmanager
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from stockcast.cli import main
from stockcast.config import resolve_config
from stockcast.dataset import make_windows
from stockcast.evaluation import evaluate_one_step, rmse_from_mse
from stockcast.indicators import (
    PAPER_MULTIVARIATE,
    UNIVARIATE,
    IndicatorConfig,
    ad,
    build_features,
    cci,
    cma,
    ema,
    macd,
    rsi,
    sma,
    stochastic_k,
    wma,
)
from stockcast.lstm import (
    forward_batch,
    load_model,
    model_param_items,
    save_model,
    train,
)
from stockcast.market_data import Bar, OhlcvSeries, parse_csv
from stockcast.pipeline import build_matrix, held_out_windows, split_row_for, train_from_series
from stockcast.scaling import fit, inverse_close, transform

from conftest import flat_series, random_walk_series
from test_dataset import fit_windows
from test_indicators import (
    close_nan,
    naive_ad,
    naive_cci,
    naive_cma,
    naive_d,
    naive_ema,
    naive_k,
    naive_rsi,
    naive_sma,
    naive_wma,
)
from test_lstm import tiny_model, windows_dataset
from test_scaling import column


@contextmanager
def criterion(name, budget_seconds):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget_seconds, f"took {elapsed:.1f}s, budget {budget_seconds}s"
    except BaseException:
        print(f"\n[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"\n[ACCEPTANCE] {name}: PASS ({elapsed:.1f}s)")


def test_published_rmse_pairs():
    with criterion("published-rmse-pairs", 1.0):
        assert abs(rmse_from_mse(234682.24) - 484.44013) <= 0.01
        assert abs(rmse_from_mse(18847.97) - 137.2879) <= 0.01


def test_bptt_gradient_oracle():
    with criterion("bptt-gradient-oracle", 10.0):
        for variant in ("standard", "as_printed"):
            model = tiny_model(num_features=3, lookback=5, hidden=(4,), seed=7,
                               variant=variant, mode="multivariate")
            rng = np.random.default_rng(40)
            X = rng.normal(scale=0.7, size=(2, 5, 3))
            d_pred = rng.normal(size=2)
            preds, caches = forward_batch(model, X)
            from stockcast.lstm import backward

            grads = backward(caches, d_pred)
            h = 1e-5
            for key, arr in model_param_items(model):
                flat = arr.ravel()
                grad_flat = grads[key].ravel()
                for idx in range(flat.size):
                    keep = flat[idx]
                    flat[idx] = keep + h
                    up, _ = forward_batch(model, X)
                    flat[idx] = keep - h
                    down, _ = forward_batch(model, X)
                    flat[idx] = keep
                    fd = float(np.dot(d_pred, up - down)) / (2.0 * h)
                    analytic = grad_flat[idx]
                    assert abs(analytic - fd) <= max(1e-4 * abs(fd), 1e-6), (
                        f"{variant} {key}[{idx}]: analytic {analytic}, fd {fd}"
                    )


def scale_bars(series, factor):
    bars = tuple(
        Bar(b.date, b.open * factor, b.high * factor, b.low * factor,
            b.close * factor, b.adj_close * factor, b.volume)
        for b in series.bars
    )
    return OhlcvSeries(series.symbol, bars)


def test_indicator_oracles_and_exact_invariances():
    with criterion("indicator-oracles-and-exact-invariances", 5.0):
        series = random_walk_series(1000, seed=77)
        closes = series.closes()
        xs = closes.tolist()
        close_nan(sma(closes, 10), naive_sma(xs, 10))
        close_nan(sma(closes, 50), naive_sma(xs, 50))
        close_nan(sma(closes, 200), naive_sma(xs, 200))
        close_nan(cma(closes), naive_cma(xs))
        close_nan(wma(closes, 10), naive_wma(xs, 10))
        close_nan(ema(closes, 0.1), naive_ema(xs, 0.1))
        close_nan(rsi(closes, 14)[0], naive_rsi(xs, 14))
        close_nan(cci(series, 20), naive_cci(series, 20), rtol=1e-6)
        close_nan(ad(series), naive_ad(series))
        k = stochastic_k(series, 14)
        close_nan(k, naive_k(series, 14))
        close_nan(sma(k, 10), naive_d(naive_k(series, 14), 10))
        diff, signal, hist = macd(closes)
        close_nan(diff, np.subtract(naive_ema(xs, 2.0 / 13.0), naive_ema(xs, 2.0 / 27.0)))
        close_nan(signal, naive_ema(diff.tolist(), 0.2))
        assert np.array_equal(hist, diff - signal)

        for bounded in (rsi(closes, 14)[0], k, sma(k, 10)):
            finite = bounded[~np.isnan(bounded)]
            assert ((finite >= 0.0) & (finite <= 100.0)).all()

        # 100 constructed cases where invariances hold bit-for-bit:
        # power-of-two scale factors commute exactly with every rounding
        # step of the homogeneous ops, and small-integer series keep all
        # shift arithmetic inside the 53-bit mantissa budget.
        rng = np.random.default_rng(20260816)
        for case in range(100):
            length = int(rng.integers(8, 41))
            x_int = rng.integers(1, 4096, size=length).astype(np.float64)
            c = float(rng.integers(1, 4096))
            for n in (2, 4, 8):
                assert np.array_equal(sma(x_int + c, n), sma(x_int, n) + c, equal_nan=True)
            assert np.array_equal(ema(x_int + c, 0.5), ema(x_int, 0.5) + c)

            factor = 2.0 ** int(rng.integers(-8, 9))
            walk = random_walk_series(60, seed=int(rng.integers(0, 2**31)))
            scaled = scale_bars(walk, factor)
            assert np.array_equal(
                rsi(scaled.closes(), 14)[0], rsi(walk.closes(), 14)[0], equal_nan=True
            )
            assert np.array_equal(
                stochastic_k(scaled, 14), stochastic_k(walk, 14), equal_nan=True
            )
            assert np.array_equal(cci(scaled, 20), cci(walk, 20), equal_nan=True)


def test_scaler_round_trip():
    with criterion("scaler-round-trip", 1.0):
        rng = np.random.default_rng(5150)
        values = rng.uniform(3.0, 9000.0, size=10_000)
        matrix = build_features(flat_series(values), IndicatorConfig(), UNIVARIATE)
        train_rows = 8000
        params = fit(matrix.row_slice(0, train_rows))
        scaled = column(transform(params, matrix), "Close")

        train_scaled = scaled[:train_rows]
        assert (train_scaled >= -1.0).all() and (train_scaled <= 1.0).all()
        assert train_scaled.min() == -1.0
        assert train_scaled.max() == 1.0

        back = inverse_close(params, scaled)
        assert np.allclose(back, values, rtol=1e-9, atol=0.0)


def test_sine_wave_learning():
    with criterion("sine-wave-learning", 180.0):
        closes = [100.0 + 10.0 * math.sin(2.0 * math.pi * t / 50.0) for t in range(1000)]
        cfg = resolve_config({}, {
            "mode": "univariate", "lookback": "30", "epochs": "150",
            "hidden_sizes": "32", "seed": "42",
        })
        series = flat_series(closes)
        model, fit_history = train_from_series(series, cfg)
        history = fit_history["train_mse"]
        assert len(history) == 150
        assert history[-1] < 0.1 * history[0]
        matrix = build_matrix(series, cfg)
        split_row = split_row_for(matrix.rows, cfg.lookback, cfg.train_fraction)
        assert model.contract.split_row == split_row
        report, _ = evaluate_one_step(model, matrix)
        assert report.mape < 5.0, f"test MAPE {report.mape}"


def test_cli_pipeline_parity(tmp_path):
    # same-machine pin: two train-and-forecast runs in one process
    with criterion("cli-pipeline-parity", 600.0):
        series = random_walk_series(1530, seed=42)
        data = tmp_path / "walk.csv"
        from stockcast.market_data import serialize_csv

        data.write_text(serialize_csv(series))
        closes = series.closes()
        lo, hi = closes.min(), closes.max()

        outputs = []
        for run in ("one", "two"):
            run_dir = tmp_path / run
            run_dir.mkdir()
            model_path = run_dir / "model.json"
            history_path = run_dir / "history.csv"
            forecast_path = run_dir / "forecast.csv"
            assert main([
                "train", "--input", str(data), "--model-out", str(model_path),
                "--history-out", str(history_path), "--mode", "multivariate",
                "--column-set", "paper_multivariate", "--lookback", "60",
                "--epochs", "40", "--hidden-sizes", "50,50", "--seed", "42",
            ]) == 0
            assert main([
                "forecast", "--input", str(data), "--model", str(model_path),
                "--out", str(forecast_path), "--horizon", "30",
            ]) == 0
            outputs.append(tuple(
                p.read_text() for p in (model_path, history_path, forecast_path)
            ))

        assert outputs[0] == outputs[1], "reruns with one seed must match byte for byte"

        model_doc = json.loads(outputs[0][0])
        assert len(model_doc["feature_names"]) == 13

        rows = outputs[0][2].splitlines()[1:]
        assert len(rows) == 30
        values = [float(row.split(",")[1]) for row in rows]
        assert all(math.isfinite(v) for v in values)
        assert all(lo / 3.0 <= v <= 3.0 * hi for v in values)


def test_dataset_hygiene():
    with criterion("dataset-hygiene", 1.0):
        series = random_walk_series(400, seed=21)
        matrix = build_features(series, IndicatorConfig(sma_periods=(5, 10, 20)),
                                PAPER_MULTIVARIATE)
        lookback = 15
        ds = make_windows(matrix, lookback)
        close_idx = matrix.column_names.index("Close")
        for s in range(len(ds)):
            assert np.array_equal(ds.inputs[s], matrix.values[s : s + lookback])
            assert ds.targets[s] == matrix.values[s + lookback, close_idx]
            assert ds.dates[s] == matrix.dates[s + lookback]
        split_row = split_row_for(matrix.rows, lookback, 0.8)
        train_part, model = fit_windows(matrix, split_row, lookback)
        test_part = held_out_windows(matrix, model)
        assert len(train_part) == int(0.8 * len(ds))
        assert len(train_part) + len(test_part) == len(ds)
        assert train_part.dates[-1] < test_part.dates[0]
        assert train_part.dates + test_part.dates == ds.dates


def test_model_round_trip_predictions(tmp_path):
    with criterion("model-round-trip-predictions", 5.0):
        rng = np.random.default_rng(61)
        inputs = rng.uniform(-1.0, 1.0, size=(120, 6, 1))
        targets = inputs[:, -1, 0].copy()
        ds = windows_dataset(inputs, targets)
        trained, _ = train(tiny_model(lookback=6, hidden=(5,), seed=3, epochs=2, batch_size=16),
                           ds)
        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        probes = rng.uniform(-1.0, 1.0, size=(100, 6, 1))
        diff = np.abs(loaded.predict(probes, len(probes)) - trained.predict(probes, len(probes)))
        assert float(diff.max()) <= 1e-12


EXPECTED_EXTREMA = {
    "RELIANCE.NS": (334.875702, 2731.850098),
    "INFY.NS": (265.475006, 1892.849976),
}


def test_reference_dataset_extrema():
    name = "reference-dataset-extrema"
    data_dir = Path(os.environ.get("STOCKCAST_DATA_DIR", Path(__file__).parent.parent / "data"))
    missing = [s for s in EXPECTED_EXTREMA if not (data_dir / f"{s}.csv").exists()]
    if missing:
        print(f"\n[ACCEPTANCE] {name}: SKIP (no local history for {', '.join(missing)})")
        pytest.skip(f"reference CSVs not present under {data_dir}")
    with criterion(name, 30.0):
        for symbol, (lo, hi) in EXPECTED_EXTREMA.items():
            series = parse_csv((data_dir / f"{symbol}.csv").read_text(), symbol)
            in_window = np.array([date(2012, 4, 1) <= day <= date(2022, 3, 31) for day in series.dates()])
            closes = series.closes()[in_window]
            assert abs(float(closes.min()) - lo) <= 0.01, symbol
            assert abs(float(closes.max()) - hi) <= 0.01, symbol
