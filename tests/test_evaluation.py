"""Metrics, one-step evaluation, recursive forecasts, walk-forward backtest."""

import importlib
import itertools
import math
import pickle
import pkgutil
import tracemalloc
import warnings
from datetime import date, timedelta
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import stockcast
from stockcast import lstm, pipeline, scaling
from stockcast.config import ConfigError, RunConfig, StockcastError, resolve_config
from stockcast.dataset import DegenerateSplit, SplitMismatch, TooFewRows, make_windows
from stockcast.evaluation import (
    EvalError,
    LengthMismatch,
    MetricsReport,
    ZeroActual,
    compute_metrics,
    evaluate_one_step,
    forecast_recursive,
    rmse_from_mse,
    walk_forward,
)
from stockcast.indicators import COLUMN_SETS, PAPER_MULTIVARIATE, UNIVARIATE, IndicatorConfig, SeriesTooShort, build_features, column_names_for
from stockcast.lstm import CorruptModel, NonFiniteLoss, new_model
from stockcast.market_data import (
    InvariantViolation,
    MalformedRow,
    NonAscendingDates,
    OhlcvSeries,
)
from stockcast.pipeline import (
    held_out_windows,
    split_contract,
    split_row_for,
    train_from_series,
)
from stockcast.scaling import ScalerParams, fit, inverse_close, transform

from conftest import flat_series, random_walk_series
from test_lstm import CONTRACT
from test_scaling import matrix_of


class RowStream:
    """The stream interface over read(row): every column's output is read(row)."""

    def __init__(self, width, read):
        self.width, self.read = width, read

    def start(self, col):
        assert 0 <= col < self.width

    def push(self, row):
        return np.full(self.width, self.read(np.asarray(row)))


class PersistenceModel:
    """Duck-typed stand-in: predicts the last seen scaled close."""

    column_set = UNIVARIATE
    use_adj_close = False
    indicator_config = IndicatorConfig()
    contract = CONTRACT  # persistence_model records a real split; a forecast reads clip_scaled

    def __init__(self, feature_names, lookback, scaler):
        self.feature_names = tuple(feature_names)
        self.lookback = lookback
        self.scaler = scaler
        self._close = self.feature_names.index("Close")

    def predict(self, windows, chunk=128):
        return np.asarray(windows, dtype=np.float64)[:, -1, self._close]

    def stream(self, width):
        return RowStream(width, lambda row: row[self._close])  # each window's last row


class ScriptedModel(PersistenceModel):
    """Returns a fixed sequence of scaled predictions, one per window."""

    def __init__(self, feature_names, lookback, scaler, outputs):
        super().__init__(feature_names, lookback, scaler)
        self.outputs = list(outputs)

    def stream(self, width):
        pushed = itertools.count(1)  # a window is complete from the lookback-th row on
        return RowStream(width, lambda row: self.outputs.pop(0) if next(pushed) >= self.lookback
                         else np.nan)


# -------------------------------------------------------------------- metrics

def test_metrics_hand_case():
    report = compute_metrics([100.0, 200.0], [90.0, 220.0])
    assert report.mape == pytest.approx(10.0, abs=1e-12)
    assert report.mae == pytest.approx(15.0, abs=1e-12)
    assert report.mse == pytest.approx(250.0, abs=1e-12)
    assert report.rmse == pytest.approx(math.sqrt(250.0), abs=1e-12)
    assert report.n == 2


def test_metrics_identity_is_zero():
    values = [3.5, 7.25, 11.0]
    report = compute_metrics(values, values)
    assert (report.mape, report.mae, report.mse, report.rmse) == (0.0, 0.0, 0.0, 0.0)


def test_metrics_errors():
    with pytest.raises(LengthMismatch):
        compute_metrics([1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatch):
        compute_metrics([], [])
    with pytest.raises(ZeroActual) as err:
        compute_metrics([1.0, 0.0, 2.0], [1.0, 1.0, 2.0])
    assert err.value.index == 1
    # errors past float64's range make no report, which would have to hold inf
    for predict in ([1e308, -1e308], [2.0, np.inf], [2.0, np.nan]):
        with pytest.raises(EvalError, match="^non-finite error metrics"):
            compute_metrics([1.0, 2.0], predict)
    with pytest.raises(EvalError):
        compute_metrics([5e-324, 2.0], [1.0, 2.0])  # an absolute percentage error of 2e325


def test_rmse_from_mse_published_pairs():
    assert abs(rmse_from_mse(234682.24) - 484.44013) <= 0.01
    assert abs(rmse_from_mse(18847.97) - 137.2879) <= 0.01


finite_prices = st.floats(min_value=0.5, max_value=10_000.0, allow_nan=False)


@given(st.lists(st.tuples(finite_prices, finite_prices), min_size=1, max_size=40))
def test_metrics_properties(pairs):
    real = [r for r, _ in pairs]
    pred = [p for _, p in pairs]
    report = compute_metrics(real, pred)
    assert report.mae <= report.rmse + 1e-12
    assert report.rmse == pytest.approx(math.sqrt(report.mse), rel=1e-12)
    flipped = compute_metrics([-r for r in real], [-p for p in pred])
    assert flipped == report


# ----------------------------------------------------------- one-step evaluate

def persistence_setup(n=120, lookback=10, seed=6):
    series = random_walk_series(n, seed=seed)
    matrix = build_features(series, IndicatorConfig(), UNIVARIATE)
    split_row = split_row_for(matrix.rows, lookback, 0.8)
    model = persistence_model(matrix, lookback, split_row)
    return series, model.scaler, matrix, model


def persistence_model(matrix, lookback, split_row, clip_scaled=False):
    """A PersistenceModel fitted on rows [0, split_row) of matrix that records that split."""
    model = PersistenceModel(("Close",), lookback, fit(matrix.row_slice(0, split_row)))
    model.contract = split_contract(matrix, split_row, clip_scaled)
    return model


def test_persistence_evaluation_matches_direct_baseline():
    series, scaler, matrix, model = persistence_setup()
    report, rows = evaluate_one_step(model, matrix)

    closes = series.closes()
    n_samples = len(series) - model.lookback
    first_test = int(0.8 * n_samples)
    target_rows = np.arange(first_test + model.lookback, len(series))
    actual = closes[target_rows]
    predicted = closes[target_rows - 1]
    direct = compute_metrics(actual, predicted)

    assert report.n == direct.n == len(held_out_windows(matrix, model))
    assert report.mape == pytest.approx(direct.mape, rel=1e-9)
    assert report.mae == pytest.approx(direct.mae, rel=1e-9)
    assert report.rmse == pytest.approx(direct.rmse, rel=1e-9)
    for (day, act, pred), row_idx in zip(rows, target_rows):
        assert day == series.dates()[row_idx]
        assert act == pytest.approx(closes[row_idx], rel=1e-12)
        assert pred == pytest.approx(closes[row_idx - 1], rel=1e-12)


def test_constant_series_scores_exact_zero():
    matrix = build_features(flat_series([42.0] * 30), IndicatorConfig(), UNIVARIATE)
    model = persistence_model(matrix, 5, split_row_for(matrix.rows, 5, 0.8))
    report, _ = evaluate_one_step(model, matrix)
    assert report == MetricsReport(0.0, 0.0, 0.0, 0.0, report.n)


def test_evaluate_one_step_memory_peak_at_paper_scale():
    # the 255 held-out windows take 1.6 MB; predict adds one WindowStream at a time, one step
    # per layer, a (input + hidden + 1, chunk) slab and its gates, c and tanh(c), whatever the
    # lookback, so evaluate peaks near 2.4 MB here; the bound catches a second stream alive at
    # once, and a return to training's all-step buffers, which peak near 11 MB at chunk 128
    names = column_names_for(IndicatorConfig(), PAPER_MULTIVARIATE)
    scaler = ScalerParams(column_names=names, mins=np.zeros(13), maxs=np.ones(13))
    matrix = matrix_of(np.random.default_rng(255).uniform(0.0, 1.0, size=(315, 13)), names)
    model = new_model(RunConfig(mode="multivariate", lookback=60, hidden_sizes=(50, 50)), scaler,
                      split_contract(matrix, 60, False))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report, _ = evaluate_one_step(model, matrix)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.n == 255
    assert peak < 3e6, peak


# ------------------------------------------------------------------ forecasts

def test_persistence_forecast_is_constant_and_flat():
    series, scaler, _, model = persistence_setup()
    result = forecast_recursive(model, series, 30)
    assert result.horizon == 30
    assert len(result.values) == 30
    last_close = float(series.closes()[-1])
    assert all(v == pytest.approx(last_close, rel=1e-9) for v in result.values)
    assert result.trend == "flat"


def test_scripted_trends():
    series, scaler, _, _ = persistence_setup()

    def scripted(prices):
        lo, hi = float(scaler.mins[0]), float(scaler.maxs[0])
        outputs = [2.0 * (p - lo) / (hi - lo) - 1.0 for p in prices]
        return ScriptedModel(("Close",), 10, scaler, outputs)

    up = forecast_recursive(scripted([100.0, 101.0, 102.0]), series, 3)
    assert up.trend == "up"
    assert up.values == pytest.approx([100.0, 101.0, 102.0], rel=1e-9)
    down = forecast_recursive(scripted([100.0, 99.5, 98.0]), series, 3)
    assert down.trend == "down"
    flat = forecast_recursive(scripted([100.0, 100.2, 100.05]), series, 3)
    assert flat.trend == "flat"


def test_forecast_horizon_validation_and_short_series():
    series, scaler, _, model = persistence_setup()
    with pytest.raises(ValueError):
        forecast_recursive(model, series, 0)
    with pytest.raises(EvalError, match="-day forecast$"):  # numpy refuses it before allocating
        forecast_recursive(model, series, 10**18)
    short = random_walk_series(6, seed=2)
    with pytest.raises(SeriesTooShort):
        forecast_recursive(model, short, 3)


def test_forecast_too_short_counts_bars_plus_warmup():
    # lookback 60 over paper_multivariate: the 200-bar SMA drops 199 warmup rows
    names = column_names_for(IndicatorConfig(), PAPER_MULTIVARIATE)
    ones = np.ones(len(names))
    model = PersistenceModel(names, 60, ScalerParams(names, -ones, ones))
    model.column_set = PAPER_MULTIVARIATE
    for bars in (150, 250, 258):
        with pytest.raises(SeriesTooShort) as err:
            forecast_recursive(model, random_walk_series(bars, seed=4), 1)
        assert (err.value.needed, err.value.have) == (259, bars)
    result = forecast_recursive(model, random_walk_series(259, seed=4), 2)
    assert len(result.values) == 2 and all(math.isfinite(v) for v in result.values)


def trained_univariate(n=140, lookback=8, epochs=2, seed=19):
    series = random_walk_series(n, seed=seed)
    cfg = resolve_config({}, {
        "mode": "univariate", "lookback": lookback, "epochs": epochs,
        "hidden_sizes": "6", "seed": seed,
    })
    model, _ = train_from_series(series, cfg)
    return series, model


def test_forecast_horizon_one_equals_direct_predict():
    series, model = trained_univariate()
    forecast = forecast_recursive(model, series, 1)

    matrix = build_features(series, model.indicator_config, UNIVARIATE)
    scaled = transform(model.scaler, matrix)
    window = scaled.values[-model.lookback :, :]
    direct = float(inverse_close(model.scaler, model.predict(window[None], 1)[0]))
    assert forecast.values[0] == direct


def chunk_predict(model, window, k, horizon):
    """The exact oracle for forecast day k: window k alone, as column k % W of a W-wide
    chunk of zeros, W = min(lookback, horizon), predicted W windows per pass."""
    width = min(model.lookback, horizon)
    chunk = np.zeros((width, *window.shape))
    chunk[k % width] = window
    return float(inverse_close(model.scaler, model.predict(chunk, width)[k % width]))


def sliding_window_forecast(model, series, horizon):
    """Reference univariate recursion: slide a window of scaled closes and
    append each prediction, forward-scaled with the Close column's bounds."""
    matrix = build_features(series, model.indicator_config, UNIVARIATE, model.use_adj_close)
    window = transform(model.scaler, matrix).values[-model.lookback :, :].copy()
    lo, hi = float(model.scaler.mins[0]), float(model.scaler.maxs[0])
    out = []
    for k in range(horizon):
        price = chunk_predict(model, window, k, horizon)
        out.append(price)
        next_scaled = 2.0 * (price - lo) / (hi - lo) - 1.0 if hi > lo else 0.0
        window = np.vstack([window[1:], [[next_scaled]]])
    return out


@pytest.mark.parametrize("use_adj_close", [False, True])
def test_univariate_forecast_matches_sliding_window_reference(use_adj_close):
    walk = random_walk_series(140, seed=19)
    # an adjusted close that drifts away from the close, as after dividends
    series = OhlcvSeries(walk.symbol, tuple(
        replace(b, adj_close=b.close * (0.8 + 0.001 * i)) for i, b in enumerate(walk.bars)
    ))
    cfg = resolve_config({}, {
        "mode": "univariate", "lookback": 8, "epochs": 2, "hidden_sizes": "6", "seed": 19,
        "use_adj_close": str(use_adj_close).lower(),
    })
    model, _ = train_from_series(series, cfg)
    assert model.use_adj_close is use_adj_close
    dates, block = series.dates(), series.block.copy()
    forecast = forecast_recursive(model, series, 12)
    assert list(forecast.values) == sliding_window_forecast(model, series, 12)
    assert series.dates() == dates and np.array_equal(series.block, block)


def test_forecast_prefix_is_stable():
    series, model = trained_univariate()
    short = forecast_recursive(model, series, 3)
    long = forecast_recursive(model, series, 9)
    assert long.values[:3] == short.values
    assert all(math.isfinite(v) for v in long.values)


def full_rebuild_forecast(model, series, horizon):
    """Reference recursion: rebuild every feature over the extended series at
    each step, and scale the whole matrix again."""
    n = len(series)
    block = np.empty((6, n + horizon))
    block[:, :n] = series.block
    dates = list(series.dates())
    values = []
    for k in range(horizon):
        extended = OhlcvSeries.from_columns(series.symbol, tuple(dates), block[:, : n + k])
        matrix = build_features(extended, model.indicator_config, model.column_set,
                                model.use_adj_close)
        window = transform(model.scaler, matrix).values[-model.lookback :, :]
        price = chunk_predict(model, window, k, horizon)
        values.append(price)
        block[:5, n + k] = price
        block[5, n + k] = block[5, n + k - 1]
        dates.append(dates[-1] + timedelta(days=1))
    return values


@pytest.mark.parametrize("use_adj_close", [False, True])
@pytest.mark.parametrize("column_set", COLUMN_SETS)
def test_forecast_equals_full_rebuild_reference(column_set, use_adj_close):
    walk = random_walk_series(300, seed=31)
    series = OhlcvSeries(walk.symbol, tuple(
        replace(b, adj_close=b.close * (0.8 + 0.001 * i)) for i, b in enumerate(walk.bars)
    ))
    cfg = resolve_config({}, {
        "column_set": column_set, "lookback": 6, "epochs": 1, "hidden_sizes": "4",
        "seed": 31, "use_adj_close": str(use_adj_close).lower(),
    })
    model, _ = train_from_series(series, cfg)
    forecast = forecast_recursive(model, series, 25)
    assert list(forecast.values) == full_rebuild_forecast(model, series, 25)


@pytest.mark.parametrize("cell_variant, lookback, horizon", [
    ("standard", 4, 13),  # horizon > lookback: each column takes a new window every 4 days
    ("as_printed", 5, 17),
    ("as_printed", 9, 6),  # horizon < lookback: one column per day
    ("as_printed", 3, 1),
])
def test_forecast_equals_chunk_oracle(cell_variant, lookback, horizon):
    series = random_walk_series(300, seed=37)
    cfg = resolve_config({}, {
        "column_set": PAPER_MULTIVARIATE, "lookback": lookback, "epochs": 1,
        "hidden_sizes": "5,3", "seed": 37, "cell_variant": cell_variant,
    })
    model, _ = train_from_series(series, cfg)
    assert model.cell_variant == cell_variant
    forecast = forecast_recursive(model, series, horizon)
    assert list(forecast.values) == full_rebuild_forecast(model, series, horizon)


def test_forecast_refuses_a_non_finite_row():
    series, model = trained_univariate()
    # a Close span of one subnormal scales every close past float64's range
    model.scaler = ScalerParams(("Close",), np.zeros(1), np.full(1, 5e-324))
    with pytest.raises(lstm.NonFiniteInput):
        forecast_recursive(model, series, 5)


def test_multivariate_forecast_rebuilds_features():
    icfg = IndicatorConfig(sma_periods=(5, 10, 20))
    names = column_names_for(icfg, PAPER_MULTIVARIATE)
    series = random_walk_series(90, seed=23)
    matrix = build_features(series, icfg, PAPER_MULTIVARIATE)
    scaler = fit(matrix)

    class ConstantModel(PersistenceModel):
        column_set = PAPER_MULTIVARIATE
        indicator_config = icfg

        def stream(self, width):
            def read(row):
                assert row.shape == (len(names),)
                return 0.25

            return RowStream(width, read)

    model = ConstantModel(names, 12, scaler)
    result = forecast_recursive(model, series, 4)
    expected = float(inverse_close(scaler, 0.25))
    assert result.values == tuple([expected] * 4)
    assert result.trend == "flat"


def test_single_path_keeps_test_rows_out_of_training():
    # every row sets a new high, so a scaler that saw any test row would show it
    series = flat_series([100.0 + 0.5 * i for i in range(140)])
    cfg = resolve_config({}, {
        "mode": "univariate", "lookback": 8, "epochs": 1, "hidden_sizes": "4",
        "train_fraction": "0.9", "clip_scaled": "true",
    })
    trained = []
    train = lstm.train

    def capture(model_init, train_ds):
        trained.append(train_ds)
        return train(model_init, train_ds)

    with mock.patch.object(lstm, "train", capture):
        model, _ = train_from_series(series, cfg)
    (train_ds,) = trained
    matrix = pipeline.build_matrix(series, cfg)
    split_row = split_row_for(matrix.rows, cfg.lookback, cfg.train_fraction)
    assert model.contract == split_contract(matrix, split_row, cfg.clip_scaled)
    test_ds = held_out_windows(matrix, model)
    assert test_ds.dates[0] == matrix.dates[split_row]
    assert all(day < test_ds.dates[0] for day in train_ds.dates)
    assert np.array_equal(model.scaler.mins, matrix.values[:split_row].min(axis=0))
    assert np.array_equal(model.scaler.maxs, matrix.values[:split_row].max(axis=0))
    assert test_ds.inputs.max() == 1.0  # inputs clipped at the training maximum
    assert np.all(test_ds.targets > 1.0)  # targets not: each is a new high

    train_end, test_end = 60, 100
    truncated = matrix.row_slice(0, test_end)
    fold_model = persistence_model(truncated, cfg.lookback, train_end, clip_scaled=True)
    test_ds = held_out_windows(truncated, fold_model)
    assert test_ds.dates == matrix.dates[train_end:test_end]


def test_clipped_held_out_scoring_reports_true_closes():
    # the held-out closes climb past the training maximum; clipping must bound
    # what the model reads, not the prices it is scored against
    series = flat_series([100.0 + 0.5 * i for i in range(200)])
    matrix = build_features(series, IndicatorConfig(), UNIVARIATE)
    model = persistence_model(matrix, 8, split_row_for(matrix.rows, 8, 0.8), clip_scaled=True)
    assert held_out_windows(matrix, model).inputs.max() == 1.0
    _, rows = evaluate_one_step(model, matrix)
    closes = dict(zip(series.dates(), series.closes().tolist()))
    assert len(rows) == 39 and rows[-1][1] == pytest.approx(199.5, rel=1e-12)
    for day, actual, _ in rows:
        assert actual == pytest.approx(closes[day], rel=1e-12)


def test_forecast_clips_model_inputs_only_when_asked():
    # the closes climb past the training maximum, so every unclipped row scales above 1
    series = flat_series([100.0 + 0.5 * i for i in range(60)])
    matrix = build_features(series, IndicatorConfig(), UNIVARIATE)
    model = persistence_model(matrix, 8, 40)  # predicts the last scaled close it reads
    assert forecast_recursive(model, series, 3).values == (129.5,) * 3
    model.contract = replace(model.contract, clip_scaled=True)
    assert forecast_recursive(model, series, 3).values == (119.5,) * 3


@pytest.mark.parametrize("horizon", [1, 3])
@pytest.mark.parametrize("clip_scaled", [False, True])
def test_forecast_refuses_a_price_that_overflows(horizon, clip_scaled):
    # unscaling a head output near 1e308 overflows float64; clipping the fed-back row to 1.0
    # must not hide it, and the last day, which is never fed back, is checked too
    series, model = trained_univariate()
    model.head_b[...] = 1e308
    model.contract = replace(model.contract, clip_scaled=clip_scaled)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(lstm.NonFiniteInput) as err:
            forecast_recursive(model, series, horizon)
    assert str(err.value) == "forecast day 1: the predicted close is inf"


def test_held_out_windows_names_the_first_field_that_differs():
    series = random_walk_series(160, seed=4)
    matrix = build_features(series, IndicatorConfig(), UNIVARIATE)
    model = persistence_model(matrix, 10, 100, clip_scaled=True)
    contract = model.contract
    assert (contract.split_row, contract.clip_scaled) == (100, True)
    assert contract.train_last_date == matrix.dates[99].isoformat()
    assert contract.first_test_date == matrix.dates[100].isoformat()
    assert held_out_windows(matrix, model).dates == matrix.dates[100:]
    assert held_out_windows(matrix.row_slice(0, 101), model).dates == (matrix.dates[100],)
    moved = replace(matrix, values=matrix.values.copy())
    moved.values[99, 0] += 1e-9

    def redated(row):
        return replace(matrix, dates=(*matrix.dates[:row], date(2030, 1, 1),
                                      *matrix.dates[row + 1:]))

    # clip_scaled is read from the contract, not found in the matrix, so no matrix differs in it
    cases = {
        "split_row": matrix.row_slice(0, 100),
        "train_first_date": matrix.row_slice(1, 160),
        "train_last_date": redated(99),
        "train_sha256": moved,
        "first_test_date": redated(100),
    }
    for field, other in cases.items():
        with pytest.raises(SplitMismatch) as err:
            held_out_windows(other, model)
        assert err.value.field == field
        assert err.value.recorded == getattr(contract, field)
    # a recorded split that leaves the first window short is refused only once the contract holds
    model.lookback = 101
    with pytest.raises(SplitMismatch, match="split_row"):
        held_out_windows(matrix.row_slice(0, 100), model)
    with pytest.raises(DegenerateSplit, match="split row 100 needs 101 rows before it"):
        held_out_windows(matrix, model)


def spy_on_the_split(monkeypatch):
    """Record, per fit_rows call, the last date that scaling.fit and
    scaling.transform receive inside it, and per held_out_windows call the
    first target date it returns."""
    fitted, held_out = [], []
    real = {"fit_rows": pipeline.fit_rows, "held_out_windows": pipeline.held_out_windows,
            "fit": scaling.fit, "transform": scaling.transform}
    inside = []

    def spy_fit_rows(*args, **kwargs):
        fitted.append([])
        inside.append(True)
        try:
            return real["fit_rows"](*args, **kwargs)
        finally:
            inside.pop()

    def spy_fit(matrix):
        fitted[-1].append(matrix.dates[-1])
        return real["fit"](matrix)

    def spy_transform(params, matrix):
        if inside:
            fitted[-1].append(matrix.dates[-1])
        return real["transform"](params, matrix)

    def spy_held_out(*args, **kwargs):
        ds = real["held_out_windows"](*args, **kwargs)
        held_out.append(ds.dates[0])
        return ds

    monkeypatch.setattr(pipeline, "fit_rows", spy_fit_rows)
    monkeypatch.setattr(pipeline, "held_out_windows", spy_held_out)
    monkeypatch.setattr(scaling, "fit", spy_fit)
    monkeypatch.setattr(scaling, "transform", spy_transform)
    return fitted, held_out


def test_fit_path_sees_no_held_out_row(monkeypatch):
    fitted, held_out = spy_on_the_split(monkeypatch)
    series = random_walk_series(120, seed=14)
    cfg = walk_cfg()
    train_from_series(series, cfg)
    matrix = pipeline.build_matrix(series, cfg)
    first_targets = [matrix.dates[split_row_for(matrix.rows, cfg.lookback, cfg.train_fraction)]]
    walk_forward(series, cfg)
    first_targets += held_out
    assert len(fitted) == len(first_targets) == 3  # train, then two folds
    for dates, first_target in zip(fitted, first_targets):
        assert len(dates) == 2  # one fit and one transform
        assert max(dates) < first_target


# ---------------------------------------------------------------- walk-forward

def walk_cfg(**over):
    base = {
        "mode": "univariate", "lookback": 5, "epochs": 2, "hidden_sizes": "4",
        "batch_size": 16, "seed": 31, "folds": 2,
    }
    base.update(over)
    return resolve_config({}, {k: str(v) for k, v in base.items()})


def test_every_walk_forward_fold_model_records_its_contract(monkeypatch):
    series = random_walk_series(120, seed=14)
    cfg = walk_cfg(clip_scaled="true", folds=3)
    fold_models = []
    real = pipeline.fit_rows

    def capture(*args, **kwargs):
        model, history = real(*args, **kwargs)
        fold_models.append(model)
        return model, history

    monkeypatch.setattr(pipeline, "fit_rows", capture)
    walk_forward(series, cfg)
    matrix = pipeline.build_matrix(series, cfg)
    assert len(fold_models) == 3
    for j, model in enumerate(fold_models, start=1):
        split_row = matrix.rows * j // (3 + 1)
        contract = model.contract
        assert contract.split_row == split_row
        assert contract.first_test_date == matrix.dates[split_row].isoformat()
        assert contract.clip_scaled is cfg.clip_scaled is True
        assert contract == split_contract(matrix, split_row, True)


def test_walk_forward_fold_arithmetic():
    series = random_walk_series(120, seed=14)
    reports = walk_forward(series, walk_cfg())
    assert [r.n for r in reports] == [40, 40]
    assert all(r.mape < 50.0 for r in reports)
    assert all(math.isfinite(r.rmse) for r in reports)


def test_walk_forward_constant_series_is_exact():
    series = flat_series([50.0] * 90)
    reports = walk_forward(series, walk_cfg())
    assert [r.n for r in reports] == [30, 30]
    for report in reports:
        assert report.mape == 0.0
        assert report.rmse == 0.0


def test_walk_forward_is_deterministic():
    # same-machine pin: two backtests in one process
    series = random_walk_series(100, seed=3)
    a = walk_forward(series, walk_cfg())
    b = walk_forward(series, walk_cfg())
    assert a == b


@pytest.mark.parametrize("fraction, needed", [(0.1, 45), (0.25, 27), (0.5, 21)])
def test_walk_forward_names_the_rows_its_first_fold_needs(fraction, needed):
    # 3 segments, each lookback 5 plus the fewest windows that leave a validation tail
    cfg = walk_cfg(validation_fraction=fraction)
    with pytest.raises(TooFewRows) as err:
        walk_forward(random_walk_series(needed - 1, seed=3), cfg)
    assert (err.value.needed, err.value.have) == (needed, needed - 1)
    reports = walk_forward(random_walk_series(needed, seed=3), cfg)
    assert [r.n for r in reports] == [needed // 3, needed - 2 * needed // 3]


def test_walk_forward_guards():
    with pytest.raises(ConfigError, match="folds must be >= 2"):  # no RunConfig holds one fold
        replace(walk_cfg(), folds=1)
    with pytest.raises(TooFewRows):
        walk_forward(random_walk_series(12, seed=3), walk_cfg(folds=3))


# ------------------------------------------------------ errors across processes

@pytest.mark.parametrize("error", [
    MalformedRow(7, "bad date '2021-13-01'"),
    NonAscendingDates(date(2021, 1, 4)),
    InvariantViolation(date(2021, 1, 4), "low", "low exceeds high, open, or close"),
    NonFiniteLoss(3, 5),
    CorruptModel("$.layers[0].W"),
    CorruptModel("$.scaler", "column names differ"),
    ZeroActual(3),
    SeriesTooShort(200, 12),
    TooFewRows(30, 4),
    SplitMismatch("train_last_date", "2021-01-04", "2021-01-05"),
], ids=lambda e: type(e).__name__)
def test_typed_errors_survive_pickling(error):
    # a worker process hands its errors back pickled
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is type(error)
    assert str(clone) == str(error) and clone.args == error.args
    assert vars(clone) == vars(error)


def test_a_keyword_built_error_survives_pickling():
    for error in (TooFewRows(needed=30, have=4), CorruptModel(path="$.scaler")):
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error) and clone.args == error.args == tuple(vars(error).values())


def test_every_error_declares_its_fields_once():
    # an error that carries data is a dataclass; BaseException pickles it by its args
    modules = [importlib.import_module(f"stockcast.{info.name}")
               for info in pkgutil.iter_modules(stockcast.__path__)]
    errors = {obj for module in modules for obj in vars(module).values()
              if isinstance(obj, type) and issubclass(obj, StockcastError)}
    assert {TooFewRows, ZeroActual, CorruptModel, InvariantViolation} <= errors
    for error in errors:
        assert "__reduce__" not in vars(error), error.__name__
        assert "__init__" not in vars(error) or "__dataclass_fields__" in vars(error), error.__name__
