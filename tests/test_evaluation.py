"""Metrics, one-step evaluation, recursive forecasts, walk-forward backtest."""

import math
import pickle
import tracemalloc
from datetime import date
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stockcast.config import resolve_config
from stockcast.dataset import TooFewRows, make_windows
from stockcast.evaluation import (
    LengthMismatch,
    MetricsReport,
    SchemaMismatch,
    ZeroActual,
    compute_metrics,
    evaluate_one_step,
    forecast_recursive,
    rmse_from_mse,
    walk_forward,
)
from stockcast.indicators import PAPER_MULTIVARIATE, UNIVARIATE, IndicatorConfig, SeriesTooShort, build_features, column_names_for
from stockcast.lstm import CorruptModel, NonFiniteLoss, TrainConfig, new_model
from stockcast.market_data import (
    HttpStatus,
    InvariantViolation,
    MalformedRow,
    NonAscendingDates,
    OhlcvSeries,
)
from stockcast.pipeline import prepare_datasets, split_row_for, train_from_series
from stockcast.scaling import ScalerParams, fit, inverse_close, transform

from conftest import flat_series, random_walk_series
from test_lstm import windows_dataset


class PersistenceModel:
    """Duck-typed stand-in: predicts the last seen scaled close."""

    mode = "univariate"
    column_set = UNIVARIATE
    use_adj_close = False
    indicator_config = IndicatorConfig()

    def __init__(self, feature_names, lookback, scaler):
        self.feature_names = tuple(feature_names)
        self.lookback = lookback
        self.scaler = scaler
        self._close = self.feature_names.index("Close")

    def predict(self, window):
        return float(np.asarray(window, dtype=np.float64)[-1, self._close])

    def predict_batch(self, windows):
        return np.asarray(windows, dtype=np.float64)[:, -1, self._close]


class ScriptedModel(PersistenceModel):
    """Returns a fixed sequence of scaled predictions, one per call."""

    def __init__(self, feature_names, lookback, scaler, outputs):
        super().__init__(feature_names, lookback, scaler)
        self.outputs = list(outputs)

    def predict(self, window):
        return self.outputs.pop(0)


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
    scaler = fit(matrix, (0, split_row))
    train_ds, test_ds = prepare_datasets(matrix, scaler, lookback, split_row)
    model = PersistenceModel(("Close",), lookback, scaler)
    return series, scaler, train_ds, test_ds, model


def test_persistence_evaluation_matches_direct_baseline():
    series, scaler, train_ds, test_ds, model = persistence_setup()
    report, rows = evaluate_one_step(model, test_ds)

    closes = series.closes()
    n_samples = len(series) - model.lookback
    first_test = int(0.8 * n_samples)
    target_rows = np.arange(first_test + model.lookback, len(series))
    actual = closes[target_rows]
    predicted = closes[target_rows - 1]
    direct = compute_metrics(actual, predicted)

    assert report.n == direct.n == len(test_ds)
    assert report.mape == pytest.approx(direct.mape, rel=1e-9)
    assert report.mae == pytest.approx(direct.mae, rel=1e-9)
    assert report.rmse == pytest.approx(direct.rmse, rel=1e-9)
    for (day, act, pred), row_idx in zip(rows, target_rows):
        assert day == series.dates()[row_idx]
        assert act == pytest.approx(closes[row_idx], rel=1e-12)
        assert pred == pytest.approx(closes[row_idx - 1], rel=1e-12)


def test_constant_series_scores_exact_zero():
    matrix = build_features(flat_series([42.0] * 30), IndicatorConfig(), UNIVARIATE)
    split_row = split_row_for(matrix.rows, 5, 0.8)
    scaler = fit(matrix, (0, split_row))
    _, test_ds = prepare_datasets(matrix, scaler, 5, split_row)
    model = PersistenceModel(("Close",), 5, scaler)
    report, _ = evaluate_one_step(model, test_ds)
    assert report == MetricsReport(0.0, 0.0, 0.0, 0.0, report.n)


def test_schema_mismatch_names_column():
    _, scaler, _, test_ds, model = persistence_setup()
    model.feature_names = ("CMA",)
    with pytest.raises(SchemaMismatch, match="Close"):
        evaluate_one_step(model, test_ds)


def test_lookback_mismatch_and_empty():
    _, scaler, train_ds, test_ds, model = persistence_setup()
    model.lookback = 99
    with pytest.raises(SchemaMismatch, match="lookback"):
        evaluate_one_step(model, test_ds)
    model.lookback = test_ds.lookback
    empty = windows_dataset(np.zeros((0, test_ds.lookback, 1)), np.zeros(0), test_ds.lookback)
    with pytest.raises(LengthMismatch):
        evaluate_one_step(model, empty)


def test_evaluate_one_step_memory_peak_at_paper_scale():
    # predict_batch holds two layers' (lookback + 1, input + hidden + 1, batch) buffers at
    # once, so evaluate predicts in chunks: 255 windows in one chunk peak near 22 MB
    names = column_names_for(IndicatorConfig(), PAPER_MULTIVARIATE)
    scaler = ScalerParams(column_names=names, mins=np.zeros(13), maxs=np.ones(13))
    model = new_model("multivariate", names, 60, scaler, TrainConfig(hidden_sizes=(50, 50)),
                      column_set=PAPER_MULTIVARIATE)
    rng = np.random.default_rng(255)
    test_ds = windows_dataset(rng.uniform(-1.0, 1.0, size=(255, 60, 13)),
                              rng.uniform(0.0, 1.0, size=255), 60, names)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report, _ = evaluate_one_step(model, test_ds)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.n == 255
    assert peak < 14.7e6, peak


# ------------------------------------------------------------------ forecasts

def test_persistence_forecast_is_constant_and_flat():
    series, scaler, _, _, model = persistence_setup()
    result = forecast_recursive(model, series, 30)
    assert result.horizon == 30
    assert len(result.values) == 30
    last_close = float(series.closes()[-1])
    assert all(v == pytest.approx(last_close, rel=1e-9) for v in result.values)
    assert result.trend == "flat"


def test_scripted_trends():
    series, scaler, _, _, _ = persistence_setup()

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
    series, scaler, _, _, model = persistence_setup()
    with pytest.raises(ValueError):
        forecast_recursive(model, series, 0)
    short = random_walk_series(6, seed=2)
    with pytest.raises(SeriesTooShort):
        forecast_recursive(model, short, 3)


def trained_univariate(n=140, lookback=8, epochs=2, seed=19):
    series = random_walk_series(n, seed=seed)
    cfg = resolve_config({}, {
        "mode": "univariate", "lookback": lookback, "epochs": epochs,
        "hidden_sizes": "6", "seed": seed,
    })
    return series, train_from_series(series, cfg)


def test_forecast_horizon_one_equals_direct_predict():
    series, result = trained_univariate()
    model = result.model
    forecast = forecast_recursive(model, series, 1)

    matrix = build_features(series, model.indicator_config, UNIVARIATE)
    scaled = transform(model.scaler, matrix)
    window = scaled.values[-model.lookback :, :]
    direct = float(inverse_close(model.scaler, model.predict(window)))
    assert forecast.values[0] == direct


def sliding_window_forecast(model, series, horizon):
    """Reference univariate recursion: slide a window of scaled closes and
    append each prediction, forward-scaled with the Close column's bounds."""
    matrix = build_features(series, model.indicator_config, UNIVARIATE, model.use_adj_close)
    window = transform(model.scaler, matrix).values[-model.lookback :, :].copy()
    lo, hi = float(model.scaler.mins[0]), float(model.scaler.maxs[0])
    out = []
    for _ in range(horizon):
        price = float(inverse_close(model.scaler, model.predict(window)))
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
    model = train_from_series(series, cfg).model
    assert model.use_adj_close is use_adj_close
    dates, block = series.dates(), series.block.copy()
    forecast = forecast_recursive(model, series, 12)
    assert list(forecast.values) == sliding_window_forecast(model, series, 12)
    assert series.dates() == dates and np.array_equal(series.block, block)


def test_forecast_prefix_is_stable():
    series, result = trained_univariate()
    short = forecast_recursive(result.model, series, 3)
    long = forecast_recursive(result.model, series, 9)
    assert long.values[:3] == short.values
    assert all(math.isfinite(v) for v in long.values)


def test_multivariate_forecast_rebuilds_features():
    icfg = IndicatorConfig(sma_periods=(5, 10, 20))
    names = column_names_for(icfg, PAPER_MULTIVARIATE)
    series = random_walk_series(90, seed=23)
    matrix = build_features(series, icfg, PAPER_MULTIVARIATE)
    scaler = fit(matrix, (0, matrix.rows))

    class ConstantModel(PersistenceModel):
        mode = "multivariate"
        column_set = PAPER_MULTIVARIATE
        indicator_config = icfg

        def predict(self, window):
            assert np.asarray(window).shape == (self.lookback, len(names))
            return 0.25

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
    result = train_from_series(series, cfg)
    matrix = result.matrix
    split_row = split_row_for(matrix.rows, cfg.lookback, cfg.train_fraction)
    assert result.test_ds.dates[0] == matrix.dates[split_row]
    assert all(day < result.test_ds.dates[0] for day in result.train_ds.dates)
    assert np.array_equal(result.scaler.mins, matrix.values[:split_row].min(axis=0))
    assert np.array_equal(result.scaler.maxs, matrix.values[:split_row].max(axis=0))
    assert np.all(result.test_ds.targets == 1.0)  # clipped at the training maximum

    train_end, test_end = 60, 100
    truncated = replace(matrix, dates=matrix.dates[:test_end], values=matrix.values[:test_end])
    scaler = fit(truncated, (0, train_end))
    _, test_ds = prepare_datasets(truncated, scaler, cfg.lookback, train_end, clip=True)
    assert test_ds.dates == matrix.dates[train_end:test_end]


# ---------------------------------------------------------------- walk-forward

def walk_cfg(**over):
    base = {
        "mode": "univariate", "lookback": 5, "epochs": 2, "hidden_sizes": "4",
        "batch_size": 16, "seed": 31, "folds": 2,
    }
    base.update(over)
    return resolve_config({}, {k: str(v) for k, v in base.items()})


def test_walk_forward_fold_arithmetic():
    series = random_walk_series(120, seed=14)
    reports = walk_forward(series, walk_cfg(), 2)
    assert [r.n for r in reports] == [40, 40]
    assert all(r.mape < 50.0 for r in reports)
    assert all(math.isfinite(r.rmse) for r in reports)


def test_walk_forward_constant_series_is_exact():
    series = flat_series([50.0] * 90)
    reports = walk_forward(series, walk_cfg(), 2)
    assert [r.n for r in reports] == [30, 30]
    for report in reports:
        assert report.mape == 0.0
        assert report.rmse == 0.0


def test_walk_forward_is_deterministic():
    series = random_walk_series(100, seed=3)
    a = walk_forward(series, walk_cfg(), 2)
    b = walk_forward(series, walk_cfg(), 2)
    assert a == b


def test_walk_forward_guards():
    series = random_walk_series(100, seed=3)
    with pytest.raises(ValueError):
        walk_forward(series, walk_cfg(), 1)
    with pytest.raises(TooFewRows):
        walk_forward(random_walk_series(12, seed=3), walk_cfg(), 3)


# ------------------------------------------------------ errors across processes

@pytest.mark.parametrize("error", [
    MalformedRow(7, "bad date '2021-13-01'"),
    NonAscendingDates(date(2021, 1, 4)),
    InvariantViolation(date(2021, 1, 4), "low", "low exceeds high, open, or close"),
    HttpStatus(404),
    NonFiniteLoss(3, 5),
    CorruptModel("$.layers[0].W"),
    CorruptModel("$.scaler", "column names differ"),
    ZeroActual(3),
    SeriesTooShort(200, 12),
    TooFewRows(30, 4),
], ids=lambda e: type(e).__name__)
def test_typed_errors_survive_pickling(error):
    # a worker process hands its errors back pickled
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is type(error)
    assert str(clone) == str(error) and clone.args == error.args
    assert vars(clone) == vars(error)
