"""Error metrics, one-step test evaluation, recursive forecasting, walk-forward.

All metrics compare prices in the original scale, never scaled values. The
recursive forecaster runs one loop for every mode: it feeds each prediction
back as the next synthetic bar (open = high = low = close = adj close =
prediction, volume carried forward), recomputes the model's feature columns
over the extended history, and rescales with the scaler parameters frozen at
train time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import timedelta

import numpy as np

from . import pipeline, scaling
from .config import RunConfig
from .dataset import TooFewRows, WindowedDataset
from .indicators import SeriesTooShort, build_features
from .market_data import BAR_FIELDS, OhlcvSeries

FLAT_TREND_BAND = 0.001  # |last - first| within 0.1% of first counts as flat


class EvalError(Exception):
    pass


class LengthMismatch(EvalError):
    pass


class ZeroActual(EvalError):
    def __init__(self, index: int):
        super().__init__(f"actual value at index {index} is zero; MAPE undefined")
        self.index = index

    def __reduce__(self):
        return type(self), (self.index,)


class SchemaMismatch(EvalError):
    pass


@dataclass(frozen=True)
class MetricsReport:
    mape: float
    mae: float
    mse: float
    rmse: float
    n: int


@dataclass(frozen=True)
class ForecastResult:
    horizon: int
    values: tuple[float, ...]
    trend: str  # "up" | "down" | "flat"


def rmse_from_mse(mse: float) -> float:
    return math.sqrt(mse)


def compute_metrics(real, predict) -> MetricsReport:
    """MAPE (percent), MAE, MSE, RMSE over two equal-length price sequences."""
    r = np.asarray(real, dtype=np.float64)
    p = np.asarray(predict, dtype=np.float64)
    if r.ndim != 1 or p.ndim != 1 or r.shape != p.shape or r.size == 0:
        raise LengthMismatch(f"real shaped {r.shape}, predict shaped {p.shape}")
    zeros = np.nonzero(r == 0.0)[0]
    if zeros.size:
        raise ZeroActual(int(zeros[0]))
    abs_err = np.abs(r - p)
    mse = float(np.mean((r - p) ** 2))
    return MetricsReport(
        mape=float(np.mean(abs_err / np.abs(r)) * 100.0),
        mae=float(np.mean(abs_err)),
        mse=mse,
        rmse=rmse_from_mse(mse),
        n=int(r.size),
    )


def _predict_batches(model, inputs: np.ndarray, batch_size: int = 128) -> np.ndarray:
    parts = [
        np.asarray(model.predict_batch(inputs[start : start + batch_size]), dtype=np.float64)
        for start in range(0, len(inputs), batch_size)
    ]
    return np.concatenate(parts) if parts else np.empty(0)


def evaluate_one_step(model, test_ds: WindowedDataset):
    """Metrics plus per-date (actual, predicted) prices on held-out samples.

    Each prediction consumes only the rows strictly before its target date;
    that is guaranteed by the window construction, not rechecked here.
    """
    if tuple(test_ds.feature_names) != tuple(model.feature_names):
        offending = next(
            (b for a, b in zip(model.feature_names, test_ds.feature_names) if a != b),
            None,
        )
        if offending is None:
            detail = f"{len(test_ds.feature_names)} columns, model has {len(model.feature_names)}"
        else:
            detail = f"column {offending!r} does not match the model's features"
        raise SchemaMismatch(detail)
    if test_ds.lookback != model.lookback:
        raise SchemaMismatch(
            f"dataset lookback {test_ds.lookback}, model lookback {model.lookback}"
        )
    if len(test_ds) == 0:
        raise LengthMismatch("test dataset is empty")
    preds_scaled = _predict_batches(model, test_ds.inputs)
    predicted = np.asarray(scaling.inverse_close(model.scaler, preds_scaled), dtype=np.float64)
    actual = np.asarray(scaling.inverse_close(model.scaler, test_ds.targets), dtype=np.float64)
    report = compute_metrics(actual, predicted)
    rows = [
        (day, float(a), float(p))
        for day, a, p in zip(test_ds.dates, actual, predicted)
    ]
    return report, rows


def _classify_trend(values: list[float]) -> str:
    first, last = values[0], values[-1]
    delta = last - first
    if abs(delta) <= FLAT_TREND_BAND * abs(first):
        return "flat"
    return "up" if delta > 0 else "down"


def forecast_recursive(model, series: OhlcvSeries, horizon: int) -> ForecastResult:
    """Feed predictions back as inputs for `horizon` steps beyond the series.

    Step k builds features on the first n + k bars, predicts, and writes the
    synthetic bar into column n + k of one preallocated block.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = len(series)
    block = np.empty((len(BAR_FIELDS), n + horizon))
    block[:, :n] = series.block
    dates = list(series.dates())
    values: list[float] = []
    for k in range(horizon):
        extended = OhlcvSeries.from_columns(series.symbol, tuple(dates), block[:, : n + k])
        matrix = build_features(extended, model.indicator_config, model.column_set,
                                model.use_adj_close)
        scaled = scaling.transform(model.scaler, matrix)
        if scaled.rows < model.lookback:
            raise SeriesTooShort(model.lookback, scaled.rows)
        window = scaled.values[-model.lookback :, :]
        price = float(scaling.inverse_close(model.scaler, model.predict(window)))
        values.append(price)
        block[:, n + k] = price  # synthetic next bar: the prediction in every price field
        block[-1, n + k] = block[-1, n + k - 1]  # and the volume carried forward
        dates.append(dates[-1] + timedelta(days=1))
    return ForecastResult(horizon=horizon, values=tuple(values), trend=_classify_trend(values))


def walk_forward(series: OhlcvSeries, cfg: RunConfig, folds: int) -> list[MetricsReport]:
    """Expanding-window backtest: fold j trains on the first j/(folds+1) of the
    feature rows and takes one-step predictions on the next segment, retraining
    from scratch with seed cfg.seed + j."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    matrix = pipeline.build_matrix(series, cfg)
    rows = matrix.rows
    lookback = cfg.lookback
    reports: list[MetricsReport] = []
    for j in range(1, folds + 1):
        train_end = rows * j // (folds + 1)
        test_end = rows * (j + 1) // (folds + 1)
        if train_end - lookback < 1 or test_end - train_end < 1:
            raise TooFewRows((folds + 1) * (lookback + 2), rows)
        fold_matrix = replace(
            matrix, dates=matrix.dates[:test_end], values=matrix.values[:test_end]
        )
        scaler = scaling.fit(fold_matrix, (0, train_end))
        train_part, test_part = pipeline.prepare_datasets(
            fold_matrix, scaler, lookback, train_end, cfg.clip_scaled
        )
        model, _ = pipeline.fit_model(cfg, train_part, scaler, cfg.seed + j)
        report, _ = evaluate_one_step(model, test_part)
        reports.append(report)
    return reports
