"""Error metrics, one-step test evaluation, recursive forecasting, walk-forward.

All metrics compare prices in the original scale, never scaled values.
evaluate_one_step scores a model on the rows of a feature matrix that its
SplitContract holds out, for evaluate and for every walk-forward fold. The
recursive forecaster runs one loop for every mode: it feeds each prediction
back as the next synthetic bar (open = high = low = close = adj close =
prediction, volume carried forward), extends the model's feature columns by
that bar from the indicator state carried since the last real bar, and scales
the new row with the scaler parameters frozen at train time. The LSTM sees
each scaled row once: the windows of up to min(lookback, horizon) days are in
flight together as the columns of one model.stream, and day k reads column
k mod that width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import lstm, pipeline, scaling
from .config import RunConfig, StockcastError
from .dataset import TooFewRows
from .indicators import FeatureMatrix, SeriesTooShort, _min_rows_needed, build_features
from .market_data import BAR_FIELDS, OhlcvSeries

FLAT_TREND_BAND = 0.001  # |last - first| within 0.1% of first counts as flat


class EvalError(StockcastError):
    pass


class LengthMismatch(EvalError):
    pass


@dataclass(eq=False)
class ZeroActual(EvalError):
    index: int
    message = "actual value at index {index} is zero; MAPE undefined"


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
    with np.errstate(over="ignore"):  # an overflow shows as inf, which is refused below
        abs_err = np.abs(r - p)
        mse = float(np.mean((r - p) ** 2))
        mape = float(np.mean(abs_err / np.abs(r)) * 100.0)
    if not (math.isfinite(mse) and math.isfinite(mape)):  # a finite mse bounds mae
        raise EvalError("non-finite error metrics: a prediction or an error overflows float64")
    return MetricsReport(mape=mape, mae=float(np.mean(abs_err)), mse=mse, rmse=rmse_from_mse(mse),
                         n=int(r.size))


def evaluate_one_step(model, matrix: FeatureMatrix):
    """Metrics plus per-date (actual, predicted) prices on the model's held-out rows of matrix.

    pipeline.held_out_windows checks the model's contract against matrix and windows
    those rows, so each prediction consumes only the rows strictly before its target date.
    """
    test_ds = pipeline.held_out_windows(matrix, model)
    predicted = scaling.inverse_close(model.scaler, model.predict(test_ds.inputs))
    actual = scaling.inverse_close(model.scaler, test_ds.targets)
    report = compute_metrics(actual, predicted)
    return report, list(zip(test_ds.dates, actual.tolist(), predicted.tolist()))


def _classify_trend(values: list[float]) -> str:
    first, last = values[0], values[-1]
    delta = last - first
    if abs(delta) <= FLAT_TREND_BAND * abs(first):
        return "flat"
    return "up" if delta > 0 else "down"


def forecast_recursive(model, series: OhlcvSeries, horizon: int) -> ForecastResult:
    """Feed predictions back as inputs for `horizon` steps beyond the series.

    Step 0 builds features on all n bars. Step k >= 1 writes the last
    prediction into a preallocated bar block as bar n + k - 1 and extends the
    carried indicator state by it from the last `tail` bars alone:
    O(longest window) per step, not O(n). Each scaled row is pushed once to a
    stream of width W = min(lookback, horizon), one LSTM step per layer for
    every window in flight, so day k equals predict on a W-window chunk that
    holds its window at k % W. A model whose contract records clip_scaled reads
    every scaled row bounded to [-1, 1]. The predicted closes fed back as bars
    stay as the model gave them, and a day whose price is not finite raises
    NonFiniteInput.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = len(series)
    cfg, column_set, lookback = model.indicator_config, model.column_set, model.lookback
    tail = _min_rows_needed(cfg, column_set) + 1  # bars each carried step reads
    # one full window after the warmup rows that build_features drops
    needed = lookback + tail - 2
    if n < needed:
        raise SeriesTooShort(needed, n)
    try:
        block = np.empty((len(BAR_FIELDS), n + horizon))
    except (ValueError, MemoryError):  # numpy's "array is too big", or a failed allocation
        raise EvalError(f"cannot allocate {n} bars and a {horizon}-day forecast") from None
    block[:, :n] = series.block
    matrix = build_features(series, cfg, column_set, model.use_adj_close)
    carry = matrix.carry
    history = scaling.scale(model.scaler, matrix.values[-lookback:])  # elementwise: rows alone
    clip = model.contract.clip_scaled
    if clip:
        history.clip(-1.0, 1.0, out=history)
    width = min(lookback, horizon)  # windows in flight at once
    stream = model.stream(width)
    values: list[float] = []
    for r in range(lookback + horizon - 1):  # day k's window is rows k .. k + lookback - 1
        k = r - lookback + 1  # the day whose window ends at row r, once k >= 0
        if k > 0:
            row, carry = build_features(block[:, n + k - tail : n + k], cfg, column_set,
                                        model.use_adj_close, carry)
            row = scaling.scale(model.scaler, row)
            if clip:
                row.clip(-1.0, 1.0, out=row)
        else:
            row = history[r]
        if r < horizon:
            stream.start(r % width)  # day r's window starts at row r
        heads = stream.push(row)
        if k < 0:
            continue
        with np.errstate(over="ignore"):  # an overflow shows as inf, which is refused below
            price = float(scaling.inverse_close(model.scaler, heads[k % width]))
        if not math.isfinite(price):
            raise lstm.NonFiniteInput(f"forecast day {k + 1}: the predicted close is {price}")
        values.append(price)
        block[:, n + k] = price  # synthetic next bar: the prediction in every price field
        block[-1, n + k] = block[-1, n + k - 1]  # and the volume carried forward
    return ForecastResult(horizon=horizon, values=tuple(values), trend=_classify_trend(values))


def walk_forward(series: OhlcvSeries, cfg: RunConfig) -> list[MetricsReport]:
    """Expanding-window backtest over cfg.folds >= 2 folds, as RunConfig checks: fold j
    trains on the first j/(folds+1) of the feature rows and takes one-step predictions
    on the next segment, retraining from scratch with seed cfg.seed + j."""
    folds = cfg.folds
    matrix = pipeline.build_matrix(series, cfg)
    rows = matrix.rows
    # fold 1 trains on rows // (folds + 1) rows, the fewest of any fold
    needed = (folds + 1) * (cfg.lookback + lstm.min_train_windows(cfg.validation_fraction))
    if rows < needed:
        raise TooFewRows(needed, rows)
    reports: list[MetricsReport] = []
    for j in range(1, folds + 1):
        fold = matrix.row_slice(0, rows * (j + 1) // (folds + 1))
        model, _ = pipeline.fit_rows(fold, rows * j // (folds + 1), replace(cfg, seed=cfg.seed + j))
        report, _ = evaluate_one_step(model, fold)
        reports.append(report)
    return reports
