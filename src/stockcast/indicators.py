"""Technical indicators and feature-matrix assembly.

Each indicator returns one value per input bar, with nan marking positions
where its lookback window is not yet full. build_features stacks the
requested columns and trims the common warmup prefix, so downstream stages
only ever see finite values.

Every window, here and in dataset.make_windows, is one read-only strided
view from _windows(), which copies nothing.

The same body extends the columns by one bar for a recursive forecast: the
window columns read the last bars, and each recurrence (CMA, EMA, RSI, MACD)
continues from a Carry, ema from its `start` and rsi from its `seeds`.

Degenerate inputs use fixed conventions instead of dividing by zero:
RSI on a flat stretch is 50 (100 when losses vanish, 0 when gains do),
CCI is 0 when the mean absolute deviation is 0, the stochastic %K is 50
when highest high equals lowest low, and the accumulation/distribution
ratio is 0 when high equals low.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import (COLUMN_SETS, PAPER_MULTIVARIATE, TABLE4_ALL, UNIVARIATE, IndicatorConfig,
                     StockcastError)
from .market_data import OhlcvSeries


class IndicatorError(StockcastError):
    pass


@dataclass(eq=False)
class SeriesTooShort(IndicatorError):
    needed: int
    have: int
    message = "need at least {needed} bars, have {have}"


@dataclass(frozen=True)
class Carry:
    """State of the recurrent columns (CMA, EMA, MACD, RSI) at one bar; a
    univariate matrix has none and carries the defaults."""

    bars: int = 0
    close_sum: float = np.nan  # CMA's running sum
    ema: float = np.nan
    macd_fast: float = np.nan
    macd_slow: float = np.nan
    macd_signal: float = np.nan
    rsi_gain: float = np.nan  # Wilder's average gain and loss
    rsi_loss: float = np.nan


_UNSEEDED = Carry(0, *[None] * 7)  # a full build's start: each recurrence seeds itself


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Aligned date-indexed feature columns with the warmup prefix removed."""

    dates: tuple
    column_names: tuple[str, ...]
    values: np.ndarray
    carry: Carry | None = None  # at the last row; slices and scaled copies have none

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape != (len(self.dates), len(self.column_names)):
            raise ValueError("values shape does not match dates and column_names")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    def row_slice(self, start: int, stop: int) -> "FeatureMatrix":
        """Rows [start, stop), sharing this matrix's values."""
        return replace(self, dates=self.dates[start:stop], values=self.values[start:stop],
                       carry=None)


def _windows(values: np.ndarray, n: int) -> np.ndarray:
    """Read-only view of every n consecutive entries along the first axis, shaped
    (len - n + 1, n, *rest), with the strides sliding_window_view gives a 1-D input."""
    if not 1 <= n <= len(values):
        raise ValueError(f"window of {n} over {len(values)} entries")
    x = np.ascontiguousarray(values)  # the view needs one buffer; no caller's input is strided
    view = np.ndarray((len(x) - n + 1, n, *x.shape[1:]), x.dtype, x, 0, (x.strides[0], *x.strides))
    view.flags.writeable = False
    return view


def _as_floats(values) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a one-dimensional value sequence")
    return x


def _check_period(n: int) -> None:
    if n < 1:
        raise ValueError("period must be >= 1")


def sma(closes, n: int) -> np.ndarray:
    """Simple moving average over the last n values."""
    _check_period(n)
    x = _as_floats(closes)
    out = np.full(x.shape, np.nan)
    if 0 < n <= x.size:
        out[n - 1 :] = _windows(x, n).mean(axis=1)
    return out


def cma(closes) -> np.ndarray:
    """Cumulative mean of everything seen so far; defined from the first bar."""
    return _cma(_as_floats(closes))[0]


def _cma(x: np.ndarray, total: float | None = None, count: int = 0):
    """Cumulative means of x and its running sums; given the sum `total` of `count`
    earlier values, the sums continue from it."""
    sums = np.cumsum(x) if total is None else np.cumsum(np.concatenate(([total], x)))[1:]
    return sums / np.arange(count + 1, count + x.size + 1, dtype=np.float64), sums


def wma(closes, n: int) -> np.ndarray:
    """Weighted moving average, weight n on the newest value down to 1 on the oldest."""
    _check_period(n)
    x = _as_floats(closes)
    out = np.full(x.shape, np.nan)
    if 0 < n <= x.size:
        weights = np.arange(1, n + 1, dtype=np.float64)  # oldest..newest
        denom = n * (n + 1) / 2.0
        out[n - 1 :] = _windows(x, n) @ weights / denom
    return out


def ema(closes, alpha: float, start: float | None = None) -> np.ndarray:
    """Exponential moving average seeded at the first value, or continued from
    `start`, the average at the value before closes[0].

    Each position holds prev + alpha * (closes[t] - prev), the usual
    alpha * closes[t] + (1 - alpha) * prev in a form that is exact when
    closes[t] equals prev, so a flat stretch stays flat.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    values = _as_floats(closes).tolist()  # Python floats step far faster than numpy scalars
    out = values[:1] if start is None else []  # a seed at the first value is its own average
    prev = values[0] if out else start
    for value in values[len(out):]:
        prev = prev + alpha * (value - prev)
        out.append(prev)
    return np.array(out, dtype=np.float64)


def rsi(closes, n: int, seeds: tuple[float, float] | None = None):
    """Relative strength index with Wilder smoothing: (values, avg_gain, avg_loss), one
    average per defined value. The averages start as the means of the first n moves, so
    values is defined from position n, or given seeds, the averages at closes[0], from 0.

    The averages step as one Python-float loop; the map to RSI values is vectorized with
    the same elementwise float64 operations, so both zero gives 50, a zero average loss
    100 and a zero average gain 0, in that order.
    """
    _check_period(n)
    x = _as_floats(closes)
    first = n if seeds is None else 0
    out = np.full(x.shape, np.nan)
    if x.size < first + 1:
        return out, out[:0], out[:0]
    diffs = np.diff(x)
    averages = []
    for i, moves in enumerate((np.maximum(diffs, 0.0), np.maximum(-diffs, 0.0))):
        avg = float(moves[:n].mean()) if seeds is None else seeds[i]
        smoothed = [avg]
        for move in moves[first:].tolist():
            avg = (avg * (n - 1) + move) / n
            smoothed.append(avg)
        averages.append(np.array(smoothed))
    gain, loss = averages
    with np.errstate(divide="ignore", invalid="ignore"):
        out[first:] = np.where(
            loss == 0.0,
            np.where(gain == 0.0, 50.0, 100.0),
            np.where(gain == 0.0, 0.0, 100.0 - 100.0 / (1.0 + gain / loss)),
        )
    return out, gain, loss


def _hlc(bars) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """High, low and close rows of an OhlcvSeries or of its (6, m) price block."""
    block = bars.block if isinstance(bars, OhlcvSeries) else bars
    return block[1], block[2], block[3]


def cci(series, n: int) -> np.ndarray:
    """Commodity channel index on the typical price (high + low + close) / 3."""
    _check_period(n)
    h, l, c = _hlc(series)
    m = (h + l + c) / 3.0
    out = np.full(m.shape, np.nan)
    if 0 < n <= m.size:
        windows = _windows(m, n)
        sm = windows.mean(axis=1)
        dev = np.abs(windows - sm[:, None]).mean(axis=1)
        safe = np.where(dev > 0.0, dev, 1.0)
        out[n - 1 :] = np.where(dev > 0.0, (m[n - 1 :] - sm) / (0.015 * safe), 0.0)
    return out


def ad(series) -> np.ndarray:
    """Per-bar accumulation/distribution ratio (high_t - close_{t-1}) / (high_t - low_t)."""
    h, l, c = _hlc(series)
    out = np.full(c.shape, np.nan)
    if c.size >= 2:
        num = h[1:] - c[:-1]
        den = h[1:] - l[1:]
        safe = np.where(den != 0.0, den, 1.0)
        out[1:] = np.where(den != 0.0, num / safe, 0.0)
    return out


def stochastic_k(series, n: int) -> np.ndarray:
    """%K: close position inside the n-bar high/low channel, scaled to [0, 100]."""
    _check_period(n)
    h, l, c = _hlc(series)
    out = np.full(c.shape, np.nan)
    if 0 < n <= c.size:
        hh = _windows(h, n).max(axis=1)
        ll = _windows(l, n).min(axis=1)
        span = hh - ll
        safe = np.where(span > 0.0, span, 1.0)
        out[n - 1 :] = np.where(span > 0.0, (c[n - 1 :] - ll) * 100.0 / safe, 50.0)
    return out


def macd(closes, fast: int = IndicatorConfig.macd_fast, slow: int = IndicatorConfig.macd_slow,
         signal_n: int = IndicatorConfig.macd_signal):
    """MACD line, signal line, histogram.

    diff = EMA(alpha=2/(fast+1)) - EMA(alpha=2/(slow+1)); the signal line is
    an EMA of diff seeded at the first diff value, and histogram is always
    computed as diff - signal.
    """
    _check_period(fast)
    _check_period(slow)
    _check_period(signal_n)
    if fast >= slow:
        raise ValueError("fast period must be smaller than slow period")
    _, _, diff, signal = _macd_lines(_as_floats(closes), fast, slow, signal_n)
    return diff, signal, diff - signal


def _macd_lines(x: np.ndarray, fast: int, slow: int, signal_n: int, starts=(None, None, None)):
    """MACD's fast and slow EMAs, their difference and its signal line; given the
    three EMAs at the value before x[0] as starts, each continues from its own."""
    fast_ema = ema(x, 2.0 / (fast + 1), starts[0])
    slow_ema = ema(x, 2.0 / (slow + 1), starts[1])
    diff = fast_ema - slow_ema
    return fast_ema, slow_ema, diff, ema(diff, 2.0 / (signal_n + 1), starts[2])


def column_names_for(cfg: IndicatorConfig, column_set: str) -> tuple[str, ...]:
    """Column manifest, in output order, for a column set."""
    if column_set not in COLUMN_SETS:
        raise ValueError(f"unknown column set {column_set!r}")
    if column_set == UNIVARIATE:
        return ("Close",)
    names = ["Close", "CMA"]
    names += [f"SMA{n}" for n in cfg.sma_periods]
    names += [f"EMA_{cfg.ema_alpha:g}", "RSI", "K%", "D%", "CCI", "macd", "macd_s", "macd_h"]
    if column_set == TABLE4_ALL:
        names += [f"WMA{cfg.wma_period}", "AD"]
    return tuple(names)


def _min_rows_needed(cfg: IndicatorConfig, column_set: str) -> int:
    if column_set == UNIVARIATE:
        return 1
    firsts = [0]  # Close, CMA, EMA, macd family are defined from the start
    firsts += [n - 1 for n in cfg.sma_periods]
    firsts += [cfg.rsi_period, cfg.cci_period - 1, cfg.stoch_k_period - 1]
    firsts.append(cfg.stoch_k_period - 1 + cfg.stoch_d_period - 1)
    if column_set == TABLE4_ALL:
        firsts += [cfg.wma_period - 1, 1]
    return max(firsts) + 1


def _window_columns(bars, cfg: IndicatorConfig, column_set: str) -> dict[str, np.ndarray]:
    """The multivariate columns that each read one window of bars."""
    closes = _hlc(bars)[2]
    columns = {f"SMA{n}": sma(closes, n) for n in cfg.sma_periods}
    columns["K%"] = k = stochastic_k(bars, cfg.stoch_k_period)
    columns["D%"] = sma(k, cfg.stoch_d_period)
    columns["CCI"] = cci(bars, cfg.cci_period)
    if column_set == TABLE4_ALL:
        columns[f"WMA{cfg.wma_period}"] = wma(closes, cfg.wma_period)
        columns["AD"] = ad(bars)
    return columns


def build_features(
    series: OhlcvSeries,
    cfg: IndicatorConfig = IndicatorConfig(),
    column_set: str = PAPER_MULTIVARIATE,
    use_adj_close: bool = False,
    carry: Carry | None = None,
) -> FeatureMatrix | tuple[np.ndarray, Carry]:
    """Assemble the requested columns and trim rows where any is undefined.

    It drops len(series) - matrix.rows leading rows, 199 with the default
    periods, where the 200-bar SMA dominates. Raises SeriesTooShort when no
    row survives, and column_names_for's ValueError on an unknown column set.

    Given the carry at bar t - 1, `series` is instead a (6, m) price block
    ending at bar t, m >= _min_rows_needed + 1, and the call returns the
    pair (row t, carry at t). One body serves both: each recurrence steps
    from the carry where a full build seeds it, so the row equals a full
    build's bit for bit.
    """
    names = column_names_for(cfg, column_set)
    step = carry is not None
    block = series if step else series.block
    if step and block.shape[1] < (needed := _min_rows_needed(cfg, column_set) + 1):
        raise SeriesTooShort(needed, block.shape[1])
    if use_adj_close:  # high, low and open stay raw, so low <= close <= high may break
        block = block.copy()
        block[3] = block[4]
    closes = block[3]
    columns = {"Close": closes}
    recurrences = ()
    # a value past float64's range shows as inf or nan, which a full build refuses below
    with np.errstate(over="ignore", invalid="ignore"):
        if column_set != UNIVARIATE:
            columns.update(_window_columns(block, cfg, column_set))
            # the closes each recurrence steps over, and its state at the bar before them
            new, start = (closes[-1:], carry) if step else (closes, _UNSEEDED)
            columns["CMA"], sums = _cma(new, start.close_sum, start.bars)
            columns[f"EMA_{cfg.ema_alpha:g}"] = ema_values = ema(new, cfg.ema_alpha, start.ema)
            columns["RSI"], gain, loss = rsi(closes[-2:] if step else closes, cfg.rsi_period,
                                             (start.rsi_gain, start.rsi_loss) if step else None)
            fast, slow, diff, signal = _macd_lines(
                new, cfg.macd_fast, cfg.macd_slow, cfg.macd_signal,
                (start.macd_fast, start.macd_slow, start.macd_signal))
            columns["macd"], columns["macd_s"], columns["macd_h"] = diff, signal, diff - signal
            recurrences = (sums, ema_values, fast, slow, signal, gain, loss)  # Carry's order
    if not step:
        values = np.column_stack([columns[name] for name in names])
        finite_rows = np.all(np.isfinite(values), axis=1)
        defined = np.nonzero(finite_rows)[0]
        if defined.size == 0:
            needed = _min_rows_needed(cfg, column_set)
            if len(series) >= needed:
                raise IndicatorError("no feature row is finite: a feature value overflows float64")
            raise SeriesTooShort(needed, len(series))
        first = int(defined[0])
        if not finite_rows[first:].all():
            # cannot happen for finite bar inputs; guard against silent nan leaks
            bad = int(np.nonzero(~finite_rows[first:])[0][0]) + first
            raise IndicatorError(f"non-finite feature value at row {bad}")
    if recurrences:
        carry = Carry(start.bars + new.size, *(float(r[-1]) for r in recurrences))
    if step:
        return np.array([columns[name][-1] for name in names]), carry
    return FeatureMatrix(series.dates()[first:], names, values[first:].copy(), carry or Carry())


def write_feature_csv(matrix: FeatureMatrix) -> str:
    """Render a feature matrix as CSV with 17 significant digits per value."""
    lines = ["Date," + ",".join(matrix.column_names)]
    for day, row in zip(matrix.dates, matrix.values):
        lines.append(day.isoformat() + "," + ",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
