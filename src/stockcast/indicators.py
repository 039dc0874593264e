"""Technical indicators and feature-matrix assembly.

Each indicator returns one value per input bar, with nan marking positions
where its lookback window is not yet full. build_features stacks the
requested columns and trims the common warmup prefix, so downstream stages
only ever see finite values.

Degenerate inputs use fixed conventions instead of dividing by zero:
RSI on a flat stretch is 50 (100 when losses vanish, 0 when gains do),
CCI is 0 when the mean absolute deviation is 0, the stochastic %K is 50
when highest high equals lowest low, and the accumulation/distribution
ratio is 0 when high equals low.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .market_data import OhlcvSeries

UNIVARIATE = "univariate"
PAPER_MULTIVARIATE = "paper_multivariate"
TABLE4_ALL = "table4_all"
COLUMN_SETS = (UNIVARIATE, PAPER_MULTIVARIATE, TABLE4_ALL)


class IndicatorError(Exception):
    pass


class SeriesTooShort(IndicatorError):
    def __init__(self, needed: int, have: int):
        super().__init__(f"need at least {needed} bars, have {have}")
        self.needed = needed
        self.have = have

    def __reduce__(self):
        return type(self), (self.needed, self.have)


@dataclass(frozen=True)
class IndicatorConfig:
    """Periods and smoothing constants for every indicator."""

    sma_periods: tuple[int, ...] = (10, 50, 200)
    wma_period: int = 10
    ema_alpha: float = 0.1
    rsi_period: int = 14
    cci_period: int = 20
    stoch_k_period: int = 14
    stoch_d_period: int = 10
    macd_fast: int = 12
    macd_slow: int = 26
    macd_signal: int = 9

    def __post_init__(self):
        object.__setattr__(self, "sma_periods", tuple(int(p) for p in self.sma_periods))
        periods = (
            *self.sma_periods,
            self.wma_period,
            self.rsi_period,
            self.cci_period,
            self.stoch_k_period,
            self.stoch_d_period,
            self.macd_fast,
            self.macd_slow,
            self.macd_signal,
        )
        if not self.sma_periods:
            raise ValueError("sma_periods must not be empty")
        if any(p < 1 for p in periods):
            raise ValueError("indicator periods must be >= 1")
        if not 0.0 < self.ema_alpha < 1.0:
            raise ValueError("ema_alpha must lie in (0, 1)")
        if self.macd_fast >= self.macd_slow:
            raise ValueError("macd_fast must be smaller than macd_slow")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Aligned date-indexed feature columns with the warmup prefix removed."""

    dates: tuple
    column_names: tuple[str, ...]
    values: np.ndarray
    warmup_dropped: int = 0

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape != (len(self.dates), len(self.column_names)):
            raise ValueError("values shape does not match dates and column_names")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.column_names.index(name)
        except ValueError:
            raise KeyError(name) from None
        return self.values[:, idx]


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
        out[n - 1 :] = sliding_window_view(x, n).mean(axis=1)
    return out


def cma(closes) -> np.ndarray:
    """Cumulative mean of everything seen so far; defined from the first bar."""
    x = _as_floats(closes)
    if x.size == 0:
        return x.copy()
    return np.cumsum(x) / np.arange(1, x.size + 1, dtype=np.float64)


def wma(closes, n: int) -> np.ndarray:
    """Weighted moving average, weight n on the newest value down to 1 on the oldest."""
    _check_period(n)
    x = _as_floats(closes)
    out = np.full(x.shape, np.nan)
    if 0 < n <= x.size:
        weights = np.arange(1, n + 1, dtype=np.float64)  # oldest..newest
        denom = n * (n + 1) / 2.0
        out[n - 1 :] = sliding_window_view(x, n) @ weights / denom
    return out


def ema(closes, alpha: float) -> np.ndarray:
    """Exponential moving average seeded at the first value.

    Position t holds value[t - 1] + alpha * (closes[t] - value[t - 1]), the
    usual alpha * closes[t] + (1 - alpha) * value[t - 1] in a form that is
    exact when closes[t] equals value[t - 1], so a flat stretch stays flat.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    x = _as_floats(closes)
    if x.size == 0:
        return x.copy()
    values = x.tolist()  # Python floats step far faster than numpy scalars
    prev = values[0]
    out = [prev]
    for value in values[1:]:
        prev = prev + alpha * (value - prev)
        out.append(prev)
    return np.array(out, dtype=np.float64)


def rsi(closes, n: int) -> np.ndarray:
    """Relative strength index with Wilder smoothing; first defined at position n.

    Wilder's averages run as one Python-float loop; the map to RSI values is
    vectorized with the same elementwise float64 operations, so both zero
    gives 50, a zero average loss 100 and a zero average gain 0, in that order.
    """
    _check_period(n)
    x = _as_floats(closes)
    out = np.full(x.shape, np.nan)
    if x.size < n + 1:
        return out
    diffs = np.diff(x)
    averages = []
    for moves in (np.maximum(diffs, 0.0), np.maximum(-diffs, 0.0)):
        avg = float(moves[:n].mean())
        smoothed = [avg]
        for move in moves[n:].tolist():
            avg = (avg * (n - 1) + move) / n
            smoothed.append(avg)
        averages.append(np.array(smoothed))
    gain, loss = averages
    with np.errstate(divide="ignore", invalid="ignore"):
        out[n:] = np.where(
            loss == 0.0,
            np.where(gain == 0.0, 50.0, 100.0),
            np.where(gain == 0.0, 0.0, 100.0 - 100.0 / (1.0 + gain / loss)),
        )
    return out


def cci(series: OhlcvSeries, n: int) -> np.ndarray:
    """Commodity channel index on the typical price (high + low + close) / 3."""
    _check_period(n)
    m = (series.highs() + series.lows() + series.closes()) / 3.0
    out = np.full(m.shape, np.nan)
    if 0 < n <= m.size:
        windows = sliding_window_view(m, n)
        sm = windows.mean(axis=1)
        dev = np.abs(windows - sm[:, None]).mean(axis=1)
        safe = np.where(dev > 0.0, dev, 1.0)
        out[n - 1 :] = np.where(dev > 0.0, (m[n - 1 :] - sm) / (0.015 * safe), 0.0)
    return out


def ad(series: OhlcvSeries) -> np.ndarray:
    """Per-bar accumulation/distribution ratio (high_t - close_{t-1}) / (high_t - low_t)."""
    h = series.highs()
    l = series.lows()
    c = series.closes()
    out = np.full(c.shape, np.nan)
    if c.size >= 2:
        num = h[1:] - c[:-1]
        den = h[1:] - l[1:]
        safe = np.where(den != 0.0, den, 1.0)
        out[1:] = np.where(den != 0.0, num / safe, 0.0)
    return out


def stochastic_k(series: OhlcvSeries, n: int) -> np.ndarray:
    """%K: close position inside the n-bar high/low channel, scaled to [0, 100]."""
    _check_period(n)
    h = series.highs()
    l = series.lows()
    c = series.closes()
    out = np.full(c.shape, np.nan)
    if 0 < n <= c.size:
        hh = sliding_window_view(h, n).max(axis=1)
        ll = sliding_window_view(l, n).min(axis=1)
        span = hh - ll
        safe = np.where(span > 0.0, span, 1.0)
        out[n - 1 :] = np.where(span > 0.0, (c[n - 1 :] - ll) * 100.0 / safe, 50.0)
    return out


def stochastic_d(k_values, m: int) -> np.ndarray:
    """%D: m-period simple mean of %K. nan while any window value is undefined."""
    _check_period(m)
    k = _as_floats(k_values)
    out = np.full(k.shape, np.nan)
    if 0 < m <= k.size:
        out[m - 1 :] = sliding_window_view(k, m).mean(axis=1)
    return out


def macd(closes, fast: int = 12, slow: int = 26, signal_n: int = 9):
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
    x = _as_floats(closes)
    diff = ema(x, 2.0 / (fast + 1)) - ema(x, 2.0 / (slow + 1)) if x.size else x.copy()
    signal = ema(diff, 2.0 / (signal_n + 1)) if x.size else x.copy()
    histogram = diff - signal
    return diff, signal, histogram


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


def build_features(
    series: OhlcvSeries,
    cfg: IndicatorConfig = IndicatorConfig(),
    column_set: str = PAPER_MULTIVARIATE,
    use_adj_close: bool = False,
) -> FeatureMatrix:
    """Assemble the requested columns and trim rows where any is undefined.

    warmup_dropped records how many leading rows were removed; with the
    default periods the 200-bar SMA dominates and drops 199 rows.
    Raises SeriesTooShort when no row survives.
    """
    if column_set not in COLUMN_SETS:
        raise ValueError(f"unknown column set {column_set!r}")
    src = series.with_close_from_adj() if use_adj_close else series
    closes = src.closes()
    names = column_names_for(cfg, column_set)
    columns: dict[str, np.ndarray] = {"Close": closes.copy()}
    if column_set != UNIVARIATE:
        columns["CMA"] = cma(closes)
        for n in cfg.sma_periods:
            columns[f"SMA{n}"] = sma(closes, n)
        columns[f"EMA_{cfg.ema_alpha:g}"] = ema(closes, cfg.ema_alpha)
        columns["RSI"] = rsi(closes, cfg.rsi_period)
        k = stochastic_k(src, cfg.stoch_k_period)
        columns["K%"] = k
        columns["D%"] = stochastic_d(k, cfg.stoch_d_period)
        columns["CCI"] = cci(src, cfg.cci_period)
        diff, signal, histogram = macd(closes, cfg.macd_fast, cfg.macd_slow, cfg.macd_signal)
        columns["macd"] = diff
        columns["macd_s"] = signal
        columns["macd_h"] = histogram
        if column_set == TABLE4_ALL:
            columns[f"WMA{cfg.wma_period}"] = wma(closes, cfg.wma_period)
            columns["AD"] = ad(src)
    values = np.column_stack([columns[name] for name in names])
    finite_rows = np.all(np.isfinite(values), axis=1)
    defined = np.nonzero(finite_rows)[0]
    if defined.size == 0:
        raise SeriesTooShort(_min_rows_needed(cfg, column_set), len(series))
    first = int(defined[0])
    if not finite_rows[first:].all():
        # cannot happen for finite bar inputs; guard against silent nan leaks
        bad = int(np.nonzero(~finite_rows[first:])[0][0]) + first
        raise IndicatorError(f"non-finite feature value at row {bad}")
    return FeatureMatrix(
        dates=src.dates()[first:],
        column_names=names,
        values=values[first:].copy(),
        warmup_dropped=first,
    )


def write_feature_csv(matrix: FeatureMatrix) -> str:
    """Render a feature matrix as CSV with 17 significant digits per value."""
    lines = ["Date," + ",".join(matrix.column_names)]
    for day, row in zip(matrix.dates, matrix.values):
        lines.append(day.isoformat() + "," + ",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
