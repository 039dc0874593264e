"""Indicator math against naive loop oracles, hand cases, and invariances."""

import math
import warnings
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stockcast.indicators import (
    COLUMN_SETS,
    PAPER_MULTIVARIATE,
    TABLE4_ALL,
    UNIVARIATE,
    IndicatorConfig,
    IndicatorError,
    SeriesTooShort,
    _min_rows_needed,
    ad,
    build_features,
    cci,
    cma,
    column_names_for,
    ema,
    macd,
    rsi,
    sma,
    stochastic_k,
    wma,
    write_feature_csv,
)
from stockcast.market_data import Bar, OhlcvSeries

from conftest import flat_series, random_walk_series
from test_scaling import column

nan = math.nan


def bars_from_hlc(rows, volume=100.0):
    day = date(2020, 3, 2)
    bars = []
    for high, low, close in rows:
        open_ = min(high, max(low, close))
        bars.append(Bar(day, open_, high, low, close, close, volume))
        day += timedelta(days=1)
    return OhlcvSeries("HLC", tuple(bars))


# ---------------------------------------------------------------- naive oracles

def naive_sma(xs, n):
    out = [nan] * len(xs)
    for t in range(n - 1, len(xs)):
        out[t] = sum(xs[t - n + 1 : t + 1]) / n
    return out


def naive_cma(xs):
    out = []
    total = 0.0
    for t, x in enumerate(xs):
        total += x
        out.append(total / (t + 1))
    return out


def naive_wma(xs, n):
    out = [nan] * len(xs)
    denom = n * (n + 1) / 2.0
    for t in range(n - 1, len(xs)):
        window = xs[t - n + 1 : t + 1]
        out[t] = sum((i + 1) * window[i] for i in range(n)) / denom
    return out


def naive_ema(xs, alpha):
    out = []
    for t, x in enumerate(xs):
        out.append(x if t == 0 else alpha * x + (1.0 - alpha) * out[-1])
    return out


def naive_rsi(xs, n):
    out = [nan] * len(xs)
    if len(xs) < n + 1:
        return out
    gains = [max(xs[t] - xs[t - 1], 0.0) for t in range(1, len(xs))]
    losses = [max(xs[t - 1] - xs[t], 0.0) for t in range(1, len(xs))]
    avg_gain = sum(gains[:n]) / n
    avg_loss = sum(losses[:n]) / n

    def value(g, l):
        if g == 0.0 and l == 0.0:
            return 50.0
        if l == 0.0:
            return 100.0
        if g == 0.0:
            return 0.0
        return 100.0 - 100.0 / (1.0 + g / l)

    out[n] = value(avg_gain, avg_loss)
    for t in range(n + 1, len(xs)):
        avg_gain = (avg_gain * (n - 1) + gains[t - 1]) / n
        avg_loss = (avg_loss * (n - 1) + losses[t - 1]) / n
        out[t] = value(avg_gain, avg_loss)
    return out


def naive_cci(series, n):
    m = [(b.high + b.low + b.close) / 3.0 for b in series.bars]
    out = [nan] * len(m)
    for t in range(n - 1, len(m)):
        window = m[t - n + 1 : t + 1]
        mean = sum(window) / n
        dev = sum(abs(v - mean) for v in window) / n
        out[t] = 0.0 if dev == 0.0 else (m[t] - mean) / (0.015 * dev)
    return out


def naive_ad(series):
    out = [nan]
    for prev, cur in zip(series.bars, series.bars[1:]):
        span = cur.high - cur.low
        out.append(0.0 if span == 0.0 else (cur.high - prev.close) / span)
    return out


def naive_k(series, n):
    bars = series.bars
    out = [nan] * len(bars)
    for t in range(n - 1, len(bars)):
        window = bars[t - n + 1 : t + 1]
        hh = max(b.high for b in window)
        ll = min(b.low for b in window)
        out[t] = 50.0 if hh == ll else (bars[t].close - ll) * 100.0 / (hh - ll)
    return out


def naive_d(ks, m):
    out = [nan] * len(ks)
    for t in range(m - 1, len(ks)):
        window = ks[t - m + 1 : t + 1]
        out[t] = nan if any(math.isnan(v) for v in window) else sum(window) / m
    return out


def close_nan(got, want, rtol=1e-9):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    mask = ~np.isnan(want)
    assert np.allclose(got[mask], want[mask], rtol=rtol, atol=1e-12)


# ------------------------------------------------------------------- hand cases

def test_sma_hand_cases():
    close_nan(sma([1.0, 2.0, 3.0, 4.0], 2), [nan, 1.5, 2.5, 3.5])
    close_nan(sma([5.0, 5.0, 5.0, 5.0], 2), [nan, 5.0, 5.0, 5.0])
    assert np.isnan(sma([1.0, 2.0], 5)).all()
    with pytest.raises(ValueError):
        sma([1.0], 0)


def test_cma_hand_case():
    close_nan(cma([2.0, 4.0]), [2.0, 3.0])
    close_nan(cma([1.0, 2.0, 3.0, 4.0]), [1.0, 1.5, 2.0, 2.5])


def test_wma_hand_case():
    close_nan(wma([1.0, 2.0, 3.0], 2), [nan, 5.0 / 3.0, 8.0 / 3.0])


def test_ema_hand_cases():
    close_nan(ema([10.0, 20.0], 0.1), [10.0, 11.0])
    x = list(np.linspace(3.0, 9.0, 25))
    assert np.array_equal(ema(x, 2.0 / 20.0), ema(x, 0.1))
    with pytest.raises(ValueError):
        ema(x, 1.0)
    with pytest.raises(ValueError):
        ema(x, 0.0)


def test_rsi_conventions():
    rising = rsi(np.arange(1.0, 21.0), 14)[0]
    assert np.isnan(rising[:14]).all()
    assert (rising[14:] == 100.0).all()
    assert (rsi(np.full(20, 5.0), 14)[0][14:] == 50.0).all()
    falling = rsi(np.arange(21.0, 1.0, -1.0), 14)[0]
    assert (falling[14:] == 0.0).all()


def test_cci_hand_case():
    series = flat_series([10.0, 20.0, 30.0])
    got = cci(series, 3)
    assert math.isnan(got[0]) and math.isnan(got[1])
    assert got[2] == pytest.approx(100.0, rel=1e-12)
    assert cci(flat_series([7.0, 7.0, 7.0]), 3)[2] == 0.0


def test_ad_hand_cases():
    series = bars_from_hlc([(110, 90, 100), (110, 90, 105), (105, 95, 100)])
    got = ad(series)
    assert math.isnan(got[0])
    assert got[1] == 0.5
    assert got[2] == 0.0
    flat = ad(flat_series([10.0, 10.0]))
    assert flat[1] == 0.0


def test_stochastic_hand_cases():
    series = bars_from_hlc([(10, 2, 5), (20, 10, 11)])
    got = stochastic_k(series, 2)
    assert math.isnan(got[0])
    assert got[1] == 50.0
    assert stochastic_k(flat_series([4.0, 4.0]), 2)[1] == 50.0
    close_nan(sma([0.0, 100.0], 2), [nan, 50.0])
    close_nan(sma([nan, 40.0, 60.0], 2), [nan, nan, 50.0])


def test_macd_identities():
    closes = random_walk_series(120, seed=5).closes()
    diff, signal, hist = macd(closes)
    assert np.array_equal(hist, diff - signal)
    assert np.array_equal(signal, ema(diff, 2.0 / 10.0))
    assert np.array_equal(diff, ema(closes, 2.0 / 13.0) - ema(closes, 2.0 / 27.0))
    assert np.allclose(hist + signal, diff, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        macd(closes, fast=26, slow=12)


# ------------------------------------------------------------- oracle comparison

def test_ops_match_naive_oracles():
    series = random_walk_series(300, seed=3)
    closes = series.closes()
    xs = closes.tolist()
    close_nan(sma(closes, 10), naive_sma(xs, 10))
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
    close_nan(hist, diff - signal)


# ------------------------------------------------------------------- properties

positive_lists = st.lists(
    st.floats(min_value=1.0, max_value=10_000.0, allow_nan=False), min_size=25, max_size=60
)
shifts = st.floats(min_value=0.5, max_value=1_000.0, allow_nan=False)
scales = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


@given(positive_lists, shifts)
def test_level_ops_shift_equivariant(xs, c):
    x = np.array(xs)
    for f in (lambda v: sma(v, 5), cma, lambda v: wma(v, 5), lambda v: ema(v, 0.1)):
        close_nan(f(x + c), np.asarray(f(x)) + c, rtol=1e-9)


@given(positive_lists, scales)
@example(xs=[107.5, 107.5] + [1.0] * 23, c=91.0075)
def test_level_ops_scale_homogeneous(xs, c):
    x = np.array(xs)
    for f in (lambda v: sma(v, 5), cma, lambda v: wma(v, 5), lambda v: ema(v, 0.1)):
        close_nan(f(c * x), c * np.asarray(f(x)), rtol=1e-9)
    diff_scaled, signal_scaled, hist_scaled = macd(c * x)
    diff, signal, hist = macd(x)
    close_nan(diff_scaled, c * diff, rtol=1e-9)
    close_nan(signal_scaled, c * signal, rtol=1e-9)


@given(positive_lists, shifts, scales)
def test_rsi_shift_invariant_scale_invariant_bounded(xs, c, s):
    x = np.array(xs)
    base = rsi(x, 14)[0]
    close_nan(rsi(x + c, 14)[0], base, rtol=1e-9)
    close_nan(rsi(s * x, 14)[0], base, rtol=1e-9)
    finite = base[~np.isnan(base)]
    assert ((finite >= 0.0) & (finite <= 100.0)).all()


def scaled_series(series, factor):
    bars = tuple(
        Bar(
            b.date,
            b.open * factor,
            b.high * factor,
            b.low * factor,
            b.close * factor,
            b.adj_close * factor,
            b.volume,
        )
        for b in series.bars
    )
    return OhlcvSeries(series.symbol, bars)


@given(st.integers(0, 10**6), scales)
def test_channel_ops_scale_invariant_and_bounded(seed, factor):
    series = random_walk_series(80, seed=seed)
    k = stochastic_k(series, 14)
    k_scaled = stochastic_k(scaled_series(series, factor), 14)
    close_nan(k_scaled, k, rtol=1e-9)
    finite = k[~np.isnan(k)]
    assert ((finite >= 0.0) & (finite <= 100.0)).all()
    d = sma(k, 10)
    finite_d = d[~np.isnan(d)]
    assert ((finite_d >= 0.0) & (finite_d <= 100.0)).all()
    close_nan(cci(scaled_series(series, factor), 20), cci(series, 20), rtol=1e-6)


# ------------------------------------------- exactness against per-element loops

def elementwise_ema(closes, alpha):
    """ema as a loop over numpy scalars, one element at a time."""
    x = np.asarray(closes, dtype=np.float64)
    out = np.empty_like(x)
    if x.size == 0:
        return out
    prev = out[0] = x[0]
    for t in range(1, x.size):
        prev = out[t] = prev + alpha * (x[t] - prev)
    return out


def elementwise_rsi(closes, n):
    """rsi as a loop over numpy scalars, mapping each pair of averages by branches."""

    def value(avg_gain, avg_loss):
        if avg_loss == 0.0 and avg_gain == 0.0:
            return 50.0
        if avg_loss == 0.0:
            return 100.0
        if avg_gain == 0.0:
            return 0.0
        return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)

    x = np.asarray(closes, dtype=np.float64)
    out = np.full(x.shape, np.nan)
    if x.size < n + 1:
        return out
    diffs = np.diff(x)
    gains = np.maximum(diffs, 0.0)
    losses = np.maximum(-diffs, 0.0)
    avg_gain = gains[:n].mean()
    avg_loss = losses[:n].mean()
    out[n] = value(avg_gain, avg_loss)
    for t in range(n + 1, x.size):
        avg_gain = (avg_gain * (n - 1) + gains[t - 1]) / n
        avg_loss = (avg_loss * (n - 1) + losses[t - 1]) / n
        out[t] = value(avg_gain, avg_loss)
    return out


@st.composite
def price_paths(draw):
    """Concatenated flat, all-gain, all-loss and noisy runs from a random start."""
    steps = [0.0]
    for kind, length, size in draw(st.lists(
        st.tuples(st.sampled_from(["flat", "up", "down", "noise"]), st.integers(1, 30),
                  st.floats(0.01, 5.0)),
        min_size=1, max_size=6,
    )):
        if kind == "noise":
            steps += draw(st.lists(st.floats(-size, size), min_size=length, max_size=length))
        else:
            steps += [{"flat": 0.0, "up": size, "down": -size}[kind]] * length
    return draw(st.floats(1.0, 1000.0)) + np.cumsum(steps)


exact = settings(max_examples=200, derandomize=True, deadline=None, database=None)


@exact
@given(price_paths(), st.floats(0.001, 0.999))
@example(xs=np.full(40, 7.25), alpha=0.1)
def test_ema_matches_elementwise_loop_exactly(xs, alpha):
    assert np.array_equal(ema(xs, alpha), elementwise_ema(xs, alpha), equal_nan=True)
    diff, signal, _ = macd(xs)
    assert np.array_equal(signal, elementwise_ema(diff, 0.2), equal_nan=True)


@exact
@given(price_paths(), st.integers(1, 20))
@example(xs=np.full(40, 7.25), n=14)  # both averages zero: 50
@example(xs=np.arange(1.0, 41.0), n=14)  # losses vanish: 100
@example(xs=np.arange(41.0, 1.0, -1.0), n=14)  # gains vanish: 0
@example(xs=np.r_[np.arange(10.0, 26.0), np.full(20, 25.0), np.arange(25.0, 5.0, -1.0)], n=5)
def test_rsi_matches_elementwise_loop_exactly(xs, n):
    assert np.array_equal(rsi(xs, n)[0], elementwise_rsi(xs, n), equal_nan=True)


@exact
@given(price_paths(), st.integers(1, 20), st.integers(0, 60))
@example(xs=np.full(40, 7.25), n=14, cut=3)
def test_ema_and_rsi_continue_from_their_state_exactly(xs, n, cut):
    # a run continued from its state at any bar equals the whole run from there, bit for bit
    whole = ema(xs, 0.1)
    cut = 1 + cut % xs.size
    assert ema(xs[cut:], 0.1, whole[cut - 1]).tobytes() == whole[cut:].tobytes()
    values, gain, loss = rsi(xs, n)
    if xs.size > n:
        cut = n + cut % (xs.size - n)  # a bar where Wilder's averages are defined
        seeds = (gain[cut - n], loss[cut - n])
        got = rsi(xs[cut:], n, seeds)
        assert got[0].tobytes() == values[cut:].tobytes()
        assert (got[1].tobytes(), got[2].tobytes()) == (gain[cut - n :].tobytes(),
                                                        loss[cut - n :].tobytes())


# ------------------------------------------------------------- feature assembly

def test_column_sets():
    cfg = IndicatorConfig()
    assert column_names_for(cfg, UNIVARIATE) == ("Close",)
    assert column_names_for(cfg, PAPER_MULTIVARIATE) == (
        "Close", "CMA", "SMA10", "SMA50", "SMA200", "EMA_0.1",
        "RSI", "K%", "D%", "CCI", "macd", "macd_s", "macd_h",
    )
    assert column_names_for(cfg, TABLE4_ALL) == column_names_for(cfg, PAPER_MULTIVARIATE) + (
        "WMA10", "AD",
    )


def test_warmup_drop_matches_longest_window():
    series = random_walk_series(2464, seed=9)
    matrix = build_features(series, IndicatorConfig(), PAPER_MULTIVARIATE)
    assert len(series) - matrix.rows == 199
    assert matrix.rows == 2265
    assert matrix.dates[0] == series.bars[199].date
    assert np.isfinite(matrix.values).all()
    close_col = column(matrix, "Close")
    assert np.array_equal(close_col, series.closes()[199:])


def test_univariate_has_no_warmup(snapshot_series):
    matrix = build_features(snapshot_series, IndicatorConfig(), UNIVARIATE)
    assert len(snapshot_series) - matrix.rows == 0
    assert matrix.rows == 5
    assert matrix.column_names == ("Close",)


def test_too_short_series_reports_requirement():
    series = random_walk_series(100, seed=1)
    with pytest.raises(SeriesTooShort) as err:
        build_features(series, IndicatorConfig(), PAPER_MULTIVARIATE)
    assert err.value.needed == 200
    assert err.value.have == 100


def test_an_overflowing_indicator_is_blamed_on_its_values_not_the_length():
    # the sums behind SMA, WMA and CMA pass float64's range on bars of 1e308, so no row is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IndicatorError, match="^no feature row is finite: a feature value "
                                                 "overflows float64$") as err:
            build_features(flat_series([1e308] * 400), IndicatorConfig(), TABLE4_ALL)
        assert not isinstance(err.value, SeriesTooShort)
        with pytest.raises(SeriesTooShort, match="^need at least 200 bars, have 100$"):
            build_features(random_walk_series(100, seed=1), IndicatorConfig(), TABLE4_ALL)


def test_adj_close_switch_changes_close_column(snapshot_series):
    matrix = build_features(snapshot_series, IndicatorConfig(), UNIVARIATE, use_adj_close=True)
    assert np.array_equal(column(matrix, "Close"), snapshot_series.adj_closes())


def adjusted_walk(n, seed, factor):
    """A random walk whose adjusted close is factor(i) times its close at bar i."""
    walk = random_walk_series(n, seed)
    return OhlcvSeries(walk.symbol, tuple(replace(b, adj_close=b.close * factor(i))
                                          for i, b in enumerate(walk.bars)))


def test_adj_close_features_equal_features_of_the_replaced_bars():
    # an adjusted close that drifts away from the close, as after dividends
    series = adjusted_walk(300, 4, lambda i: 0.8 + 0.001 * i)
    replaced = OhlcvSeries(series.symbol, tuple(replace(b, close=b.adj_close) for b in series.bars))
    bar = np.full(6, series.adj_closes()[-1] * 1.01)  # a synthetic next bar
    bar[5] = 1000.0
    cfg = IndicatorConfig()
    for column_set in COLUMN_SETS:
        got = build_features(series, cfg, column_set, use_adj_close=True)
        want = build_features(replaced, cfg, column_set)
        assert (got.column_names, got.dates, got.carry) == (want.column_names, want.dates,
                                                             want.carry)
        assert got.values.tobytes() == want.values.tobytes()
        # and so do the carried rows that extend them by the same bar
        tail = _min_rows_needed(cfg, column_set) + 1
        (got_row, got_carry), (want_row, want_carry) = (
            build_features(np.column_stack((source.block[:, 1 - tail :], bar)), cfg, column_set,
                           use_adj_close, full.carry)
            for source, use_adj_close, full in ((series, True, got), (replaced, False, want))
        )
        assert got_row.tobytes() == want_row.tobytes() and got_carry == want_carry


def test_adj_close_carried_step_leaves_the_block_unchanged():
    # forecast_recursive writes each prediction into the block it passes, so the swap must copy
    series = adjusted_walk(300, 8, lambda i: 0.5)
    block = np.column_stack((series.block, [60.0, 60.0, 60.0, 60.0, 55.0, 1000.0]))
    before = block.copy()
    cfg = IndicatorConfig()
    carry = build_features(series, cfg, PAPER_MULTIVARIATE, use_adj_close=True).carry
    tail = _min_rows_needed(cfg, PAPER_MULTIVARIATE) + 1
    row, _ = build_features(block[:, -tail:], cfg, PAPER_MULTIVARIATE, True, carry)
    assert row[0] == 55.0  # the new bar's adjusted close
    assert block.flags.writeable and block.tobytes() == before.tobytes()
    assert series.block.tobytes() == before[:, :-1].tobytes()


def test_feature_csv_deterministic():
    # same-machine pin: two feature builds in one process
    series = random_walk_series(260, seed=12)
    cfg = IndicatorConfig()
    a = write_feature_csv(build_features(series, cfg, PAPER_MULTIVARIATE))
    b = write_feature_csv(build_features(series, cfg, PAPER_MULTIVARIATE))
    assert a == b
    header = a.splitlines()[0]
    assert header == "Date," + ",".join(column_names_for(cfg, PAPER_MULTIVARIATE))


def test_indicator_config_validation():
    with pytest.raises(ValueError):
        IndicatorConfig(ema_alpha=1.5)
    with pytest.raises(ValueError):
        IndicatorConfig(rsi_period=0)
    with pytest.raises(ValueError):
        IndicatorConfig(macd_fast=30, macd_slow=20)
    for key in ("macd_fast", "macd_signal"):
        with pytest.raises(ValueError, match=f"^{key} must be >= 2$"):
            IndicatorConfig(**{key: 1})
        IndicatorConfig(**{key: 2})
    cfg = IndicatorConfig(sma_periods=[5, 10])
    assert cfg.sma_periods == (5, 10)


# ------------------------------------------------------------- carried state

small_configs = st.builds(
    IndicatorConfig,
    sma_periods=st.lists(st.integers(1, 30), min_size=1, max_size=3),
    wma_period=st.integers(1, 30),
    ema_alpha=st.floats(0.01, 0.99),
    rsi_period=st.integers(1, 20),
    cci_period=st.integers(1, 25),
    stoch_k_period=st.integers(1, 20),
    stoch_d_period=st.integers(1, 12),
    macd_fast=st.integers(2, 10),  # a period of 1 is an EMA alpha of 1, which ema refuses
    macd_slow=st.integers(11, 30),
    macd_signal=st.integers(2, 12),
)

# an appended bar: a synthetic one (open = high = low = close = adj close, as
# a forecast writes) or a wide one, each a relative move from the last close
appended_bars = st.lists(
    st.tuples(
        st.sampled_from(["synthetic", "wide"]),
        st.one_of(st.just(0.0), st.floats(-0.05, 0.05)),
        st.floats(0.0, 0.02),
    ),
    min_size=1,
    max_size=6,
)


@settings(exact, max_examples=100)
@given(st.one_of(st.just(IndicatorConfig()), small_configs), st.integers(0, 10**6),
       st.integers(0, 30), appended_bars)
@example(cfg=IndicatorConfig(), seed=5, extra=0, bars=[("synthetic", 0.0, 0.0)] * 4)
def test_carried_row_equals_full_rebuild_exactly(cfg, seed, extra, bars):
    # same-machine pin: a carried row against a full rebuild in one process
    walk = random_walk_series(_min_rows_needed(cfg, TABLE4_ALL) + extra, seed=seed)
    n = len(walk)
    block = np.empty((6, n + len(bars)))
    block[:, :n] = walk.block
    block[4, :n] *= np.linspace(0.8, 1.0, n)  # an adjusted close apart from the close
    dates = walk.dates() + tuple(walk.dates()[-1] + timedelta(days=i + 1) for i in range(len(bars)))
    for t, (kind, move, width) in enumerate(bars, start=n):
        close = block[3, t - 1] * (1.0 + move)
        block[:5, t] = close
        if kind == "wide":
            block[1, t], block[2, t], block[0, t] = close * (1 + width), close / (1 + width), close
            block[4, t] = close * 0.9
        block[5, t] = block[5, t - 1]
    series = OhlcvSeries.from_columns("X", dates[:n], block[:, :n])
    for column_set in COLUMN_SETS:
        tail = _min_rows_needed(cfg, column_set) + 1
        for use_adj_close in (False, True):
            carry = build_features(series, cfg, column_set, use_adj_close).carry
            for t in range(n, n + len(bars)):
                row, carry = build_features(block[:, t + 1 - tail : t + 1], cfg, column_set,
                                            use_adj_close, carry)
                extended = OhlcvSeries.from_columns("X", dates[: t + 1], block[:, : t + 1])
                full = build_features(extended, cfg, column_set, use_adj_close)
                assert row.tobytes() == full.values[-1].tobytes(), (column_set, use_adj_close, t)


def test_carried_step_needs_the_longest_window():
    series = random_walk_series(260, seed=3)
    carry = build_features(series, IndicatorConfig(), PAPER_MULTIVARIATE).carry
    with pytest.raises(SeriesTooShort) as err:
        build_features(series.block[:, -200:], IndicatorConfig(), PAPER_MULTIVARIATE, carry=carry)
    assert (err.value.needed, err.value.have) == (201, 200)
