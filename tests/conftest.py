"""Shared fixtures: canned CSV text and series builders."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import settings

from stockcast.market_data import Bar, OhlcvSeries

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# Five days of a liquid large cap, as the daily-history CSV gives them.
SNAPSHOT_CSV = (
    "Date,Open,High,Low,Close,Adj Close,Volume\n"
    "2021-12-24,2370.000000,2392.000000,2337.550049,2372.800049,2372.800049,3639616.0\n"
    "2021-12-27,2361.550049,2378.000000,2348.100098,2370.250000,2370.250000,1853948.0\n"
    "2021-12-28,2375.600098,2404.850098,2373.050049,2398.399902,2398.399902,2941883.0\n"
    "2021-12-29,2391.000000,2419.000000,2382.100098,2402.500000,2402.500000,7118779.0\n"
    "2021-12-30,2400.000000,2404.949951,2345.600098,2359.100098,2359.100098,13537254.0\n"
)

NARROW_CSV = (
    "Date,Open,High,Low,Close,Volume\n"
    "2021-12-24,1.0,2.0,0.5,1.5,100\n"
)


def flat_series(closes, symbol="TEST", start=date(2020, 1, 6), volume=1000.0):
    """Series where every bar has open=high=low=close, for exact expectations."""
    bars = []
    day = start
    for close in closes:
        value = float(close)
        bars.append(Bar(day, value, value, value, value, value, volume))
        day += timedelta(days=1)
    return OhlcvSeries(symbol, tuple(bars))


def random_walk_series(n, seed, symbol="WALK", start_price=100.0):
    """Multiplicative random walk with plausible intraday ranges and volume."""
    rng = np.random.default_rng(seed)
    closes = start_price * np.cumprod(1.0 + rng.normal(0.0005, 0.01, n))
    bars = []
    day = date(2015, 1, 2)
    for i in range(n):
        close = float(closes[i])
        open_ = close * (1.0 + float(rng.normal(0.0, 0.003)))
        high = max(open_, close) * (1.0 + abs(float(rng.normal(0.0, 0.002))))
        low = min(open_, close) * (1.0 - abs(float(rng.normal(0.0, 0.002))))
        volume = float(rng.integers(100_000, 5_000_000))
        bars.append(Bar(day, open_, high, low, close, close, volume))
        day += timedelta(days=1)
    return OhlcvSeries(symbol, tuple(bars))


@pytest.fixture
def snapshot_series():
    from stockcast.market_data import parse_csv

    return parse_csv(SNAPSHOT_CSV, "RELIANCE.NS")

