"""Loading, validating, and slicing daily OHLCV price history.

The on-disk format is the seven-column CSV that finance.yahoo.com serves for
daily history: ``Date,Open,High,Low,Close,Adj Close,Volume`` with ISO dates
and plain decimal numbers. Rows whose numeric fields hold the literal token
``null`` (the site's marker for an empty trading day) are dropped and
counted, never interpolated. Dates are carried as opaque labels; nothing in
the pipeline does calendar arithmetic on them.
"""

from __future__ import annotations

import calendar
import math
import operator
import re
from dataclasses import dataclass, field
from datetime import date as Date

import numpy as np

CSV_HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"

DEFAULT_ENDPOINT = (
    "https://query1.finance.yahoo.com/v7/finance/download/{symbol}"
    "?period1={start_epoch}&period2={end_epoch}&interval=1d&events=history"
)


# A row's six numeric fields, each a plain decimal number as repr() writes one.
# float() alone would also take padding, digit-group underscores, non-ASCII
# digits, inf and nan.
_NUMBER = r"[+-]?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_NUMBER_FIELDS = re.compile(",".join([_NUMBER] * 6))


class MarketDataError(Exception):
    """Base class for everything raised by this module."""


class MalformedHeader(MarketDataError):
    pass


class MalformedRow(MarketDataError):
    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number


class EmptySeries(MarketDataError):
    pass


class NonAscendingDates(MarketDataError):
    def __init__(self, offending: Date):
        super().__init__(f"dates not strictly ascending at {offending.isoformat()}")
        self.date = offending


class InvariantViolation(MarketDataError):
    def __init__(self, bar_date: Date, field: str, reason: str):
        super().__init__(f"{bar_date.isoformat()}: {field}: {reason}")
        self.date = bar_date
        self.field = field


class InvalidRange(MarketDataError):
    pass


class NetworkError(MarketDataError):
    pass


class HttpStatus(MarketDataError):
    def __init__(self, code: int):
        super().__init__(f"unexpected HTTP status {code}")
        self.code = code


class UnexpectedSchema(MarketDataError):
    pass


@dataclass(frozen=True)
class Bar:
    """One trading day: prices in quote currency, volume in shares."""

    date: Date
    open: float
    high: float
    low: float
    close: float
    adj_close: float
    volume: float


def check_bar(bar: Bar) -> None:
    """Raise InvariantViolation if the bar's fields are out of range."""
    for name in ("open", "high", "low", "close", "adj_close"):
        value = getattr(bar, name)
        if not math.isfinite(value) or value <= 0.0:
            raise InvariantViolation(bar.date, name, "price must be finite and positive")
    if not math.isfinite(bar.volume) or bar.volume < 0.0:
        raise InvariantViolation(bar.date, "volume", "volume must be finite and non-negative")
    if bar.low > bar.high or bar.low > min(bar.open, bar.close):
        raise InvariantViolation(bar.date, "low", "low exceeds high, open, or close")
    if bar.high < max(bar.open, bar.close):
        raise InvariantViolation(bar.date, "high", "high below open or close")


@dataclass(frozen=True, eq=False)
class OhlcvSeries:
    """Date-ascending sequence of daily bars for one symbol.

    ``dropped_nulls`` counts rows removed at parse time because their numeric
    fields were "null"; ``flat_zero_volume_bars`` counts retained bars that
    look like exchange-holiday artifacts (zero volume, open=high=low=close).
    Both are zero on series derived by slicing.

    The date tuple is built once, on construction. Each price column is built
    on first use and then cached read-only, so writing into one raises.
    """

    symbol: str
    bars: tuple[Bar, ...]
    dropped_nulls: int = 0
    flat_zero_volume_bars: int = 0
    _dates: tuple[Date, ...] = field(init=False, repr=False)
    _columns: dict[str, np.ndarray] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        dates = tuple(b.date for b in self.bars)
        if not all(map(operator.lt, dates, dates[1:])):
            raise NonAscendingDates(next(c for p, c in zip(dates, dates[1:]) if not p < c))
        object.__setattr__(self, "_dates", dates)

    def __len__(self) -> int:
        return len(self.bars)

    def dates(self) -> tuple[Date, ...]:
        return self._dates

    def _column(self, name: str) -> np.ndarray:
        column = self._columns.get(name)
        if column is None:
            column = np.array([getattr(b, name) for b in self.bars], dtype=np.float64)
            column.flags.writeable = False
            self._columns[name] = column
        return column

    def highs(self) -> np.ndarray:
        return self._column("high")

    def lows(self) -> np.ndarray:
        return self._column("low")

    def closes(self) -> np.ndarray:
        return self._column("close")

    def adj_closes(self) -> np.ndarray:
        return self._column("adj_close")

    def with_close_from_adj(self) -> "OhlcvSeries":
        """Substitute the adjusted close as the modeled price.

        High/low/open keep their raw values, so derived bars may break the
        usual low <= close <= high ordering; indicator math does not care.
        The new series starts with this series' adj-close column cached as
        both its close and adj-close columns.
        """
        bars = tuple(Bar(b.date, b.open, b.high, b.low, b.adj_close, b.adj_close, b.volume)
                     for b in self.bars)
        swapped = OhlcvSeries(self.symbol, bars, self.dropped_nulls, self.flat_zero_volume_bars)
        adj = self.adj_closes()
        swapped._columns.update(close=adj, adj_close=adj)
        return swapped


def _parse_date(token: str, line_number: int) -> Date:
    # date.fromisoformat grew laxer in 3.11; pin the YYYY-MM-DD shape here
    if len(token) != 10 or token[4] != "-" or token[7] != "-":
        raise MalformedRow(line_number, f"bad date {token!r}")
    try:
        return Date.fromisoformat(token)
    except ValueError:
        raise MalformedRow(line_number, f"bad date {token!r}") from None


def parse_csv(text: str, symbol: str) -> OhlcvSeries:
    """Parse a daily-history CSV into a validated OhlcvSeries.

    Raises MalformedHeader, MalformedRow, InvariantViolation,
    NonAscendingDates, or EmptySeries. Successful loads satisfy
    len(bars) + dropped_nulls + 1 == number of lines in the input.
    """
    lines = text.lstrip("﻿").splitlines()
    if not lines or lines[0].rstrip("\r") != CSV_HEADER:
        raise MalformedHeader(f"expected header {CSV_HEADER!r}")
    bars: list[Bar] = []
    dropped = 0
    flat_flagged = 0
    for line_number, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip("\r")
        fields = line.split(",")
        if len(fields) != 7:
            raise MalformedRow(line_number, f"expected 7 comma-separated fields, got {len(fields)}")
        if "null" in fields[1:]:
            dropped += 1
            continue
        bar_date = _parse_date(fields[0], line_number)
        if not _NUMBER_FIELDS.fullmatch(line, len(fields[0]) + 1):
            raise MalformedRow(line_number, "non-numeric field")
        bar = Bar(bar_date, *map(float, fields[1:]))
        check_bar(bar)
        if bar.volume == 0.0 and bar.open == bar.high == bar.low == bar.close:
            flat_flagged += 1
        bars.append(bar)
    if not bars:
        raise EmptySeries("no data rows")
    return OhlcvSeries(symbol, tuple(bars), dropped, flat_flagged)


def serialize_csv(series: OhlcvSeries) -> str:
    """Inverse of parse_csv; float fields use shortest round-trip repr."""
    lines = [CSV_HEADER]
    for b in series.bars:
        lines.append(
            f"{b.date.isoformat()},{b.open!r},{b.high!r},{b.low!r},"
            f"{b.close!r},{b.adj_close!r},{b.volume!r}"
        )
    return "\n".join(lines) + "\n"


def slice_by_date(series: OhlcvSeries, start: Date, end: Date) -> OhlcvSeries:
    """Bars with start <= date <= end. May be empty; raises InvalidRange if start > end."""
    if start > end:
        raise InvalidRange(f"start {start.isoformat()} after end {end.isoformat()}")
    kept = tuple(b for b in series.bars if start <= b.date <= end)
    return OhlcvSeries(series.symbol, kept)


def _epoch(day: Date) -> int:
    return calendar.timegm(day.timetuple())


def fetch_quotes(
    symbol: str,
    start: Date,
    end: Date,
    endpoint: str = DEFAULT_ENDPOINT,
    timeout: float = 30.0,
) -> str:
    """Download a daily-history CSV and return its text without writing files.

    The endpoint is a URL template with {symbol}, {start}, {end},
    {start_epoch}, {end_epoch} placeholders so tests can point it at a local
    fixture server. The first response line must be the expected header.
    """
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    try:
        url = endpoint.format(
            symbol=symbol,
            start=start.isoformat(),
            end=end.isoformat(),
            start_epoch=_epoch(start),
            end_epoch=_epoch(end),
        )
    except (KeyError, IndexError, ValueError) as exc:
        raise NetworkError(f"bad endpoint template: {exc}") from exc
    try:
        if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
            raise NetworkError(f"not an http(s) URL: {url!r}")
        with urllib.request.urlopen(url, timeout=timeout) as response:
            status, body = response.status, response.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        raise HttpStatus(exc.code) from exc
    # URLError and socket timeouts are OSErrors; a malformed URL is a ValueError
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise NetworkError(str(exc)) from exc
    if status != 200:
        raise HttpStatus(status)
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UnexpectedSchema("response is not UTF-8 text") from exc
    lines = text.lstrip("﻿").splitlines()
    if not lines or lines[0].rstrip("\r") != CSV_HEADER:
        raise UnexpectedSchema("response is not a daily-history CSV")
    return text
