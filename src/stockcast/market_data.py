"""Loading, validating, and slicing daily OHLCV price history.

The on-disk format is the seven-column CSV that finance.yahoo.com serves for
daily history: ``Date,Open,High,Low,Close,Adj Close,Volume`` with ISO dates
and plain decimal numbers. Rows whose numeric fields hold the literal token
``null`` (the site's marker for an empty trading day) are dropped and
counted, never interpolated. A series holds a tuple of dates and one
read-only (6, n) price block; ``Bar`` objects are built only by ``parse_csv``
(to validate each row) and by ``OhlcvSeries.bars``.
"""

from __future__ import annotations

import bisect
import calendar
import math
import operator
import re
from dataclasses import dataclass
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
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.line_number, self.reason)


class EmptySeries(MarketDataError):
    pass


class NonAscendingDates(MarketDataError):
    def __init__(self, offending: Date):
        super().__init__(f"dates not strictly ascending at {offending.isoformat()}")
        self.date = offending

    def __reduce__(self):
        return type(self), (self.date,)


class InvariantViolation(MarketDataError):
    def __init__(self, bar_date: Date, field: str, reason: str):
        super().__init__(f"{bar_date.isoformat()}: {field}: {reason}")
        self.date = bar_date
        self.field = field
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.date, self.field, self.reason)


class InvalidRange(MarketDataError):
    pass


class NetworkError(MarketDataError):
    pass


class HttpStatus(MarketDataError):
    def __init__(self, code: int):
        super().__init__(f"unexpected HTTP status {code}")
        self.code = code

    def __reduce__(self):
        return type(self), (self.code,)


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


BAR_FIELDS = ("open", "high", "low", "close", "adj_close", "volume")  # Bar's fields after date


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


class OhlcvSeries:
    """Date-ascending sequence of daily bars for one symbol.

    Stored as a tuple of dates and one read-only (6, n) float64 ``block``
    with one contiguous row per Bar field in field order (open, high, low,
    close, adj_close, volume). The column accessors return row views of it.

    ``dropped_nulls`` counts rows removed at parse time because their numeric
    fields were "null"; ``flat_zero_volume_bars`` counts retained bars that
    look like exchange-holiday artifacts (zero volume, open=high=low=close).
    Both are zero on series derived by slicing.
    """

    def __init__(self, symbol: str, bars, dropped_nulls: int = 0, flat_zero_volume_bars: int = 0):
        values = list(map(operator.attrgetter(*BAR_FIELDS), bars))
        rows = np.array(values, dtype=np.float64).reshape(-1, len(BAR_FIELDS))
        self._assign(symbol, tuple(b.date for b in bars), np.ascontiguousarray(rows.T),
                     dropped_nulls, flat_zero_volume_bars)

    @classmethod
    def from_columns(cls, symbol: str, dates: tuple[Date, ...], block: np.ndarray,
                     dropped_nulls: int = 0, flat_zero_volume_bars: int = 0) -> "OhlcvSeries":
        """Series over `dates` and a (6, len(dates)) float64 block in BAR_FIELDS
        row order, each row contiguous. The block is kept as a read-only view,
        not copied, so the caller must not write to it afterwards."""
        series = cls.__new__(cls)
        series._assign(symbol, dates, block, dropped_nulls, flat_zero_volume_bars)
        return series

    def _assign(self, symbol, dates, block, dropped_nulls, flat_zero_volume_bars):
        if not all(map(operator.lt, dates, dates[1:])):
            raise NonAscendingDates(next(c for p, c in zip(dates, dates[1:]) if not p < c))
        self.block = block.view()
        self.block.flags.writeable = False
        self.symbol, self._dates = symbol, dates
        self.dropped_nulls, self.flat_zero_volume_bars = dropped_nulls, flat_zero_volume_bars

    def __len__(self) -> int:
        return len(self._dates)

    def dates(self) -> tuple[Date, ...]:
        return self._dates

    @property
    def bars(self) -> tuple[Bar, ...]:
        """The bars rebuilt from the block; built anew on every access."""
        return tuple(map(Bar, self._dates, *self.block.tolist()))

    def highs(self) -> np.ndarray:
        return self.block[1]

    def lows(self) -> np.ndarray:
        return self.block[2]

    def closes(self) -> np.ndarray:
        return self.block[3]

    def adj_closes(self) -> np.ndarray:
        return self.block[4]

    def with_close_from_adj(self) -> "OhlcvSeries":
        """Substitute the adjusted close as the modeled price.

        High/low/open keep their raw values, so derived bars may break the
        usual low <= close <= high ordering; indicator math does not care.
        """
        block = self.block.copy()
        block[3] = block[4]
        return OhlcvSeries.from_columns(self.symbol, self._dates, block, self.dropped_nulls,
                                        self.flat_zero_volume_bars)


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
    for day, values in zip(series.dates(), series.block.T.tolist()):
        lines.append(day.isoformat() + "," + ",".join(map(repr, values)))
    return "\n".join(lines) + "\n"


def slice_by_date(series: OhlcvSeries, start: Date, end: Date) -> OhlcvSeries:
    """Bars with start <= date <= end. May be empty; raises InvalidRange if start > end."""
    if start > end:
        raise InvalidRange(f"start {start.isoformat()} after end {end.isoformat()}")
    dates = series.dates()
    lo, hi = bisect.bisect_left(dates, start), bisect.bisect_right(dates, end)
    return OhlcvSeries.from_columns(series.symbol, dates[lo:hi], series.block[:, lo:hi])


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
