"""Loading and validating daily OHLCV price history.

The on-disk format is the seven-column CSV that finance.yahoo.com serves for
daily history: ``Date,Open,High,Low,Close,Adj Close,Volume`` with ISO dates
and plain decimal numbers. Rows whose numeric fields hold the literal token
``null`` (the site's marker for an empty trading day) are dropped and
counted, never interpolated. A series holds a tuple of dates and one
read-only (6, n) price block. ``parse_csv`` converts the block and holds it
to ``_RULES``, the one table of bar invariants, a whole row of the block per
rule. ``OhlcvSeries.bars`` rebuilds bars on request.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .config import StockcastError

CSV_HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"


# A row's six numeric fields, each a plain decimal number as repr() writes one.
# float() alone would also take padding, digit-group underscores, non-ASCII
# digits, inf and nan.
_NUMBER = r"[+-]?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_NUMBER_FIELDS = re.compile(",".join([_NUMBER] * 6))


class MarketDataError(StockcastError):
    """Base class for everything raised by this module."""


class MalformedHeader(MarketDataError):
    pass


@dataclass(eq=False)
class MalformedRow(MarketDataError):
    line_number: int
    reason: str
    message = "line {line_number}: {reason}"


class EmptySeries(MarketDataError):
    pass


@dataclass(eq=False)
class NonAscendingDates(MarketDataError):
    date: Date  # the first date not after its predecessor
    message = "dates not strictly ascending at {date}"


@dataclass(eq=False)
class InvariantViolation(MarketDataError):
    date: Date
    field: str
    reason: str
    message = "{date}: {field}: {reason}"


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


# The bar invariants in order of precedence: (field, reason, predicate). A predicate
# takes a (6, n) block in BAR_FIELDS row order and is True for each column that keeps
# its rule; NaN compares False, so it fails every rule it reaches.
_RULES = (
    *((name, "price must be finite and positive", lambda b, k=k: (b[k] > 0.0) & (b[k] < np.inf))
      for k, name in enumerate(BAR_FIELDS[:5])),
    ("volume", "volume must be finite and non-negative", lambda b: (b[5] >= 0.0) & (b[5] < np.inf)),
    ("low", "low exceeds high, open, or close",
     lambda b: (b[2] <= b[1]) & (b[2] <= np.minimum(b[0], b[3]))),
    ("high", "high below open or close", lambda b: b[1] >= np.maximum(b[0], b[3])),
)


class OhlcvSeries:
    """Date-ascending sequence of daily bars for one symbol.

    Stored as a tuple of dates and one read-only (6, n) float64 ``block``
    with one contiguous row per Bar field in field order (open, high, low,
    close, adj_close, volume). The column accessors return row views of it.

    ``dropped_nulls`` counts rows removed at parse time because their numeric
    fields were "null"; ``flat_zero_volume_bars`` counts retained bars that
    look like exchange-holiday artifacts (zero volume, open=high=low=close).
    Both default to zero on series built by ``from_columns``.
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

    Rows are checked for syntax in turn up to the first malformed one; the rows
    kept before it are then converted and held to _RULES as whole rows of the
    block. The first row in file order that fails any check names the error,
    and the first rule that row fails names the field.

    Raises MalformedHeader, MalformedRow, InvariantViolation,
    NonAscendingDates, or EmptySeries. Successful loads satisfy
    len(series) + dropped_nulls + 1 == number of lines in the input.
    """
    lines = text.lstrip("\ufeff").splitlines()
    if not lines or lines[0].rstrip("\r") != CSV_HEADER:
        raise MalformedHeader(f"expected header {CSV_HEADER!r}")
    dates: list[Date] = []
    kept: list[str] = []  # the rows that passed: a 10-character date, a comma, six numbers
    dropped = 0
    malformed = None
    try:
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
            dates.append(bar_date)
            kept.append(line)
    except MalformedRow as err:
        malformed = err
    block = np.empty((len(BAR_FIELDS), len(kept)))
    for start in range(0, len(kept), 256):  # a block of rows at a time keeps the text small
        rows = [line[11:] for line in kept[start : start + 256]]  # six _NUMBER fields each
        values = np.fromstring(",".join(rows), sep=",", count=6 * len(rows))  # as float() reads
        block[:, start : start + len(rows)] = values.reshape(-1, 6).T
    passed = np.array([rule(block) for _, _, rule in _RULES])  # (rules, rows)
    ok = passed.all(axis=0)
    if not ok.all():
        first = int(np.argmin(ok))
        field, reason, _ = _RULES[int(np.argmin(passed[:, first]))]
        raise InvariantViolation(dates[first], field, reason)
    if malformed is not None:
        raise malformed
    if not dates:
        raise EmptySeries("no data rows")
    open_, high, low, close, _, volume = block
    flat = (volume == 0.0) & (open_ == high) & (high == low) & (low == close)
    return OhlcvSeries.from_columns(symbol, tuple(dates), block, dropped, int(flat.sum()))


def serialize_csv(series: OhlcvSeries) -> str:
    """Inverse of parse_csv; float fields use shortest round-trip repr."""
    lines = [CSV_HEADER]
    for day, values in zip(series.dates(), series.block.T.tolist()):
        lines.append(day.isoformat() + "," + ",".join(map(repr, values)))
    return "\n".join(lines) + "\n"

