"""CSV parsing, bar validation, and serialization."""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast.indicators import TABLE4_ALL, UNIVARIATE, IndicatorConfig, build_features
from stockcast.market_data import (
    CSV_HEADER,
    Bar,
    EmptySeries,
    InvariantViolation,
    MalformedHeader,
    MalformedRow,
    MarketDataError,
    NonAscendingDates,
    OhlcvSeries,
    _NUMBER_FIELDS,
    _RULES,
    _parse_date,
    parse_csv,
    serialize_csv,
)

from conftest import NARROW_CSV, SNAPSHOT_CSV, flat_series, random_walk_series


def reference_check_bar(bar: Bar) -> None:
    """The bar invariants as scalar tests on one bar, written apart from parse_csv's
    _RULES table: raise InvariantViolation for the first one the bar breaks."""
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


def reference_parse_csv(text: str, symbol: str) -> OhlcvSeries:
    """The row-at-a-time parser that the columnar parse_csv replaced: each row is
    checked in full, as a Bar, before the next one is read."""
    lines = text.lstrip("\ufeff").splitlines()
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
        reference_check_bar(bar)
        if bar.volume == 0.0 and bar.open == bar.high == bar.low == bar.close:
            flat_flagged += 1
        bars.append(bar)
    if not bars:
        raise EmptySeries("no data rows")
    return OhlcvSeries(symbol, tuple(bars), dropped, flat_flagged)


def parse_like_reference(text: str):
    """parse_csv's series, or its error as (type, message), after checking that the
    reference parser gives the same: the same bits, dates and counts, or the same error."""
    outcomes = []
    for parse in (parse_csv, reference_parse_csv):
        try:
            outcomes.append(parse(text, "X"))
        except MarketDataError as err:
            outcomes.append((type(err), str(err)))
    got, want = outcomes
    if isinstance(want, OhlcvSeries):
        assert isinstance(got, OhlcvSeries), got
        assert got.block.shape == want.block.shape and got.block.tobytes() == want.block.tobytes()
        assert got.dates() == want.dates()
        assert got.dropped_nulls == want.dropped_nulls
        assert got.flat_zero_volume_bars == want.flat_zero_volume_bars
    else:
        assert got == want
    return got


def test_parse_snapshot_values(snapshot_series):
    series = snapshot_series
    assert len(series) == 5
    assert series.symbol == "RELIANCE.NS"
    assert series.bars[0].date == date(2021, 12, 24)
    assert series.bars[0].open == 2370.0
    assert series.bars[2].high == 2404.850098
    assert series.bars[-1].close == 2359.100098
    assert series.bars[-1].volume == 13537254.0
    assert series.dropped_nulls == 0
    assert series.flat_zero_volume_bars == 0


def test_parse_accepts_crlf_and_bom(snapshot_series):
    text = "﻿" + SNAPSHOT_CSV.replace("\n", "\r\n")
    series = parse_csv(text, "RELIANCE.NS")
    assert series.closes().tolist() == snapshot_series.closes().tolist()


def test_header_only_is_empty():
    with pytest.raises(EmptySeries):
        parse_csv(CSV_HEADER + "\n", "X")


def test_wrong_header_rejected():
    with pytest.raises(MalformedHeader):
        parse_csv(NARROW_CSV, "X")
    with pytest.raises(MalformedHeader):
        parse_csv("", "X")


def test_short_row_reports_line_number():
    text = SNAPSHOT_CSV.splitlines()[0] + "\n2021-12-24,1.0,2.0,0.5,1.5,100\n"
    with pytest.raises(MalformedRow) as err:
        parse_csv(text, "X")
    assert err.value.line_number == 2


def test_non_numeric_field_reports_line_number():
    lines = SNAPSHOT_CSV.splitlines()
    lines[3] = lines[3].replace("2941883.0", "lots")
    with pytest.raises(MalformedRow) as err:
        parse_csv("\n".join(lines) + "\n", "X")
    assert err.value.line_number == 4


@pytest.mark.parametrize("fields", [
    "1_0.0,12.0,9.0,11.0,11.0,100",  # digit-group underscore in the open
    "10.0, 12.0 ,9.0,11.0,11.0,100",  # padded high
    "10.0,12.0,9.0,11.0,11.0,1_00",  # digit-group underscore in the volume
    "10.0,12.,9.0,11.0,11.0,100",
    "10.0,12.0,.9e1,11.0,11.0,100",
    "10.0,12.0,9.0,11.0,11.0,inf",
    "10.0,12.0,9.0,११.0,11.0,100",  # Devanagari digits
])
def test_number_that_is_not_plain_decimal_reports_line_number(fields):
    text = f"{CSV_HEADER}\n2021-12-23,10.0,12.0,9.0,11.0,11.0,100\n2021-12-24,{fields}\n"
    with pytest.raises(MalformedRow, match="^line 3: non-numeric field$"):
        parse_csv(text, "X")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    st.lists(st.floats(min_value=5e-324, max_value=1e300), min_size=4, max_size=4),
    st.floats(min_value=0.0, max_value=1e300),
)
def test_every_repr_number_parses_back(prices, volume):
    low, high = min(prices), max(prices)
    bar = Bar(date(2021, 1, 4), prices[0], high, low, prices[1], prices[2], volume)
    series = OhlcvSeries("X", (bar,))
    assert parse_csv(serialize_csv(series), "X").bars == series.bars


@pytest.mark.parametrize("token", ["2021/12/24", "20211224", "2021-13-01", "21-12-24"])
def test_date_must_be_iso(token):
    text = f"{CSV_HEADER}\n{token},1.0,2.0,0.5,1.5,1.5,100\n"
    with pytest.raises(MalformedRow):
        parse_csv(text, "X")


def test_non_ascending_dates_name_the_bar():
    lines = SNAPSHOT_CSV.splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    with pytest.raises(NonAscendingDates) as err:
        parse_csv("\n".join(lines) + "\n", "X")
    assert err.value.date == date(2021, 12, 28)


def test_duplicate_date_rejected():
    lines = SNAPSHOT_CSV.splitlines()
    text = "\n".join(lines + [lines[-1]]) + "\n"
    with pytest.raises(NonAscendingDates):
        parse_csv(text, "X")


def test_null_rows_dropped_and_counted():
    lines = SNAPSHOT_CSV.splitlines()
    lines.insert(3, "2021-12-27,null,null,null,null,null,null")
    text = "\n".join(lines) + "\n"
    series = parse_csv(text, "X")
    assert series.dropped_nulls == 1
    assert len(series.bars) + series.dropped_nulls + 1 == len(text.splitlines())
    assert [b.date.day for b in series.bars] == [24, 27, 28, 29, 30]


def test_invariant_violations():
    base = dict(open=10.0, high=12.0, low=9.0, close=11.0, adj_close=11.0, volume=100.0)

    def one_row_csv(**edits) -> str:
        values = {**base, **edits}
        return f"{CSV_HEADER}\n2021-01-04," + ",".join(repr(values[f]) for f in base) + "\n"

    assert len(parse_csv(one_row_csv(), "X")) == 1
    price = "price must be finite and positive"
    for edits, field, reason in [
        ({"low": 11.5}, "low", "low exceeds high, open, or close"),
        ({"high": 10.5}, "high", "high below open or close"),
        ({"open": -1.0}, "open", price),
        ({"close": 0.0}, "close", price),
        ({"volume": -5.0}, "volume", "volume must be finite and non-negative"),
    ]:
        with pytest.raises(InvariantViolation) as err:
            parse_csv(one_row_csv(**edits), "X")
        assert (err.value.date, err.value.field, err.value.reason) == (date(2021, 1, 4), field, reason)

    # no CSV number reads as NaN, so a NaN high meets the rules on a block of its own
    block = np.array([[v] for v in base.values()])
    block[1, 0] = float("nan")
    failed = [(field, reason) for field, reason, rule in _RULES if not rule(block)[0]]
    assert failed[0] == ("high", price)


def test_invariant_violation_inside_parse():
    text = f"{CSV_HEADER}\n2021-12-24,10.0,9.0,8.0,11.0,11.0,100\n"
    with pytest.raises(InvariantViolation):
        parse_csv(text, "X")
    text = f"{CSV_HEADER}\n2021-12-24,-10.0,12.0,9.0,11.0,11.0,100\n"  # a signed number is a number
    with pytest.raises(InvariantViolation) as err:
        parse_csv(text, "X")
    assert err.value.field == "open"


def test_flat_zero_volume_bar_kept_but_counted():
    text = (
        f"{CSV_HEADER}\n"
        "2021-12-24,10.0,12.0,9.0,11.0,11.0,100\n"
        "2021-12-27,11.0,11.0,11.0,11.0,11.0,0.0\n"
    )
    series = parse_csv(text, "X")
    assert len(series) == 2
    assert series.flat_zero_volume_bars == 1


def test_serialize_round_trip(snapshot_series):
    # same-machine pin: a write and a parse in one process
    text = serialize_csv(snapshot_series)
    assert text.splitlines()[0] == CSV_HEADER
    again = parse_csv(text, snapshot_series.symbol)
    assert again.bars == snapshot_series.bars
    assert serialize_csv(again) == text


@pytest.mark.parametrize("n", [255, 256, 257, 700])  # rows are converted 256 at a time
def test_long_csv_parses_like_the_reference(n):
    # same-machine pin: the parser against a reference in one process
    series = random_walk_series(n, n)
    lines = serialize_csv(series).splitlines()
    lines.insert(200, "2010-01-01,null,null,null,null,null,null")  # shifts the rows after it
    again = parse_like_reference("\r\n".join(lines) + "\r\n")
    assert again.dropped_nulls == 1 and again.dates() == series.dates()
    assert again.block.tobytes() == series.block.tobytes()


def test_adj_close_substitution(snapshot_series):
    lines = SNAPSHOT_CSV.splitlines()
    lines[1] = lines[1].replace("2372.800049,3639616.0", "1186.400024,3639616.0")
    series = parse_csv("\n".join(lines) + "\n", "X")
    closes = build_features(series, IndicatorConfig(), UNIVARIATE, use_adj_close=True).values[:, 0]
    assert closes[0] == 1186.400024
    assert closes[1] == snapshot_series.bars[1].adj_close
    # the window columns still read the raw high: AD on the first defined row takes the
    # first bar's swapped close and the second bar's own high and low
    periods_of_one = IndicatorConfig(sma_periods=[1], wma_period=1, rsi_period=1, cci_period=1,
                                     stoch_k_period=1, stoch_d_period=1)
    matrix = build_features(series, periods_of_one, TABLE4_ALL, use_adj_close=True)
    assert matrix.dates[0] == series.dates()[1]
    ad = matrix.values[0, matrix.column_names.index("AD")]
    assert ad == (2378.0 - 1186.400024) / (2378.0 - 2348.100098)


def test_series_builders_reject_disorder():
    bars = flat_series([1.0, 2.0, 3.0, 4.0, 5.0]).bars
    for order, first_bad in (((1, 0, 2), 0), ((0, 2, 1, 4, 3), 1), ((0, 1, 1, 0), 1)):
        with pytest.raises(NonAscendingDates) as err:
            OhlcvSeries("X", tuple(bars[k] for k in order))
        assert err.value.date == bars[first_bad].date  # the first bar out of order


def test_series_columns_are_read_only_views_of_one_block(snapshot_series):
    block = snapshot_series.block
    assert block.shape == (6, 5) and not block.flags.writeable
    for row, name in enumerate(("open", "high", "low", "close", "adj_close", "volume")):
        assert block[row].tolist() == [getattr(b, name) for b in snapshot_series.bars]
    columns = (snapshot_series.highs(), snapshot_series.lows(), snapshot_series.closes(),
               snapshot_series.adj_closes())
    for row, column in zip((1, 2, 3, 4), columns):
        assert np.shares_memory(column, block) and np.array_equal(column, block[row])
        assert column.flags.c_contiguous
        with pytest.raises(ValueError):
            column[0] = 1.0
    assert snapshot_series.dates() is snapshot_series.dates()
    assert snapshot_series.dates() == tuple(b.date for b in snapshot_series.bars)


# Field values that, in place of another, pass or trip the null drop, the date, the number
# syntax or an invariant.
FUZZ_TOKENS = ["null", "1e999", "-1.0", "0", "0.0", "1e-400", "-0.0", "5e-324", "9999.0", "1.5",
               "x", "", "1,5", "2021-12-25", "2021-02-30", "2021/12/25"]


def test_parse_fuzzed_csv_gives_series_or_typed_error():
    lines = SNAPSHOT_CSV.splitlines()

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def check(data):
        kind = data.draw(st.sampled_from(["truncate", "flip", "swap", "replace"]))
        if kind == "truncate":
            text = SNAPSHOT_CSV[: data.draw(st.integers(0, len(SNAPSHOT_CSV) - 1))]
        elif kind == "flip":
            blob = bytearray(SNAPSHOT_CSV.encode())
            for _ in range(data.draw(st.integers(1, 3))):
                blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
            text = blob.decode("latin-1")  # every byte becomes one character
        elif kind == "swap":
            i, j = data.draw(st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True))
            rows = [line.split(",") for line in lines]
            first = 0 if data.draw(st.booleans()) else 1  # header too, or data rows only
            for fields in rows[first:]:
                fields[i], fields[j] = fields[j], fields[i]
            text = "\n".join(",".join(fields) for fields in rows) + "\n"
        else:  # one to four fields of data rows replaced, so checks of several rows compete
            rows = [line.split(",") for line in lines]
            for _ in range(data.draw(st.integers(1, 4))):
                fields = rows[data.draw(st.integers(1, len(rows) - 1))]
                fields[data.draw(st.integers(0, 6))] = data.draw(st.sampled_from(FUZZ_TOKENS))
            text = "\n".join(",".join(fields) for fields in rows) + "\n"
        series = parse_like_reference(text)
        if not isinstance(series, OhlcvSeries):
            return
        dates = series.dates()
        assert all(a < b for a, b in zip(dates, dates[1:]))
        assert all(np.isfinite(column()).all() for column in (series.highs, series.lows, series.closes))

    check()


GOOD = "2021-12-24,10.0,12.0,9.0,11.0,11.0,100"
LOW_ABOVE_HIGH = "2021-12-27,10.0,9.0,9.5,9.0,9.0,100"
SHORT = "2021-12-28,10.0,12.0,9.0,11.0,100"
FLAT = "2021-12-29,11.0,11.0,11.0,11.0,11.0,0.0"


@pytest.mark.parametrize("rows, error, message", [
    # an invariant broken before a malformed row wins over it, and one after it loses
    ([GOOD, LOW_ABOVE_HIGH, SHORT], InvariantViolation, "2021-12-27: low: low exceeds high, open, or close"),
    ([GOOD, SHORT, LOW_ABOVE_HIGH], MalformedRow, "line 3: expected 7 comma-separated fields, got 6"),
    ([GOOD, "2021-12-27,10.0,12.0,9.0,11.0,11.0,lots", LOW_ABOVE_HIGH], MalformedRow,
     "line 3: non-numeric field"),
    # the first row in file order wins among invariants, whatever their field
    ([GOOD, "2021-12-27,10.0,12.0,9.0,11.0,11.0,-1", LOW_ABOVE_HIGH], InvariantViolation,
     "2021-12-27: volume: volume must be finite and non-negative"),
    # a number past float's range reads as inf, which no field takes, and one below it as 0.0
    ([GOOD, "2021-12-27,10.0,1e999,9.0,11.0,11.0,100"], InvariantViolation,
     "2021-12-27: high: price must be finite and positive"),
    ([GOOD, "2021-12-27,10.0,12.0,9.0,11.0,11.0,1e999"], InvariantViolation,
     "2021-12-27: volume: volume must be finite and non-negative"),
    ([GOOD, "2021-12-27,10.0,12.0,9.0,11.0,1e-400,100"], InvariantViolation,
     "2021-12-27: adj_close: price must be finite and positive"),
    # a flat zero-volume bar is counted only on success; a violation before it still wins
    ([GOOD, LOW_ABOVE_HIGH, FLAT], InvariantViolation, "2021-12-27: low: low exceeds high, open, or close"),
    # an invariant wins over out-of-order dates, which are checked once every row is read
    ([FLAT, GOOD, LOW_ABOVE_HIGH], InvariantViolation, "2021-12-27: low: low exceeds high, open, or close"),
    ([FLAT, GOOD], NonAscendingDates, "dates not strictly ascending at 2021-12-24"),
])
def test_first_failing_row_names_the_error(rows, error, message):
    assert parse_like_reference("\n".join([CSV_HEADER, *rows]) + "\n") == (error, message)


def test_null_row_is_dropped_before_its_date_is_read():
    text = "\n".join([CSV_HEADER, GOOD, "2021-13-45,null,null,null,null,null,null", FLAT]) + "\n"
    series = parse_like_reference(text)
    assert series.dates() == (date(2021, 12, 24), date(2021, 12, 29))
    assert series.dropped_nulls == 1 and series.flat_zero_volume_bars == 1
