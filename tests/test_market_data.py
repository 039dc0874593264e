"""CSV parsing, bar validation, serialization, slicing, and fetching."""

import dataclasses
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast.indicators import PAPER_MULTIVARIATE, UNIVARIATE, IndicatorConfig, build_features
from stockcast.market_data import (
    CSV_HEADER,
    Bar,
    EmptySeries,
    HttpStatus,
    InvalidRange,
    InvariantViolation,
    MalformedHeader,
    MalformedRow,
    MarketDataError,
    NetworkError,
    NonAscendingDates,
    OhlcvSeries,
    UnexpectedSchema,
    check_bar,
    fetch_quotes,
    parse_csv,
    serialize_csv,
    slice_by_date,
)

from conftest import NARROW_CSV, SNAPSHOT_CSV, flat_series, random_walk_series


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
    base = Bar(date(2021, 1, 4), 10.0, 12.0, 9.0, 11.0, 11.0, 100.0)
    check_bar(base)

    bad_low = Bar(date(2021, 1, 4), 10.0, 12.0, 11.5, 11.0, 11.0, 100.0)
    with pytest.raises(InvariantViolation) as err:
        check_bar(bad_low)
    assert err.value.field == "low"
    assert err.value.date == date(2021, 1, 4)

    bad_high = Bar(date(2021, 1, 4), 10.0, 10.5, 9.0, 11.0, 11.0, 100.0)
    with pytest.raises(InvariantViolation) as err:
        check_bar(bad_high)
    assert err.value.field == "high"

    for field, value in [("open", -1.0), ("close", 0.0), ("high", float("nan"))]:
        bar = Bar(**{**base.__dict__, field: value})
        with pytest.raises(InvariantViolation):
            check_bar(bar)

    with pytest.raises(InvariantViolation) as err:
        check_bar(Bar(date(2021, 1, 4), 10.0, 12.0, 9.0, 11.0, 11.0, -5.0))
    assert err.value.field == "volume"


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
    text = serialize_csv(snapshot_series)
    assert text.splitlines()[0] == CSV_HEADER
    again = parse_csv(text, snapshot_series.symbol)
    assert again.bars == snapshot_series.bars
    assert serialize_csv(again) == text


def test_adj_close_substitution(snapshot_series):
    lines = SNAPSHOT_CSV.splitlines()
    lines[1] = lines[1].replace("2372.800049,3639616.0", "1186.400024,3639616.0")
    swapped = parse_csv("\n".join(lines) + "\n", "X").with_close_from_adj()
    assert swapped.bars[0].close == 1186.400024
    assert swapped.bars[0].high == 2392.0
    assert swapped.bars[1].close == snapshot_series.bars[1].adj_close


def test_adj_close_swap_builds_the_replaced_bars_and_shares_the_column():
    series = random_walk_series(300, 4)
    swapped = series.with_close_from_adj()
    replaced = tuple(dataclasses.replace(b, close=b.adj_close) for b in series.bars)
    assert swapped.bars == replaced
    assert swapped.dates() == series.dates()
    assert np.array_equal(swapped.closes(), series.adj_closes())
    assert np.array_equal(swapped.adj_closes(), series.adj_closes())
    for column in (swapped.closes(), swapped.adj_closes()):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 1.0
    # features read from the swapped block match those of a series built from the replaced bars
    rebuilt = OhlcvSeries(series.symbol, replaced)
    for column_set in (UNIVARIATE, PAPER_MULTIVARIATE):
        got = build_features(series, IndicatorConfig(), column_set, use_adj_close=True)
        want = build_features(rebuilt, IndicatorConfig(), column_set)
        assert got.column_names == want.column_names and got.dates == want.dates
        assert np.array_equal(got.values, want.values)


def test_slice_by_date(snapshot_series):
    middle = slice_by_date(snapshot_series, date(2021, 12, 27), date(2021, 12, 29))
    assert [b.date.day for b in middle.bars] == [27, 28, 29]
    empty = slice_by_date(snapshot_series, date(2022, 1, 1), date(2022, 1, 31))
    assert len(empty) == 0
    with pytest.raises(InvalidRange):
        slice_by_date(snapshot_series, date(2021, 12, 30), date(2021, 12, 24))


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


def test_with_close_from_adj_leaves_its_source_unchanged():
    walk = random_walk_series(50, 8)
    series = OhlcvSeries(walk.symbol, tuple(
        dataclasses.replace(b, adj_close=b.close / 2.0) for b in walk.bars
    ))
    dates, block = series.dates(), series.block.copy()
    swapped = series.with_close_from_adj()
    assert series.dates() == dates and np.array_equal(series.block, block)
    assert not np.shares_memory(swapped.block, series.block)
    assert np.array_equal(swapped.closes(), block[4]) and np.array_equal(series.closes(), block[3])


def test_slice_by_date_matches_the_bar_filter():
    series = random_walk_series(80, 9)
    first, last = series.dates()[0], series.dates()[-1]
    days = st.dates(first - timedelta(days=5), last + timedelta(days=5))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(days, days)
    def check(a, b):
        start, end = min(a, b), max(a, b)
        sliced = slice_by_date(series, start, end)
        assert sliced.bars == tuple(bar for bar in series.bars if start <= bar.date <= end)
        assert sliced.dates() == tuple(bar.date for bar in sliced.bars)
        assert not sliced.block.flags.writeable

    check()


def test_parse_fuzzed_csv_gives_series_or_typed_error():
    lines = SNAPSHOT_CSV.splitlines()

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def check(data):
        kind = data.draw(st.sampled_from(["truncate", "flip", "swap"]))
        if kind == "truncate":
            text = SNAPSHOT_CSV[: data.draw(st.integers(0, len(SNAPSHOT_CSV) - 1))]
        elif kind == "flip":
            blob = bytearray(SNAPSHOT_CSV.encode())
            for _ in range(data.draw(st.integers(1, 3))):
                blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
            text = blob.decode("latin-1")  # every byte becomes one character
        else:
            i, j = data.draw(st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True))
            rows = [line.split(",") for line in lines]
            first = 0 if data.draw(st.booleans()) else 1  # header too, or data rows only
            for fields in rows[first:]:
                fields[i], fields[j] = fields[j], fields[i]
            text = "\n".join(",".join(fields) for fields in rows) + "\n"
        try:
            series = parse_csv(text, "X")
        except MarketDataError:
            return
        assert isinstance(series, OhlcvSeries)
        dates = series.dates()
        assert all(a < b for a, b in zip(dates, dates[1:]))
        assert all(np.isfinite(column()).all() for column in (series.highs, series.lows, series.closes))

    check()


def test_fetch_good(data_server):
    template = data_server + "/good?s={symbol}&a={start_epoch}&b={end_epoch}"
    text = fetch_quotes("RELIANCE.NS", date(2021, 12, 24), date(2021, 12, 30), template, 5.0)
    assert text == SNAPSHOT_CSV
    series = parse_csv(text, "RELIANCE.NS")
    assert series.bars[-1].close == 2359.100098


def test_fetch_http_error(data_server):
    template = data_server + "/missing?s={symbol}&a={start_epoch}&b={end_epoch}"
    with pytest.raises(HttpStatus) as err:
        fetch_quotes("X", date(2021, 1, 1), date(2021, 1, 2), template, 5.0)
    assert err.value.code == 404


def test_fetch_schema_mismatch(data_server):
    template = data_server + "/narrow?s={symbol}&a={start_epoch}&b={end_epoch}"
    with pytest.raises(UnexpectedSchema):
        fetch_quotes("X", date(2021, 1, 1), date(2021, 1, 2), template, 5.0)


def test_fetch_connection_refused(dead_endpoint):
    with pytest.raises(NetworkError):
        fetch_quotes("X", date(2021, 1, 1), date(2021, 1, 2), dead_endpoint, 2.0)


def test_fetch_bad_template(data_server):
    with pytest.raises(NetworkError):
        fetch_quotes("X", date(2021, 1, 1), date(2021, 1, 2), data_server + "/{nope}", 5.0)


def test_fetch_refuses_file_urls(tmp_path):
    local = tmp_path / "quotes.csv"
    local.write_text(SNAPSHOT_CSV)
    with pytest.raises(NetworkError):
        fetch_quotes("X", date(2021, 1, 1), date(2021, 1, 2), local.as_uri(), 5.0)


def test_fetch_malformed_url():
    with pytest.raises(NetworkError):
        fetch_quotes("X", date(2021, 1, 1), date(2021, 1, 2), "http://[::1/q?s={symbol}", 5.0)


def test_fetch_undecodable_body(data_server):
    template = data_server + "/binary?s={symbol}"
    with pytest.raises(UnexpectedSchema):
        fetch_quotes("X", date(2021, 1, 1), date(2021, 1, 2), template, 5.0)
