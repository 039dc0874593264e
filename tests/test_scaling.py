"""Min-max scaling into [-1, 1] and its close-price inverse."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stockcast.indicators import FeatureMatrix
from stockcast.scaling import (
    ColumnMismatch,
    EmptyRange,
    MissingCloseColumn,
    fit,
    inverse_close,
    transform,
)


def matrix_of(values, names=("Close",)):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    day = date(2021, 1, 4)
    dates = tuple(day + timedelta(days=i) for i in range(values.shape[0]))
    return FeatureMatrix(dates=dates, column_names=tuple(names), values=values, warmup_dropped=0)


def test_endpoints_map_exactly():
    matrix = matrix_of([3.0, 7.5, 12.0, 9.0])
    params = fit(matrix, (0, 4))
    scaled = transform(params, matrix)
    col = scaled.column("Close")
    assert col[0] == -1.0
    assert col[2] == 1.0
    assert (col >= -1.0).all() and (col <= 1.0).all()


def test_round_trip_close():
    values = np.linspace(17.0, 450.0, 101)
    matrix = matrix_of(values)
    params = fit(matrix, (0, 101))
    scaled = transform(params, matrix).column("Close")
    back = inverse_close(params, scaled)
    assert np.allclose(back, values, rtol=1e-12, atol=1e-12)
    assert inverse_close(params, -1.0) == 17.0


def test_scalar_and_array_forms():
    params = fit(matrix_of([10.0, 20.0]), (0, 2))
    assert isinstance(inverse_close(params, 0.0), float)
    assert inverse_close(params, 0.0) == 15.0
    out = inverse_close(params, np.array([-1.0, 1.0]))
    assert isinstance(out, np.ndarray)
    assert out.tolist() == [10.0, 20.0]


def test_constant_column_maps_to_zero():
    matrix = matrix_of(np.column_stack([[1.0, 2.0, 3.0], [7.0, 7.0, 7.0]]), ("Close", "Flat"))
    params = fit(matrix, (0, 3))
    scaled = transform(params, matrix)
    assert (scaled.column("Flat") == 0.0).all()
    assert scaled.column("Close").tolist() == [-1.0, 0.0, 1.0]


def test_fit_uses_only_requested_rows():
    matrix = matrix_of([10.0, 20.0, 40.0])
    params = fit(matrix, (0, 2))
    scaled = transform(params, matrix).column("Close")
    assert scaled[2] == 5.0
    clipped = transform(params, matrix, clip=True).column("Close")
    assert clipped[2] == 1.0


def test_bad_row_ranges():
    matrix = matrix_of([1.0, 2.0, 3.0])
    for row_range in [(0, 0), (2, 1), (-1, 2), (0, 4)]:
        with pytest.raises(EmptyRange):
            fit(matrix, row_range)


def test_column_mismatch_names_offender():
    params = fit(matrix_of([[1.0, 2.0], [3.0, 4.0]], ("Close", "RSI")), (0, 2))
    other = matrix_of([[1.0, 2.0], [3.0, 4.0]], ("Close", "CCI"))
    with pytest.raises(ColumnMismatch, match="CCI"):
        transform(params, other)
    shorter = matrix_of([1.0, 2.0], ("Close",))
    with pytest.raises(ColumnMismatch):
        transform(params, shorter)


def test_missing_close_column():
    params = fit(matrix_of([1.0, 2.0], ("RSI",)), (0, 2))
    with pytest.raises(MissingCloseColumn):
        inverse_close(params, 0.0)


@given(
    st.lists(
        st.floats(min_value=1.0, max_value=10_000.0, allow_nan=False), min_size=2, max_size=50
    )
)
def test_round_trip_property(values):
    matrix = matrix_of(values)
    params = fit(matrix, (0, len(values)))
    scaled = transform(params, matrix).column("Close")
    assert (scaled >= -1.0).all() and (scaled <= 1.0).all()
    back = inverse_close(params, scaled)
    assert np.allclose(back, values, rtol=1e-9, atol=1e-9)
