"""Windowing and the chronological train/test split by row."""

import numpy as np
import pytest

from stockcast.config import ConfigError, resolve_config
from stockcast.dataset import (
    DatasetError,
    DegenerateSplit,
    TooFewRows,
    make_windows,
    slice_samples,
)
from stockcast.pipeline import prepare_datasets, split_row_for
from stockcast.scaling import ScalerParams

from test_scaling import matrix_of


def test_window_contract_five_rows():
    matrix = matrix_of([1.0, 2.0, 3.0, 4.0, 5.0])
    ds = make_windows(matrix, lookback=2)
    assert len(ds) == 3
    assert ds.inputs.shape == (3, 2, 1)
    assert ds.targets.tolist() == [3.0, 4.0, 5.0]
    assert ds.inputs[0].ravel().tolist() == [1.0, 2.0]
    assert ds.inputs[2].ravel().tolist() == [3.0, 4.0]
    assert ds.dates == matrix.dates[2:]
    assert ds.feature_names == ("Close",)


def test_no_look_ahead():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(40, 3))
    matrix = matrix_of(values, ("Close", "A", "B"))
    ds = make_windows(matrix, lookback=7)
    for s in range(len(ds)):
        assert np.array_equal(ds.inputs[s], values[s : s + 7])
        assert ds.targets[s] == values[s + 7, 0]
        assert ds.dates[s] == matrix.dates[s + 7]


def test_too_few_rows():
    matrix = matrix_of([1.0, 2.0, 3.0])
    with pytest.raises(TooFewRows) as err:
        make_windows(matrix, lookback=3)
    assert err.value.needed == 4
    assert err.value.have == 3
    with pytest.raises(ValueError):
        make_windows(matrix, lookback=0)


def test_close_column_required():
    matrix = matrix_of([1.0, 2.0, 3.0], ("RSI",))
    with pytest.raises(DatasetError):
        make_windows(matrix, lookback=1)


def split(matrix, lookback, train_fraction):
    """The pipeline split under a scaler that maps small integers onto themselves."""
    ones = np.ones(len(matrix.column_names))
    unit = ScalerParams(matrix.column_names, -ones, ones)
    split_row = split_row_for(matrix.rows, lookback, train_fraction)
    return prepare_datasets(matrix, unit, lookback, split_row)


def test_split_sizes():
    train, test = split(matrix_of(np.arange(12.0)), 2, 0.8)
    assert (len(train), len(test)) == (8, 2)

    train, test = split(matrix_of(np.arange(4.0)), 2, 0.5)
    assert (len(train), len(test)) == (1, 1)


def test_split_keeps_order_and_dates():
    matrix = matrix_of(np.arange(30.0))
    ds = make_windows(matrix, lookback=5)
    train, test = split(matrix, 5, 0.8)
    assert train.dates + test.dates == ds.dates
    assert train.dates[-1] < test.dates[0]
    assert np.array_equal(np.concatenate([train.targets, test.targets]), ds.targets)
    assert np.array_equal(np.vstack([train.inputs, test.inputs]), ds.inputs)


def test_degenerate_split():
    with pytest.raises(DegenerateSplit):
        split(matrix_of([1.0, 2.0]), 1, 0.8)
    for fraction in (1.0, 0.0):
        with pytest.raises(DegenerateSplit):
            split_row_for(30, 5, fraction)
        with pytest.raises(ConfigError):
            resolve_config(overrides={"train_fraction": fraction})


def test_slice_samples_copies():
    ds = make_windows(matrix_of(np.arange(10.0)), lookback=2)
    part = slice_samples(ds, 1, 4)
    assert len(part) == 3
    part.inputs[0, 0, 0] = 99.0
    assert ds.inputs[1, 0, 0] != 99.0
    assert part.lookback == ds.lookback
