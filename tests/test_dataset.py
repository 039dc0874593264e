"""Windowing and the chronological train/test split by row."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast import lstm, scaling
from stockcast.config import (PAPER_MULTIVARIATE, ConfigError, IndicatorConfig, RunConfig,
                              resolve_config)
from stockcast.dataset import DatasetError, DegenerateSplit, SplitMismatch, TooFewRows, make_windows
from stockcast.indicators import column_names_for
from stockcast.pipeline import fit_rows, held_out_windows, split_contract, split_row_for
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


def test_windows_view_the_rows_read_only_and_copy_the_targets():
    values = np.arange(24.0).reshape(8, 3)
    matrix = matrix_of(values.copy(), ("A", "Close", "B"))
    ds = make_windows(matrix, lookback=3)
    assert np.shares_memory(ds.inputs, matrix.values)
    assert not ds.inputs.flags.writeable
    with pytest.raises(ValueError):
        ds.inputs[0, 0, 0] = -1.0
    assert not np.shares_memory(ds.targets, matrix.values)
    ds.targets[0] = -1.0
    assert matrix.values.tobytes() == values.tobytes()


def fit_windows(matrix, split_row, lookback, clip=False):
    """(training windows, untrained model) of fit_rows on rows [0, split_row) of
    matrix; lstm.train is stubbed out, so nothing trains."""
    cfg = resolve_config({}, {
        "lookback": str(lookback), "hidden_sizes": "1", "clip_scaled": str(clip).lower(),
    })
    seen = []

    def capture(model_init, train_ds):
        seen.append(train_ds)
        return model_init, {}

    with mock.patch.object(lstm, "train", capture):
        model, _ = fit_rows(matrix, split_row, cfg)
    (train_ds,) = seen
    return train_ds, model


def unit_scaler(matrix):
    """A scaler that maps small integers onto themselves."""
    ones = np.ones(len(matrix.column_names))
    return ScalerParams(matrix.column_names, -ones, ones)


def split(matrix, lookback, train_fraction):
    """Both sides of the pipeline split, with the unit scaler standing in for the fitted one."""
    unit = unit_scaler(matrix)
    split_row = split_row_for(matrix.rows, lookback, train_fraction)
    with mock.patch.object(scaling, "fit", lambda rows: unit):
        train, model = fit_windows(matrix, split_row, lookback)
    return train, held_out_windows(matrix, model)


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


def test_held_out_windows_rejects_a_split_row_that_empties_a_side():
    # lookback 3, 10 rows: split rows 3..9 leave a held-out window
    longer = matrix_of(np.arange(12.0))
    matrix = longer.row_slice(0, 10)
    unit = unit_scaler(matrix)

    def held_out(contract):  # a model that records contract, as a crafted file can
        return held_out_windows(matrix, SimpleNamespace(contract=contract, lookback=3, scaler=unit))

    for split_row in (-1, 0):  # no contract holds these, so no model reaches held_out_windows
        with pytest.raises(ValueError, match="split_row must be >= 1"):
            split_contract(longer, split_row, False)
    with pytest.raises(DegenerateSplit, match="split row 2"):
        held_out(split_contract(matrix, 2, False))
    for split_row in (10, 11):  # the contract is checked first: these rows are not in matrix
        with pytest.raises(SplitMismatch, match=f"split_row is {split_row}, the CSV gives 10 "):
            held_out(split_contract(longer, split_row, False))
    with pytest.raises(TooFewRows):  # split row 3 leaves no training window
        fit_windows(matrix, 3, 3)
    for split_row, sizes in ((4, (1, 6)), (9, (6, 1))):
        train, model = fit_windows(matrix, split_row, 3)
        test = held_out_windows(matrix, model)
        assert (len(train), len(test)) == sizes
    assert len(held_out(split_contract(matrix, 3, False))) == 7


def stack_and_slice(scaled, lookback, split_row):
    """Reference: window every row with a per-window stack, then copy each side out."""
    values = scaled.values
    close = scaled.column_names.index("Close")
    inputs = np.stack([values[t - lookback : t] for t in range(lookback, scaled.rows)])
    targets = values[lookback:, close].copy()
    dates = tuple(scaled.dates[lookback:])
    cut = split_row - lookback
    return (
        (inputs[:cut].copy(), targets[:cut].copy(), dates[:cut]),
        (inputs[cut:].copy(), targets[cut:].copy(), dates[cut:]),
    )


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    rows=st.integers(3, 40),
    lookback=st.integers(1, 12),
    columns=st.integers(1, 4),
    split_pick=st.integers(0, 10**6),
    clip=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_rows_and_held_out_windows_match_stack_and_slice(
    rows, lookback, columns, split_pick, clip, seed
):
    # same-machine pin: fit_rows against a reference slicing in one process
    lookback = min(lookback, rows - 2)
    split_row = lookback + 1 + split_pick % (rows - lookback - 1)
    values = np.random.default_rng(seed).normal(size=(rows, columns))
    matrix = matrix_of(values, ("Close",) + tuple(f"F{i}" for i in range(1, columns)))
    scaler = scaling.fit(matrix.row_slice(0, split_row))
    scaled_out = []
    transform = scaling.transform

    def capture(*args, **kwargs):
        scaled_out.append(transform(*args, **kwargs))
        return scaled_out[-1]

    with mock.patch.object(scaling, "transform", capture):
        train, model = fit_windows(matrix, split_row, lookback, clip)
        test = held_out_windows(matrix, model)
    assert model.contract == split_contract(matrix, split_row, clip)
    assert model.scaler.mins.tobytes() == scaler.mins.tobytes()
    assert model.scaler.maxs.tobytes() == scaler.maxs.tobytes()
    unclipped = transform(scaler, matrix)
    scaled = replace(unclipped, values=np.clip(unclipped.values, -1, 1)) if clip else unclipped
    train_scaled, test_scaled = scaled_out
    assert train_scaled.values.tobytes() == scaled.values[:split_row].tobytes()
    # held_out_windows clips the rows it scaled, which its windows view
    assert test_scaled.values.tobytes() == scaled.values[split_row - lookback :].tobytes()
    train_ref, (clipped_inputs, _, _) = stack_and_slice(scaled, lookback, split_row)
    _, (_, test_targets, test_dates) = stack_and_slice(unclipped, lookback, split_row)
    # held out, clip bounds the window inputs only and never the targets
    test_ref = (clipped_inputs, test_targets, test_dates)
    for side, (inputs, targets, dates) in zip((train, test), (train_ref, test_ref)):
        assert np.array_equal(side.inputs, inputs)
        assert side.inputs.tobytes() == inputs.tobytes()
        assert np.array_equal(side.targets, targets)
        assert side.targets.tobytes() == targets.tobytes()
        assert side.dates == dates
    sides = ((train, train_scaled), (test, test_scaled))
    for (side, own), (other, theirs) in (sides, sides[::-1]):
        # read-only views of the rows their own side scaled, and of nothing else
        assert not side.inputs.flags.writeable
        assert np.shares_memory(side.inputs, own.values)
        for foreign in (matrix.values, theirs.values, other.inputs, side.targets):
            assert not np.shares_memory(side.inputs, foreign)
        for foreign in (matrix.values, own.values, theirs.values, other.targets):
            assert not np.shares_memory(side.targets, foreign)


def test_held_out_windows_clips_the_rows_it_scaled_and_leaves_the_matrix_alone():
    values = np.random.default_rng(7).normal(size=(30, 2))
    values[25] = (100.0, -100.0)  # a held-out row far outside the training range
    matrix = matrix_of(values.copy(), ("Close", "F1"))
    _, model = fit_windows(matrix, 20, 4, clip=True)
    test = held_out_windows(matrix, model)
    assert matrix.values.tobytes() == values.tobytes()
    assert not test.inputs.flags.writeable
    assert test.inputs.max() == 1.0 and test.inputs.min() == -1.0
    assert test.targets.max() > 1.0  # the clip bounds the inputs, never the targets


def test_fit_rows_memory_peak_is_under_half_a_copy_of_its_windows():
    # a copy of the 940 windows of 60 rows by 13 columns would take 5.9 MB; as views of the
    # 1000 scaled rows they take 0.1 MB, and at hidden 4 and batch 8 the forward block and
    # the rest of a fit stay near 0.35 MB, so the peak sits near 0.45 MB
    names = column_names_for(IndicatorConfig(), PAPER_MULTIVARIATE)
    matrix = matrix_of(np.random.default_rng(940).normal(size=(1001, 13)), names)
    cfg = RunConfig(mode="multivariate", lookback=60, hidden_sizes=(4,), batch_size=8, epochs=1)
    window_copy = 940 * 60 * 13 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, history = fit_rows(matrix, 1000, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(history["val_mse"]) == 1
    assert peak < window_copy / 2, peak
