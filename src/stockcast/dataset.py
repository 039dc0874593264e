"""Sliding-window sample construction and sample slicing.

Sample s covers matrix rows [s, s + lookback) and its target is the Close
value at row s + lookback, so inputs never touch the target row or anything
after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indicators import FeatureMatrix


class DatasetError(Exception):
    pass


class TooFewRows(DatasetError):
    def __init__(self, needed: int, have: int):
        super().__init__(f"need at least {needed} rows, have {have}")
        self.needed = needed
        self.have = have

    def __reduce__(self):
        return type(self), (self.needed, self.have)


class DegenerateSplit(DatasetError):
    pass


@dataclass(frozen=True, eq=False)
class WindowedDataset:
    inputs: np.ndarray  # (samples, lookback, features)
    targets: np.ndarray  # (samples,) scaled Close at the row after each window
    dates: tuple  # target date per sample
    lookback: int
    feature_names: tuple[str, ...]

    def __len__(self) -> int:
        return self.inputs.shape[0]


def make_windows(matrix: FeatureMatrix, lookback: int) -> WindowedDataset:
    """Build rows - lookback supervised samples from a (scaled) feature matrix."""
    if lookback < 1:
        raise ValueError("lookback must be >= 1")
    rows = matrix.rows
    if rows <= lookback:
        raise TooFewRows(lookback + 1, rows)
    try:
        close_idx = matrix.column_names.index("Close")
    except ValueError:
        raise DatasetError("feature matrix has no Close column to target") from None
    values = matrix.values
    inputs = np.stack([values[t - lookback : t] for t in range(lookback, rows)])
    targets = values[lookback:, close_idx].copy()
    dates = tuple(matrix.dates[lookback:])
    return WindowedDataset(inputs, targets, dates, lookback, tuple(matrix.column_names))


def slice_samples(ds: WindowedDataset, start: int, stop: int) -> WindowedDataset:
    return WindowedDataset(
        inputs=ds.inputs[start:stop].copy(),
        targets=ds.targets[start:stop].copy(),
        dates=ds.dates[start:stop],
        lookback=ds.lookback,
        feature_names=ds.feature_names,
    )

