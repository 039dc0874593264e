"""Sliding-window sample construction.

Sample s covers matrix rows [s, s + lookback) and its target is the Close
value at row s + lookback, so inputs never touch the target row or anything
after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import StockcastError
from .indicators import FeatureMatrix


class DatasetError(StockcastError):
    pass


@dataclass(eq=False)
class TooFewRows(DatasetError):
    needed: int
    have: int
    message = "need at least {needed} rows, have {have}"


class DegenerateSplit(DatasetError):
    pass


@dataclass(eq=False)
class SplitMismatch(DatasetError):
    """A CSV whose training span is not the one a model file records."""

    field: str
    recorded: object
    found: object
    message = "the model's {field} is {recorded}, the CSV gives {found}"


@dataclass(frozen=True, eq=False)
class WindowedDataset:
    inputs: np.ndarray  # (samples, lookback, features)
    targets: np.ndarray  # (samples,) scaled Close at the row after each window
    dates: tuple  # target date per sample

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
    # the view is (samples, features, lookback): one C-contiguous copy, lookback before features
    inputs = sliding_window_view(values[:-1], lookback, axis=0).transpose(0, 2, 1).copy()
    targets = values[lookback:, close_idx].copy()
    dates = tuple(matrix.dates[lookback:])
    return WindowedDataset(inputs, targets, dates)

