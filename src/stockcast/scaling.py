"""Column-wise min-max scaling into [-1, +1], fitted on training rows only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import StockcastError
from .indicators import FeatureMatrix


class ScalingError(StockcastError):
    pass


class EmptyRange(ScalingError):
    pass


class ColumnMismatch(ScalingError):
    pass


class MissingCloseColumn(ScalingError):
    pass


@dataclass(frozen=True, eq=False)
class ScalerParams:
    column_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray


def fit(matrix: FeatureMatrix) -> ScalerParams:
    """Column extrema over every row given; pass the training rows alone."""
    if matrix.rows == 0:
        raise EmptyRange("cannot fit a scaler on a matrix with no rows")
    return ScalerParams(
        column_names=tuple(matrix.column_names),
        mins=matrix.values.min(axis=0),
        maxs=matrix.values.max(axis=0),
    )


def _check_columns(params: ScalerParams, column_names) -> None:
    ours = tuple(params.column_names)
    theirs = tuple(column_names)
    if ours == theirs:
        return
    for left, right in zip(ours, theirs):
        if left != right:
            raise ColumnMismatch(f"column {right!r} where scaler expects {left!r}")
    raise ColumnMismatch(f"scaler has {len(ours)} columns, matrix has {len(theirs)}")


def transform(params: ScalerParams, matrix: FeatureMatrix) -> FeatureMatrix:
    """Map x to 2*(x - min)/(max - min) - 1 per column; constant columns map to 0.

    Rows outside the fitted range land outside [-1, +1] by design.
    """
    _check_columns(params, matrix.column_names)
    return FeatureMatrix(
        dates=matrix.dates,
        column_names=matrix.column_names,
        values=scale(params, matrix.values),
    )


def scale(params: ScalerParams, values: np.ndarray) -> np.ndarray:
    """transform's arithmetic on bare rows whose last axis is params' columns.

    A value scaled past float64's range becomes inf without a warning; the
    model refuses it as NonFiniteInput.
    """
    with np.errstate(over="ignore"):
        span = params.maxs - params.mins
        safe = np.where(span > 0.0, span, 1.0)
        scaled = 2.0 * (values - params.mins) / safe - 1.0
    return np.where(span > 0.0, scaled, 0.0)


def inverse_close(params: ScalerParams, scaled):
    """Exact inverse of the Close column transform; accepts scalars or arrays."""
    try:
        idx = params.column_names.index("Close")
    except ValueError:
        raise MissingCloseColumn("scaler was fitted without a Close column") from None
    lo, hi = float(params.mins[idx]), float(params.maxs[idx])
    values = np.asarray(scaled, dtype=np.float64)
    out = (values + 1.0) * 0.5 * (hi - lo) + lo
    return float(out) if out.ndim == 0 else out
