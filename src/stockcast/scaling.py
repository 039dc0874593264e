"""Column-wise min-max scaling into [-1, +1], fitted on training rows only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indicators import FeatureMatrix


class ScalingError(Exception):
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


def fit(matrix: FeatureMatrix, row_range: tuple[int, int]) -> ScalerParams:
    """Column extrema over rows [start, stop); never include test rows here."""
    start, stop = row_range
    if not (0 <= start < stop <= matrix.rows):
        raise EmptyRange(f"row range [{start}, {stop}) invalid for {matrix.rows} rows")
    block = matrix.values[start:stop]
    return ScalerParams(
        column_names=tuple(matrix.column_names),
        mins=block.min(axis=0).copy(),
        maxs=block.max(axis=0).copy(),
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


def transform(params: ScalerParams, matrix: FeatureMatrix, clip: bool = False) -> FeatureMatrix:
    """Map x to 2*(x - min)/(max - min) - 1 per column; constant columns map to 0.

    Rows outside the fitted range land outside [-1, +1] by design unless
    clip is set.
    """
    _check_columns(params, matrix.column_names)
    span = params.maxs - params.mins
    safe = np.where(span > 0.0, span, 1.0)
    scaled = 2.0 * (matrix.values - params.mins) / safe - 1.0
    scaled = np.where(span > 0.0, scaled, 0.0)
    if clip:
        scaled = np.clip(scaled, -1.0, 1.0)
    return FeatureMatrix(
        dates=matrix.dates,
        column_names=matrix.column_names,
        values=scaled,
        warmup_dropped=matrix.warmup_dropped,
    )


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
