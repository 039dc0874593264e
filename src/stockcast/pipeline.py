"""Glue that wires bars -> features -> scaling -> windows -> training.

One split rule serves train, evaluate and backtest: a sample trains when its
target row lies before ``split_row`` and tests otherwise, so with lookback L
the first split_row - L samples train. ``prepare_datasets`` applies it to a
matrix scaled by a given scaler, windowing each side from its own rows:
[0, split_row) and [split_row - L, rows). ``fit_split`` is the only model
factory, for train and every walk-forward fold; it fits the scaler on rows
[0, split_row) only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import dataset, lstm, scaling
from .config import RunConfig
from .dataset import WindowedDataset
from .indicators import FeatureMatrix, build_features
from .market_data import OhlcvSeries
from .scaling import ScalerParams


@dataclass(eq=False)
class PipelineResult:
    model: lstm.LstmModel
    history: dict
    train_ds: WindowedDataset
    test_ds: WindowedDataset
    matrix: FeatureMatrix


def build_matrix(series: OhlcvSeries, cfg: RunConfig) -> FeatureMatrix:
    return build_features(
        series,
        cfg.indicator_config(),
        column_set=cfg.effective_column_set(),
        use_adj_close=cfg.use_adj_close,
    )


def split_row_for(matrix_rows: int, lookback: int, train_fraction: float) -> int:
    """First matrix row whose Close is a test target."""
    if matrix_rows <= lookback:
        raise dataset.TooFewRows(lookback + 1, matrix_rows)
    num_samples = matrix_rows - lookback
    k = int(train_fraction * num_samples)
    if k < 1 or num_samples - k < 1:
        raise dataset.DegenerateSplit(
            f"split {k}/{num_samples - k} of {num_samples} samples leaves an empty side"
        )
    return lookback + k


def prepare_datasets(
    matrix: FeatureMatrix,
    scaler: ScalerParams,
    lookback: int,
    split_row: int,
    clip: bool = False,
) -> tuple[WindowedDataset, WindowedDataset]:
    """Scale, then window the samples with target row < split_row and the rest."""
    if not lookback < split_row < matrix.rows:
        raise dataset.DegenerateSplit(f"split row {split_row} of {matrix.rows} empties a side")
    scaled = scaling.transform(scaler, matrix, clip=clip)
    return (
        dataset.make_windows(scaled.row_slice(0, split_row), lookback),
        dataset.make_windows(scaled.row_slice(split_row - lookback, scaled.rows), lookback),
    )


def fit_split(matrix: FeatureMatrix, cfg: RunConfig, split_row: int, seed: int) -> PipelineResult:
    """Fit the scaler on rows [0, split_row), window both sides, train a fresh model from seed."""
    scaler = scaling.fit(matrix, (0, split_row))
    train_ds, test_ds = prepare_datasets(matrix, scaler, cfg.lookback, split_row, cfg.clip_scaled)
    tcfg = replace(cfg.train_config(), seed=seed)
    model_init = lstm.new_model(
        train_ds.feature_names,
        cfg.lookback,
        scaler,
        tcfg,
        cell_variant=cfg.cell_variant,
        column_set=cfg.effective_column_set(),
        indicator_config=cfg.indicator_config(),
        use_adj_close=cfg.use_adj_close,
    )
    model, history = lstm.train(model_init, train_ds, tcfg)
    return PipelineResult(model, history, train_ds, test_ds, matrix)


def train_from_series(series: OhlcvSeries, cfg: RunConfig) -> PipelineResult:
    """The full training pipeline as the train command runs it."""
    matrix = build_matrix(series, cfg)
    split_row = split_row_for(matrix.rows, cfg.lookback, cfg.train_fraction)
    return fit_split(matrix, cfg, split_row, cfg.seed)
