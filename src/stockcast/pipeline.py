"""Glue that wires bars -> features -> scaling -> windows -> training.

The caller cuts the split once, at ``split_row``: a sample trains when its
target row lies before it and is held out otherwise. ``fit_rows`` receives
the training rows [0, split_row) alone and fits the scaler on every row it
is given, so no held-out row reaches the scaler or the model.
``held_out_windows`` scales rows [split_row - L, rows) with that scaler and
windows them; the L rows before split_row are only the first window's inputs.
Train, evaluate and every walk-forward fold go through these two.

train records its cut in the model as a SplitContract. evaluate takes the
split and the clip from it, once ``contract_split`` has checked that the
CSV's training span is the one the model was trained on.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np

from . import dataset, lstm, scaling
from .config import RunConfig, SplitContract
from .dataset import WindowedDataset
from .indicators import FeatureMatrix, build_features
from .market_data import OhlcvSeries
from .scaling import ScalerParams


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


def fit_rows(train_rows: FeatureMatrix, cfg: RunConfig, seed: int) -> tuple[lstm.LstmModel, dict]:
    """Fit the scaler on every given row, window them, train a fresh model from seed.

    The rows need no clip: a scaler maps the rows it was fitted on into [-1, 1]."""
    scaler = scaling.fit(train_rows)
    scaled = scaling.transform(scaler, train_rows)
    train_ds = dataset.make_windows(scaled, cfg.lookback)
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
    return lstm.train(model_init, train_ds, tcfg)


def held_out_windows(
    matrix: FeatureMatrix,
    scaler: ScalerParams,
    lookback: int,
    split_row: int,
    clip: bool = False,
) -> WindowedDataset:
    """Scale and window rows [split_row - lookback, rows): the samples whose
    target row is split_row or later. clip bounds the inputs, never the targets."""
    if not lookback <= split_row < matrix.rows:
        raise dataset.DegenerateSplit(
            f"split row {split_row} needs {lookback} rows before it and 1 after, of {matrix.rows}"
        )
    held_out = matrix.row_slice(split_row - lookback, matrix.rows)
    windows = dataset.make_windows(scaling.transform(scaler, held_out), lookback)
    if clip:
        windows.inputs.clip(-1.0, 1.0, out=windows.inputs)  # make_windows copied them
    return windows


def split_contract(matrix: FeatureMatrix, split_row: int, clip_scaled: bool) -> SplitContract:
    """The SplitContract of a model trained on rows [0, split_row) of matrix."""
    import hashlib  # only train and evaluate hash, so the other commands skip its import

    span = np.ascontiguousarray(matrix.values[:split_row], dtype="<f8")
    return SplitContract(
        split_row=split_row,
        clip_scaled=clip_scaled,
        train_first_date=matrix.dates[0].isoformat(),
        train_last_date=matrix.dates[split_row - 1].isoformat(),
        train_sha256=hashlib.sha256(span.tobytes()).hexdigest(),
        first_test_date=matrix.dates[split_row].isoformat(),
    )


def contract_split(matrix: FeatureMatrix, contract: SplitContract) -> int:
    """contract.split_row, once matrix holds the contract's training span and first test
    date; SplitMismatch names the first field, in SplitContract's order, that differs."""
    if matrix.rows <= contract.split_row:
        raise dataset.SplitMismatch("split_row", contract.split_row, f"{matrix.rows} feature rows")
    found = split_contract(matrix, contract.split_row, contract.clip_scaled)
    for f in fields(SplitContract):
        if getattr(found, f.name) != getattr(contract, f.name):
            raise dataset.SplitMismatch(f.name, getattr(contract, f.name), getattr(found, f.name))
    return contract.split_row


def train_from_series(series: OhlcvSeries, cfg: RunConfig) -> tuple[lstm.LstmModel, dict]:
    """The full training pipeline as the train command runs it; the model records its split."""
    matrix = build_matrix(series, cfg)
    split_row = split_row_for(matrix.rows, cfg.lookback, cfg.train_fraction)
    model, history = fit_rows(matrix.row_slice(0, split_row), cfg, cfg.seed)
    model.contract = split_contract(matrix, split_row, cfg.clip_scaled)
    return model, history
