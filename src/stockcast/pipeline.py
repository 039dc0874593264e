"""Glue that wires bars -> features -> scaling -> windows -> training.

A model's split is stated once, in the SplitContract it records: a sample
trains when its target row lies before contract.split_row and is held out
otherwise. ``fit_rows`` makes the cut: it slices rows [0, split_row) first,
so the scaler and the model see training rows alone, and records the
contract on the model it returns. ``held_out_windows`` reads the split, the
clip and the scaler from that model, once the contract matches the matrix it
is given, and scales and windows rows [split_row - L, rows); the L rows
before split_row are only the first window's inputs. Train and every
walk-forward fold fit through fit_rows; evaluate and every fold score through
evaluation.evaluate_one_step(model, matrix), which calls held_out_windows.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np

from . import dataset, lstm, scaling
from .config import RunConfig, SplitContract
from .dataset import WindowedDataset
from .indicators import FeatureMatrix, build_features
from .market_data import OhlcvSeries


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


def fit_rows(matrix: FeatureMatrix, split_row: int, cfg: RunConfig,
             seed: int) -> tuple[lstm.LstmModel, dict]:
    """Train a fresh model from seed on rows [0, split_row) of matrix alone; the
    model records that cut, and cfg.clip_scaled, as its contract.

    The rows need no clip: a scaler maps the rows it was fitted on into [-1, 1]."""
    train_rows = matrix.row_slice(0, split_row)
    scaler = scaling.fit(train_rows)
    train_ds = dataset.make_windows(scaling.transform(scaler, train_rows), cfg.lookback)
    tcfg = replace(cfg.train_config(), seed=seed)
    model_init = lstm.new_model(
        train_rows.column_names,
        cfg.lookback,
        scaler,
        tcfg,
        split_contract(matrix, split_row, cfg.clip_scaled),
        cell_variant=cfg.cell_variant,
        column_set=cfg.effective_column_set(),
        indicator_config=cfg.indicator_config(),
        use_adj_close=cfg.use_adj_close,
    )
    return lstm.train(model_init, train_ds, tcfg)


def held_out_windows(matrix: FeatureMatrix, model: lstm.LstmModel) -> WindowedDataset:
    """Scale and window the samples whose target row is model.contract.split_row or later.

    matrix must hold the contract's training span and first test date;
    SplitMismatch names the first field, in SplitContract's order, that
    differs. contract.clip_scaled bounds the inputs, never the targets."""
    contract, lookback = model.contract, model.lookback
    split_row = contract.split_row
    if matrix.rows <= split_row:
        raise dataset.SplitMismatch("split_row", split_row, f"{matrix.rows} feature rows")
    found = split_contract(matrix, split_row, contract.clip_scaled)
    for f in fields(SplitContract):
        if getattr(found, f.name) != getattr(contract, f.name):
            raise dataset.SplitMismatch(f.name, getattr(contract, f.name), getattr(found, f.name))
    if split_row < lookback:  # a file may record a split that no fit could have made
        raise dataset.DegenerateSplit(
            f"split row {split_row} needs {lookback} rows before it and 1 after, of {matrix.rows}"
        )
    held_out = matrix.row_slice(split_row - lookback, matrix.rows)
    windows = dataset.make_windows(scaling.transform(model.scaler, held_out), lookback)
    if contract.clip_scaled:
        windows.inputs.clip(-1.0, 1.0, out=windows.inputs)  # make_windows copied them
    return windows


def split_contract(matrix: FeatureMatrix, split_row: int, clip_scaled: bool) -> SplitContract:
    """The SplitContract of a model trained on rows [0, split_row) of matrix."""
    import hashlib  # only train, evaluate and backtest hash, so the other commands skip its import

    span = np.ascontiguousarray(matrix.values[:split_row], dtype="<f8")
    return SplitContract(
        split_row=split_row,
        clip_scaled=clip_scaled,
        train_first_date=matrix.dates[0].isoformat(),
        train_last_date=matrix.dates[split_row - 1].isoformat(),
        train_sha256=hashlib.sha256(span.tobytes()).hexdigest(),
        first_test_date=matrix.dates[split_row].isoformat(),
    )


def train_from_series(series: OhlcvSeries, cfg: RunConfig) -> tuple[lstm.LstmModel, dict]:
    """The full training pipeline as the train command runs it; the model records its split."""
    matrix = build_matrix(series, cfg)
    return fit_rows(matrix, split_row_for(matrix.rows, cfg.lookback, cfg.train_fraction), cfg,
                    cfg.seed)
