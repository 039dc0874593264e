"""Convert a format_version 1 stockcast model file to format_version 2.

    PYTHONPATH=src python tools/upgrade_model.py MODEL CSV --train-fraction F --out NEW

stockcast reads format_version 2 alone, and a version 2 file records the
train/test split its model was trained under (config.SplitContract). A
version 1 file records none, so the split is stated here, once: CSV is the
OHLCV file the model was trained on and F the --train-fraction it was trained
with. The split row is pipeline.split_row_for's on the model's features of
CSV, as train cuts it, and clip_scaled is false, because stockcast never
clipped a version 1 model's inputs.

Version 1 stores each layer as twelve per-gate decimal lists (w_fx (H, I),
w_fh (H, H), b_f (H,), ...), which lstm.gate_view places in the layer's W,
and its scaler and head as decimal lists. It also writes some facts twice: the
mode its column set implies, hidden_sizes and rng_seed beside train_config's,
and the scaler's column_names beside feature_names. This script makes version
1's own checks: each copy agrees with its fact, and each array has its shape
and finite values. The package's reader makes every other check, and
lstm.save_model writes the file. Exit codes are stockcast's: 0 on success, 2
for a file it refuses, 64 for a usage error.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import numpy as np

from stockcast import lstm, pipeline
from stockcast.cli import _LABELS, _Parser  # the command line's usage errors and labels
from stockcast.config import StockcastError, mode_for, resolve_config
from stockcast.indicators import build_features
from stockcast.lstm import CorruptModel, LstmLayerParams, UnsupportedVersion, gate_view
from stockcast.lstm import _need, _packed_document  # the package reader's own helpers
from stockcast.market_data import parse_csv

GATE_ARRAYS = ("w_fx", "w_ix", "w_gx", "w_ox", "w_fh", "w_ih", "w_gh", "w_oh",
               "b_f", "b_i", "b_g", "b_o")
# lets the package's reader check every other fact before the CSV gives the real split
STAND_IN_CONTRACT = {"split_row": 1, "clip_scaled": False, "train_first_date": "2000-01-01",
                     "train_last_date": "2000-01-01", "train_sha256": "0" * 64,
                     "first_test_date": "2000-01-02"}


def _array(container, key: str, path: str, shape: tuple[int, ...]) -> np.ndarray:
    """A version 1 decimal list of the given shape and finite values."""
    raw = _need(container, key, path, list)
    try:
        arr = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise CorruptModel(f"{path}.{key}", "not a numeric array") from None
    if arr.shape != shape:
        raise CorruptModel(f"{path}.{key}", f"shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise CorruptModel(f"{path}.{key}", "non-finite values")
    return arr


def check_copies(doc: dict) -> tuple[list, list]:
    """Each fact version 1 writes twice agrees with its copy; returns feature_names and
    hidden_sizes, which fix the arrays' shapes."""
    column_set = _need(doc, "column_set", "$", str)
    mode = _need(doc, "mode", "$", str)
    if mode != mode_for(column_set):
        raise CorruptModel("$.mode", f"{mode!r}, but column set {column_set!r} is "
                                     f"{mode_for(column_set)}")
    feature_names = _need(doc, "feature_names", "$", list)
    if not feature_names or not all(isinstance(n, str) for n in feature_names):
        raise CorruptModel("$.feature_names", "expected a list of strings")
    hidden_sizes = _need(doc, "hidden_sizes", "$", list)
    if not hidden_sizes or not all(isinstance(h, int) and h >= 1 for h in hidden_sizes):
        raise CorruptModel("$.hidden_sizes", "expected positive integers")
    train_config = _need(doc, "train_config", "$", dict)
    if _need(train_config, "hidden_sizes", "$.train_config", list) != hidden_sizes:
        raise CorruptModel("$.train_config.hidden_sizes", "differs from $.hidden_sizes")
    if _need(train_config, "seed", "$.train_config", int) != _need(doc, "rng_seed", "$", int):
        raise CorruptModel("$.train_config.seed", "differs from $.rng_seed")
    if _need(_need(doc, "scaler", "$", dict), "column_names", "$.scaler", list) != feature_names:
        raise CorruptModel("$.scaler.column_names", "scaler columns differ from feature_names")
    return feature_names, hidden_sizes


def v1_weights(doc: dict) -> tuple[list[LstmLayerParams], np.ndarray]:
    """A version 1 document's layers, each W filled through lstm.gate_view, and its head's w."""
    feature_names, hidden_sizes = check_copies(doc)
    layers_doc = _need(doc, "layers", "$", list)
    if len(layers_doc) != len(hidden_sizes):
        raise CorruptModel("$.layers", "layer count does not match hidden_sizes")
    layers, in_size = [], len(feature_names)
    for k, (layer_doc, hidden) in enumerate(zip(layers_doc, hidden_sizes)):
        # every array is read and shape-checked before the layer is allocated
        shapes = {"x": (hidden, in_size), "h": (hidden, hidden)}  # else a bias, (hidden,)
        gates = {name: _array(layer_doc, name, f"$.layers[{k}]", shapes.get(name[-1], (hidden,)))
                 for name in GATE_ARRAYS}
        layer = LstmLayerParams.zeros(in_size, hidden)
        for name, arr in gates.items():
            gate_view(layer, name)[...] = arr
        layers.append(layer)
        in_size = hidden
    return layers, _array(_need(doc, "head", "$", dict), "w", "$.head", (in_size,))


def v2_document(doc: dict) -> dict:
    """The version 1 document in format_version 2's layout, with STAND_IN_CONTRACT."""
    layers, head_w = v1_weights(doc)
    width = len(doc["feature_names"])
    return {
        **doc,
        "format_version": lstm.MODEL_FORMAT_VERSION,
        "scaler": {side: _packed_document(_array(doc["scaler"], side, "$.scaler", (width,)))
                   for side in ("mins", "maxs")},
        "layers": [{"W": _packed_document(layer.W)} for layer in layers],
        "head": {"w": _packed_document(head_w), "b": _need(doc["head"], "b", "$.head", object)},
        "contract": STAND_IN_CONTRACT,
    }


def upgrade(model_text: str, csv_text: str, train_fraction: float) -> lstm.LstmModel:
    """The version 1 model in model_text, carrying the split that train_fraction cuts from
    the model's features of the OHLCV csv_text."""
    try:
        doc = json.loads(model_text)
    except (ValueError, RecursionError) as exc:
        raise CorruptModel("$", f"invalid JSON: {exc}") from None
    version = _need(doc, "format_version", "$", int)
    if version != 1:
        raise UnsupportedVersion(f"format_version {version}; this tool converts version 1")
    # json.dumps, not dump_json: a non-finite head bias must reach the reader, which names it
    model = lstm.load_model(io.StringIO(json.dumps(v2_document(doc))))
    series = parse_csv(csv_text, "STOCK")  # a symbol only names the series
    matrix = build_features(series, model.indicator_config, model.column_set, model.use_adj_close)
    split_row = pipeline.split_row_for(matrix.rows, model.lookback, train_fraction)
    model.contract = pipeline.split_contract(matrix, split_row, clip_scaled=False)
    return model


def main(argv=None) -> int:
    parser = _Parser(prog="upgrade_model.py", description=__doc__.splitlines()[0])
    parser.add_argument("model", help="the format_version 1 model file")
    parser.add_argument("csv", help="the OHLCV CSV the model was trained on")
    parser.add_argument("--train-fraction", required=True, help="the fraction it was trained with")
    parser.add_argument("--out", required=True, help="the format_version 2 file to write")
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(overrides={"train_fraction": args.train_fraction})
        model = upgrade(Path(args.model).read_text("utf-8"), Path(args.csv).read_text("utf-8"),
                        cfg.train_fraction)
        lstm.save_model(model, args.out)
    except StockcastError as exc:
        print(f"{_LABELS[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return StockcastError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
