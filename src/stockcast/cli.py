"""Command-line interface.

Subcommands: indicators, train, evaluate, forecast, backtest, plot.
Exit codes: 0 success, and a StockcastError's exit_code (64 usage, 2 data,
3 numerical); a file that cannot be read or written is 2, and any other
exception is a bug, shown as a traceback with exit 1. Files are UTF-8, and
identical inputs, config, and seed produce byte-identical output files.

Only the handlers that compute import the numpy modules, so ``--help`` and
``plot`` start, and fail, without numpy. Each handler looks its functions
up when it runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import charts
from .config import (FIELD_CHOICES, ConfigError, RunConfig, StockcastError, parse_config_text,
                     resolve_config)

EXIT_OK = 0
_LABELS = {2: "error", 3: "numerical error", 64: "usage error"}  # by StockcastError.exit_code


class SeriesFileError(StockcastError, ValueError):
    """A plot --series CSV that cannot be read as a column of numbers."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


_FIELDS = {f.name: f for f in fields(RunConfig)}
_TRAIN_FLAGS = (
    "symbol", "mode", "column_set", "lookback", "train_fraction", "epochs", "batch_size",
    "learning_rate", "hidden_sizes", "validation_fraction", "gradient_clip_norm",
    "cell_variant", "use_adj_close", "clip_scaled",
)


def _flags(p: argparse.ArgumentParser, *names: str, **help_text: str) -> None:
    """One ``--dash-name`` flag per RunConfig field, typed from the field's declaration.

    An unset flag stays None, so config-file values and defaults show through.
    List fields stay strings here, for FIELD_PARSERS to read.
    """
    for name in names:
        f = _FIELDS[name]
        if f.type.startswith("tuple"):
            help_text.setdefault(name, "comma-separated, e.g. " + ",".join(map(str, f.default)))
        typed = {"action": "store_true"} if f.type == "bool" else {
            "type": {"int": int, "float": float}.get(f.type), "choices": FIELD_CHOICES.get(name)}
        p.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                       help=help_text.get(name), **typed)


def _globals(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="flat key=value config file")
    _flags(parser, "seed", seed="PRNG seed override")
    parser.add_argument("--verbose", action="store_true", default=None, help="chatty stderr")


def _command(sub, name: str, handler, help_text: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text)
    _globals(p)
    p.set_defaults(handler=handler)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="stockcast", description="LSTM forecasting for daily stock prices")
    _globals(parser)
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = _command(sub, "indicators", cmd_indicators, "compute a feature CSV from an OHLCV CSV")
    _flags(p, "input", "out", "symbol", "column_set", "use_adj_close")

    p = _command(sub, "train", cmd_train, "train a model and write it as JSON")
    _flags(p, "input")
    p.add_argument("--model-out", dest="model", default=None)
    _flags(p, "history_out", *_TRAIN_FLAGS)

    p = _command(sub, "evaluate", cmd_evaluate, "one-step metrics on the held-out test split")
    _flags(p, "input", "model")
    p.add_argument("--report-out", dest="out", default=None)
    _flags(p, "predictions_out", "symbol")

    p = _command(sub, "forecast", cmd_forecast, "recursive multi-day forecast from a trained model")
    _flags(p, "input", "model", "out", "horizon", "symbol")

    p = _command(sub, "backtest", cmd_backtest, "expanding-window walk-forward evaluation")
    _flags(p, "input", "out_dir", "folds", *_TRAIN_FLAGS)

    p = _command(sub, "plot", cmd_plot, "render series CSVs as an SVG chart")
    p.add_argument("--series", action="append", default=None, metavar="LABEL=PATH[:COLUMN]",
                   help="repeatable; COLUMN defaults to the last column")
    _flags(p, "out", "merge_out", out="SVG output path", merge_out="merged CSV output path")
    p.add_argument("--title", default="")

    return parser


def _resolve(args) -> RunConfig:
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = parse_config_text(Path(args.config).read_text("utf-8"))
    overrides = {name: value for name, value in vars(args).items() if name in _FIELDS}
    return resolve_config(file_values, overrides)


def _write_text(path, text: str) -> None:
    """As UTF-8. An argument the locale could not decode (PEP 383) goes out as its bytes."""
    data = text.encode("utf-8", "surrogateescape")
    data.decode("utf-8")  # bytes that are not UTF-8 raise UnicodeDecodeError: exit 2
    Path(path).write_bytes(data)


def _require(value: str, what: str) -> str:
    if not value:
        raise ConfigError(f"{what} is required (flag or config)")
    return value


def _load_series(cfg: RunConfig, path: str):
    from .market_data import parse_csv

    return parse_csv(Path(path).read_text("utf-8"), cfg.symbol)


def cmd_indicators(args, cfg: RunConfig) -> int:
    from . import pipeline
    from .indicators import write_feature_csv

    input_path = _require(cfg.input, "--input")
    out = _require(cfg.out, "--out")
    series = _load_series(cfg, input_path)
    matrix = pipeline.build_matrix(series, cfg)
    _write_text(out, write_feature_csv(matrix))
    print(matrix.warmup_dropped)
    return EXIT_OK


def cmd_train(args, cfg: RunConfig) -> int:
    from . import lstm, pipeline

    input_path = _require(cfg.input, "--input")
    model_out = _require(cfg.model, "--model-out")
    history_out = _require(cfg.history_out, "--history-out")
    series = _load_series(cfg, input_path)
    model, history = pipeline.train_from_series(series, cfg)
    lstm.save_model(model, model_out)
    lines = ["epoch,train_mse,val_mse"]
    for epoch, (train_mse, val_mse) in enumerate(
        zip(history["train_mse"], history["val_mse"]), start=1
    ):
        lines.append(f"{epoch},{train_mse:.17g},{val_mse:.17g}")
    _write_text(history_out, "\n".join(lines) + "\n")
    if args.verbose:
        final = history["train_mse"][-1]
        print(f"trained {cfg.epochs} epochs, final train mse {final:.6g}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args, cfg: RunConfig) -> int:
    from . import evaluation, lstm
    from .indicators import build_features
    from .jsonio import dump_json

    input_path = _require(cfg.input, "--input")
    model_path = _require(cfg.model, "--model")
    report_out = _require(cfg.out, "--report-out")
    series = _load_series(cfg, input_path)
    model = lstm.load_model(model_path)
    matrix = build_features(series, model.indicator_config, model.column_set, model.use_adj_close)
    report, rows = evaluation.evaluate_one_step(model, matrix)
    document = {
        **asdict(report),
        "mode": model.mode,
        "symbol": series.symbol,
        "epochs": model.train_config.epochs,
    }
    _write_text(report_out, dump_json(document) + "\n")
    if cfg.predictions_out:
        lines = ["date,actual,predicted"]
        lines += [f"{day.isoformat()},{a:.17g},{p:.17g}" for day, a, p in rows]
        _write_text(cfg.predictions_out, "\n".join(lines) + "\n")
    if args.verbose:
        print(f"mape {report.mape:.4f} over {report.n} samples", file=sys.stderr)
    return EXIT_OK


def cmd_forecast(args, cfg: RunConfig) -> int:
    from . import evaluation, lstm

    input_path = _require(cfg.input, "--input")
    model_path = _require(cfg.model, "--model")
    out = _require(cfg.out, "--out")
    series = _load_series(cfg, input_path)
    model = lstm.load_model(model_path)
    result = evaluation.forecast_recursive(model, series, cfg.horizon)
    lines = ["day_index,predicted_close"]
    lines += [f"{i},{v:.17g}" for i, v in enumerate(result.values, start=1)]
    _write_text(out, "\n".join(lines) + "\n")
    print(result.trend)
    return EXIT_OK


def cmd_backtest(args, cfg: RunConfig) -> int:
    from . import evaluation
    from .jsonio import dump_json

    input_path = _require(cfg.input, "--input")
    out_dir = _require(cfg.out_dir, "--out-dir")
    series = _load_series(cfg, input_path)
    reports = evaluation.walk_forward(series, cfg)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for j, report in enumerate(reports, start=1):
        document = {"fold": j, **asdict(report)}
        _write_text(directory / f"fold_{j:02d}.json", dump_json(document) + "\n")
        print(f"fold {j}: mape={report.mape:.6g} rmse={report.rmse:.6g} n={report.n}")
    return EXIT_OK


def _parse_series_arg(spec: str):
    label, sep, rest = spec.partition("=")
    if not sep:
        label, rest = "", spec
    path, column = rest, None
    if ":" in rest:
        candidate, _, col = rest.rpartition(":")
        if candidate and Path(candidate).exists():
            path, column = candidate, col
    if not label:
        label = Path(path).stem if column is None else f"{Path(path).stem} {column}"
    return label, path, column


def _read_series_csv(path: str, column: str | None) -> list[float]:
    rows = list(csv.reader(io.StringIO(Path(path).read_text("utf-8"))))
    if not rows:
        raise SeriesFileError(f"{path}: empty file")
    header = rows[0]
    if column is None:
        idx = len(header) - 1
    else:
        if column not in header:
            raise SeriesFileError(f"{path}: no column named {column!r}")
        idx = header.index(column)
    values = []
    for line_number, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise SeriesFileError(f"{path}: line {line_number}: ragged row")
        try:
            values.append(float(row[idx]))
        except ValueError:
            raise SeriesFileError(
                f"{path}: line {line_number}: non-numeric value {row[idx]!r}"
            ) from None
    if not values:
        raise SeriesFileError(f"{path}: no data rows")
    return values


def cmd_plot(args, cfg: RunConfig) -> int:
    if not args.series:
        raise ConfigError("at least one --series is required")
    if not cfg.out and not cfg.merge_out:
        raise ConfigError("--out and/or --merge-out is required")
    series = []
    for spec in args.series:
        label, path, column = _parse_series_arg(spec)
        series.append((label, _read_series_csv(path, column)))
    if cfg.out:
        _write_text(cfg.out, charts.render_line_chart(series, title=args.title))
    if cfg.merge_out:
        _write_text(cfg.merge_out, charts.merge_csv(series))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args, _resolve(args))
    except StockcastError as exc:
        print(f"{_LABELS[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeError) as exc:  # a file the user named, unreadable or not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return StockcastError.exit_code


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
