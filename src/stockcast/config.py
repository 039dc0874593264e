"""Run configuration: every hyperparameter, its default and its allowed values.

Config files are plain text, one ``key = value`` per line. A ``#`` at the
start of a line or after whitespace starts a comment; elsewhere, as in the
path ``runs/#3/data.csv``, it is part of the value. Unknown keys are errors,
and a RunConfig checks every value when it is built, by resolve_config,
directly or by dataclasses.replace, so a bad value raises ConfigError before
any computation starts. Command-line flags override file values.

This module imports no numpy, so argument parsing, ``--help`` and ``plot``
run without it; indicators and lstm import their settings from here.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, fields, make_dataclass

UNIVARIATE = "univariate"
PAPER_MULTIVARIATE = "paper_multivariate"
TABLE4_ALL = "table4_all"
COLUMN_SETS = (UNIVARIATE, PAPER_MULTIVARIATE, TABLE4_ALL)
CELL_VARIANTS = ("standard", "as_printed")
MODES = ("univariate", "multivariate")
path = str  # the type of the seven file-name settings; _TYPE_PARSERS reads it


class StockcastError(Exception):
    """Bad input: the CLI prints it on one line and exits with its class's exit_code."""

    exit_code = 2  # bad data; usage errors are 64 and numerical failures 3
    message = ""  # a dataclass subclass's str.format template over its fields

    def __post_init__(self):  # BaseException keeps positional arguments alone as args
        self.args = tuple(getattr(self, f.name) for f in fields(self))

    def __str__(self):
        return self.message.format(**vars(self)) if self.message else super().__str__()


class ConfigError(StockcastError):
    exit_code = 64


@dataclass(frozen=True)
class IndicatorConfig:
    """Periods and smoothing constants for every indicator."""

    sma_periods: tuple[int, ...] = (10, 50, 200)
    wma_period: int = 10
    ema_alpha: float = 0.1
    rsi_period: int = 14
    cci_period: int = 20
    stoch_k_period: int = 14
    stoch_d_period: int = 10
    macd_fast: int = 12
    macd_slow: int = 26
    macd_signal: int = 9

    def __post_init__(self):
        object.__setattr__(self, "sma_periods", tuple(int(p) for p in self.sma_periods))
        periods = (
            *self.sma_periods,
            self.wma_period,
            self.rsi_period,
            self.cci_period,
            self.stoch_k_period,
            self.stoch_d_period,
            self.macd_fast,
            self.macd_slow,
            self.macd_signal,
        )
        if not self.sma_periods:
            raise ValueError("sma_periods must not be empty")
        if any(p < 1 for p in periods):
            raise ValueError("indicator periods must be >= 1")
        for name in ("macd_fast", "macd_signal"):  # an EMA of period 1 has alpha 2 / (1 + 1) = 1
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2")
        if not 0.0 < self.ema_alpha < 1.0:
            raise ValueError("ema_alpha must lie in (0, 1)")
        if self.macd_fast >= self.macd_slow:
            raise ValueError("macd_fast must be smaller than macd_slow")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    hidden_sizes: tuple[int, ...] = (50, 50)
    validation_fraction: float = 0.1
    seed: int = 42
    gradient_clip_norm: float = 5.0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be non-empty positive integers")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie strictly between 0 and 1")
        if not 0.0 < self.gradient_clip_norm < float("inf"):  # the model file holds finite floats
            raise ValueError("gradient_clip_norm must be positive and finite")


@dataclass(frozen=True)
class SplitContract:
    """The train/test split a model was trained under, as its file records it.

    The training span is feature-matrix rows [0, split_row), so split_row is
    also its row count; row split_row, dated first_test_date, holds the first
    test target. train_sha256 hashes the span's float64 feature bytes, so a
    changed close, column set or indicator setting shows. clip_scaled bounds
    every model input outside training, in evaluate and in forecast, to
    [-1, 1]; it never touches the closes that get scored.
    """

    split_row: int
    clip_scaled: bool
    train_first_date: str
    train_last_date: str
    train_sha256: str
    first_test_date: str

    def __post_init__(self):
        from datetime import date  # here, so that --help and plot start without it

        if self.split_row < 1:
            raise ValueError("split_row must be >= 1")
        for name in ("train_first_date", "train_last_date", "first_test_date"):
            value = getattr(self, name)
            try:
                canonical = date.fromisoformat(value).isoformat() == value
            except ValueError:
                canonical = False
            if not canonical:
                raise ValueError(f"{name} must be a YYYY-MM-DD date")
        if not re.fullmatch(r"[0-9a-f]{64}", self.train_sha256):
            raise ValueError("train_sha256 must be 64 lowercase hex digits")


def mode_for(column_set: str) -> str:
    """The mode a column set implies: univariate exactly for the univariate set."""
    return "univariate" if column_set == UNIVARIATE else "multivariate"


@dataclass(frozen=True)
class _RunSettings:
    """Run-level settings. RunConfig adds every IndicatorConfig and TrainConfig
    field to them, flat, with the default declared in the sub-config."""

    symbol: str = "STOCK"
    mode: str = "univariate"
    column_set: str = ""  # empty resolves from mode
    lookback: int = 60
    train_fraction: float = 0.80
    cell_variant: str = "standard"
    horizon: int = 30
    folds: int = 5
    use_adj_close: bool = False
    clip_scaled: bool = False
    input: path = ""
    out: path = ""
    model: path = ""
    out_dir: path = ""
    history_out: path = ""
    predictions_out: path = ""
    merge_out: path = ""

    def effective_column_set(self) -> str:
        if self.column_set:
            return self.column_set
        return UNIVARIATE if self.mode == "univariate" else PAPER_MULTIVARIATE

    def indicator_config(self) -> IndicatorConfig:
        return IndicatorConfig(**{f.name: getattr(self, f.name) for f in fields(IndicatorConfig)})

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})


def _validate(cfg: RunConfig) -> None:
    if cfg.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    if cfg.column_set and cfg.column_set not in COLUMN_SETS:
        raise ConfigError(f"column_set must be one of {COLUMN_SETS}, got {cfg.column_set!r}")
    effective = cfg.effective_column_set()
    if cfg.mode == "univariate" and effective != UNIVARIATE:
        raise ConfigError("univariate mode requires the univariate column set")
    if cfg.mode == "multivariate" and effective == UNIVARIATE:
        raise ConfigError("multivariate mode requires a multi-column set")
    if cfg.cell_variant not in CELL_VARIANTS:
        raise ConfigError(f"cell_variant must be one of {CELL_VARIANTS}")
    if cfg.lookback < 1:
        raise ConfigError("lookback must be >= 1")
    if not 0.0 < cfg.train_fraction < 1.0:
        raise ConfigError("train_fraction must lie strictly between 0 and 1")
    if cfg.horizon < 1:
        raise ConfigError("horizon must be >= 1")
    if cfg.folds < 2:
        raise ConfigError("folds must be >= 2")
    try:
        cfg.indicator_config()
        cfg.train_config()
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=f.default))
     for sub in (IndicatorConfig, TrainConfig) for f in fields(sub)],
    bases=(_RunSettings,),
    frozen=True,
    namespace={"__module__": __name__, "__post_init__": _validate},
)

# Values a field may take; the flags offer them as argparse choices.
FIELD_CHOICES = {"mode": MODES, "column_set": COLUMN_SETS, "cell_variant": CELL_VARIANTS}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_int(raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        return float(raw.strip())
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


def _parse_int_list(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",")]
    if "" in parts:  # an empty item, as in "50,,50" or "50,", is a typo, not a shorter list
        raise ValueError("expected a comma-separated list of integers")
    return tuple(_parse_int(p) for p in parts)


_TYPE_PARSERS = {
    "tuple[int, ...]": _parse_int_list,
    "int": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "str": lambda raw: raw,
    # raw's UTF-8 bytes, whatever the locale; undecodable argv bytes are surrogates (PEP 383)
    "path": lambda raw: os.fsdecode(raw.encode("utf-8", "surrogateescape")),
}
FIELD_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(RunConfig)}


_COMMENT = re.compile(r"(?:^|\s)#")  # a # that opens a line or follows whitespace


def parse_config_text(text: str) -> dict[str, str]:
    """key = value lines; _COMMENT starts a comment; duplicate keys are errors."""
    values: dict[str, str] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        if "\0" in raw:  # no file name holds one
            raise ConfigError(f"line {line_number}: NUL character")
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {line_number}: expected key = value")
        if key in values:
            raise ConfigError(f"line {line_number}: duplicate key {key!r}")
        values[key] = value
    return values


def resolve_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge file values then overrides onto defaults, parse, and validate."""
    merged: dict[str, object] = {}
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if value is not None:
                merged[key] = value
    unknown = sorted(set(merged) - set(FIELD_PARSERS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs: dict[str, object] = {}
    for key, raw in merged.items():
        if isinstance(raw, str):
            try:
                kwargs[key] = FIELD_PARSERS[key](raw)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        else:
            kwargs[key] = raw
    if kwargs.get("column_set") and "mode" not in kwargs:
        kwargs["mode"] = mode_for(kwargs["column_set"])
    return RunConfig(**kwargs)
