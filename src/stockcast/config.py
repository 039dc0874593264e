"""Run configuration: defaults, flat key=value config files, flag overrides.

Config files are plain text, one ``key = value`` per line. A ``#`` at the
start of a line or after whitespace starts a comment; elsewhere, as in a path
or a URL fragment, it is part of the value. Every key is validated before any
computation starts; unknown keys are errors. Command-line flags override file
values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, make_dataclass

from .indicators import COLUMN_SETS, UNIVARIATE, PAPER_MULTIVARIATE, IndicatorConfig
from .lstm import CELL_VARIANTS, MODES, TrainConfig
from .market_data import DEFAULT_ENDPOINT


class ConfigError(Exception):
    pass


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
    endpoint: str = DEFAULT_ENDPOINT
    timeout: float = 30.0
    input: str = ""
    out: str = ""
    model: str = ""
    out_dir: str = ""
    history_out: str = ""
    predictions_out: str = ""
    merge_out: str = ""

    def effective_column_set(self) -> str:
        if self.column_set:
            return self.column_set
        return UNIVARIATE if self.mode == "univariate" else PAPER_MULTIVARIATE

    def indicator_config(self) -> IndicatorConfig:
        return IndicatorConfig(**{f.name: getattr(self, f.name) for f in fields(IndicatorConfig)})

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})


RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=f.default))
     for sub in (IndicatorConfig, TrainConfig) for f in fields(sub)],
    bases=(_RunSettings,),
    frozen=True,
    namespace={"__module__": __name__},
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
}
FIELD_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(RunConfig)}


_COMMENT = re.compile(r"(?:^|\s)#")  # a # that opens a line or follows whitespace


def parse_config_text(text: str) -> dict[str, str]:
    """key = value lines; _COMMENT starts a comment; duplicate keys are errors."""
    values: dict[str, str] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
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
    if not cfg.timeout > 0.0:
        raise ConfigError("timeout must be positive")
    try:
        cfg.indicator_config()
        cfg.train_config()
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


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
    if "column_set" in kwargs and "mode" not in kwargs:
        kwargs["mode"] = "univariate" if kwargs["column_set"] == "univariate" else "multivariate"
    try:
        cfg = RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    _validate(cfg)
    return cfg
