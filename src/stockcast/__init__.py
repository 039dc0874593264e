"""Daily stock price forecasting with a from-scratch stacked LSTM.

The package covers the whole loop: fetching and parsing OHLCV CSVs,
technical indicator features, min-max scaling to [-1, 1], windowed
dataset construction, LSTM training with backpropagation through time,
one-step evaluation, recursive multi-day forecasting, walk-forward
backtesting, and SVG charts. Everything is deterministic for a fixed
seed, including the files the CLI writes.
"""

from .config import ConfigError, RunConfig, parse_config_text, resolve_config
from .dataset import WindowedDataset, make_windows
from .evaluation import (
    ForecastResult,
    MetricsReport,
    compute_metrics,
    evaluate_one_step,
    forecast_recursive,
    rmse_from_mse,
    walk_forward,
)
from .indicators import (
    PAPER_MULTIVARIATE,
    TABLE4_ALL,
    UNIVARIATE,
    FeatureMatrix,
    IndicatorConfig,
    build_features,
)
from .lstm import (
    LstmModel,
    SplitMix64,
    TrainConfig,
    load_model,
    new_model,
    save_model,
    train,
)
from .market_data import Bar, OhlcvSeries, fetch_quotes, parse_csv, serialize_csv
from .pipeline import train_from_series
from .scaling import ScalerParams, fit, inverse_close, transform

__version__ = "0.1.0"

__all__ = [
    "Bar",
    "ConfigError",
    "FeatureMatrix",
    "ForecastResult",
    "IndicatorConfig",
    "LstmModel",
    "MetricsReport",
    "OhlcvSeries",
    "PAPER_MULTIVARIATE",
    "RunConfig",
    "ScalerParams",
    "SplitMix64",
    "TABLE4_ALL",
    "TrainConfig",
    "UNIVARIATE",
    "WindowedDataset",
    "__version__",
    "build_features",
    "compute_metrics",
    "evaluate_one_step",
    "fetch_quotes",
    "fit",
    "forecast_recursive",
    "inverse_close",
    "load_model",
    "make_windows",
    "new_model",
    "parse_config_text",
    "parse_csv",
    "resolve_config",
    "rmse_from_mse",
    "save_model",
    "serialize_csv",
    "train",
    "train_from_series",
    "transform",
    "walk_forward",
]
