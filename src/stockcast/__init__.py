"""Daily stock price forecasting with a from-scratch stacked LSTM.

The package covers the whole loop: parsing OHLCV CSVs, technical
indicator features, min-max scaling to [-1, 1], windowed dataset
construction, LSTM training with backpropagation through time, one-step
evaluation, recursive multi-day forecasting, walk-forward backtesting,
and SVG charts. Everything is deterministic for a fixed seed, including
the files the CLI writes.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it, imported on first use so that
# `import stockcast` and the CLI's start-up load no numpy
_HOMES = {
    name: module
    for module, names in {
        "config": "ConfigError IndicatorConfig PAPER_MULTIVARIATE RunConfig StockcastError "
        "TABLE4_ALL TrainConfig UNIVARIATE parse_config_text resolve_config",
        "dataset": "WindowedDataset make_windows",
        "evaluation": "ForecastResult MetricsReport compute_metrics evaluate_one_step "
        "forecast_recursive rmse_from_mse walk_forward",
        "indicators": "FeatureMatrix build_features",
        "lstm": "LstmModel SplitMix64 load_model new_model save_model train",
        "market_data": "Bar OhlcvSeries parse_csv serialize_csv",
        "pipeline": "train_from_series",
        "scaling": "ScalerParams fit inverse_close transform",
    }.items()
    for name in names.split()
}

__all__ = sorted([*_HOMES, "__version__"])


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
