"""The four workloads, their seeded input and the checks on their outputs.

Every workload is a closed loop with one client: `iterate()` issues the
workload's stockcast commands one at a time, each after the previous one
has finished, and returns the wall seconds they took together. Only
`cli_cold` starts processes, one child at a time. The program sees nothing
of the benchmark but the CSV written in `setup()` and the command line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import traceback
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from tracer import read_spans

BENCH_DIR = Path(__file__).resolve().parent
CSV_HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"
LOOKBACK = 60
BATCH = 32
# rows the 200-bar SMA drops from the front of the paper_multivariate set
PAPER_WARMUP = 199
FEATURES_HEADER = (
    "Date,Close,CMA,SMA10,SMA50,SMA200,EMA_0.1,RSI,K%,D%,CCI,macd,macd_s,macd_h"
)
TRAIN_FRACTION = 0.8
VALIDATION_FRACTION = 0.1
CHILD_TIMEOUT_S = 120
# console-script equivalent of `stockcast ARGS...`
ENTRY = "from stockcast.cli import entrypoint; entrypoint()"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import stockcast.cli; "
    "print(repr(time.perf_counter() - t))"
)

# Smoke sizes only prove that the harness runs; their timings mean nothing.
SIZES = {
    "full": {
        "bars": 1530, "backtest_bars": 510, "train_epochs": 1, "backtest_epochs": 1, "horizon": 30,
        "cli_horizon": 5, "folds": 5, "setup_repeats": 3,
    },
    "smoke": {
        "bars": 600, "backtest_bars": 600, "train_epochs": 1, "backtest_epochs": 1, "horizon": 2,
        "cli_horizon": 2, "folds": 5, "setup_repeats": 1,
    },
}

NETWORK = ["--lookback", str(LOOKBACK), "--hidden-sizes", "50,50", "--batch-size", str(BATCH)]
MULTIVARIATE = ["--mode", "multivariate", "--column-set", "paper_multivariate", *NETWORK]
UNIVARIATE = ["--mode", "univariate", *NETWORK]


def ohlcv_csv(bars: int, seed: int) -> str:
    """A multiplicative random walk as daily OHLCV CSV text.

    The recipe of the test suite's random_walk_series: daily returns drawn
    from N(0.0005, 0.01) from a start of 100, the open within N(0, 0.003) of
    the close, high and low pushed out by |N(0, 0.002)| so that
    low <= open, close <= high, and volume uniform in [1e5, 5e6).
    """
    rng = np.random.default_rng(seed)
    closes = 100.0 * np.cumprod(1.0 + rng.normal(0.0005, 0.01, bars))
    lines = [CSV_HEADER]
    day = date(2015, 1, 2)
    for close in closes.tolist():
        open_ = close * (1.0 + float(rng.normal(0.0, 0.003)))
        high = max(open_, close) * (1.0 + abs(float(rng.normal(0.0, 0.002))))
        low = min(open_, close) * (1.0 - abs(float(rng.normal(0.0, 0.002))))
        volume = float(rng.integers(100_000, 5_000_000))
        lines.append(f"{day.isoformat()},{open_!r},{high!r},{low!r},{close!r},{close!r},{volume!r}")
        day += timedelta(days=1)
    return "\n".join(lines) + "\n"


def reference_seconds(steps: int) -> float:
    """Wall seconds of a fixed numpy computation shaped like LSTM steps.

    A slice of it runs right after each timed command, so its time tracks
    how fast the shared machine runs at that moment; command time over
    reference time cancels that drift. Its inputs never change, and it
    uses nothing of the program.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((BATCH, 13))
    weights = rng.standard_normal((63, 200)) * 0.1
    h = np.zeros((BATCH, 50))
    c = np.zeros((BATCH, 50))
    start = time.perf_counter()
    for _ in range(steps):
        z = np.concatenate([x, h], axis=1) @ weights
        gates = 1.0 / (1.0 + np.exp(-z[:, :150]))
        c = gates[:, :50] * c + gates[:, 50:100] * np.tanh(z[:, 150:])
        h = gates[:, 100:] * np.tanh(c)
    return time.perf_counter() - start


def split_sizes(rows: int) -> tuple[int, int]:
    """(fitting windows, test windows) of a train/evaluate split of `rows`
    feature rows: the first 80% of windows train, and the last 10% of
    those are held out for validation."""
    samples = rows - LOOKBACK
    train = int(TRAIN_FRACTION * samples)
    return train - int(train * VALIDATION_FRACTION), samples - train


def fold_sizes(rows: int, folds: int) -> list[tuple[int, int]]:
    """(fitting windows, test windows) of each walk-forward fold."""
    sizes = []
    for j in range(1, folds + 1):
        train_end = rows * j // (folds + 1)
        samples = train_end - LOOKBACK
        sizes.append(
            (samples - int(samples * VALIDATION_FRACTION), rows * (j + 1) // (folds + 1) - train_end)
        )
    return sizes


def setup_model_args(csv: Path, model: Path) -> list:
    """The set-up training of the workloads that need a model: 1 epoch."""
    return [
        "train", "--input", csv, "--model-out", model,
        "--history-out", model.with_name("setup_history.csv"), *MULTIVARIATE, "--epochs", "1",
    ]


def batches(windows: int) -> int:
    return -(-windows // BATCH)


# ---- output checks: each raises ValueError naming what is wrong ----------


def finite_json(path: Path) -> dict:
    def reject(token):
        raise ValueError(f"{path.name}: non-finite {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def csv_numbers(path: Path, header: str, rows: int, skip: int = 0) -> list[list[float]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    if len(lines) - 1 != rows:
        raise ValueError(f"{path.name}: {len(lines) - 1} rows, expected {rows}")
    table = [[float(v) for v in line.split(",")[skip:]] for line in lines[1:]]
    if not all(math.isfinite(v) for row in table for v in row):
        raise ValueError(f"{path.name}: non-finite value")
    return table


def check_report(path: Path, n: int) -> float:
    report = finite_json(path)
    for key in ("mape", "mae", "mse", "rmse"):
        if not isinstance(report[key], (int, float)):
            raise ValueError(f"{path.name}: {key} is not a number")
    if report["n"] != n:
        raise ValueError(f"{path.name}: n is {report['n']}, expected {n}")
    return float(report["mape"])


def check_forecast(path: Path, horizon: int) -> None:
    table = csv_numbers(path, "day_index,predicted_close", horizon)
    if [row[0] for row in table] != list(range(1, horizon + 1)):
        raise ValueError(f"{path.name}: day_index is not 1..{horizon}")


def check_model(path: Path) -> None:
    if "layers" not in finite_json(path):
        raise ValueError(f"{path.name}: no layers")


def digest(stdout: str, outputs) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in outputs:
        files = sorted(path.iterdir()) if path.is_dir() else [path]
        for item in files:
            h.update(item.name.encode() + b"\0" + item.read_bytes())
    return h.hexdigest()


class Session:
    """One benchmark run: its files, samples, failures and optional tracer."""

    def __init__(self, root: Path, work: Path, sizes: dict, tracer=None):
        self.work = work
        self.sizes = sizes
        self.tracer = tracer
        self.traced = False  # true while a traced iteration runs
        self.reference_steps = 0  # reference slice after each untraced command
        self.reference_s = 0.0  # reference seconds accumulated since reset
        self.samples: dict[str, list[float]] = {}
        self.quality: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self._digests: dict[str, str] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        )

    def sample(self, name: str, value: float) -> None:
        """Timings come from untraced iterations only."""
        if not self.traced:
            self.samples.setdefault(name, []).append(value)

    def warm_up(self, args, fresh: bool = False) -> None:
        """A set-up command: not counted, but it must succeed."""
        rc, _, stderr, _ = self._spawn(args) if fresh else self._in_process(args)
        if rc != 0:
            raise RuntimeError(f"set-up command {args[:1]} failed ({rc}): {stderr[-2000:]}")

    def command(self, label: str, args, outputs=(), check=None, fresh: bool = False) -> float:
        """Run one counted command, verify what it wrote, return its wall seconds.

        The command fails if it exits non-zero, leaves an output missing,
        fails `check`, or writes bytes (stdout included) that differ from
        the first run of the same label in this run.
        """
        for path in outputs:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)
        rc, stdout, stderr, wall = self._spawn(args) if fresh else self._in_process(args)
        if self.reference_steps and not self.traced:
            self.reference_s += reference_seconds(self.reference_steps)
        self.attempted += 1
        problem = None
        if rc != 0:
            problem = f"exit {rc}: {stderr[-2000:]}"
        elif any(not path.exists() for path in outputs):
            problem = "an output file is missing"
        else:
            try:
                if check is not None:
                    check()
                got = digest(stdout, outputs)
                if self._digests.setdefault(label, got) != got:
                    problem = "output bytes differ from the first iteration"
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
        return wall

    def _in_process(self, args):
        from stockcast import cli

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main([str(a) for a in args])
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception"
            err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start

    def _spawn(self, args, code: str = ENTRY):
        spans_path = self.work / "child_spans.jsonl"
        if self.traced:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path)]
        else:
            cmd = [sys.executable, "-c", code]
        cmd += [str(a) for a in args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=self.work, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "timeout", "", "", time.perf_counter() - start
        wall = time.perf_counter() - start
        if self.traced and spans_path.exists():
            self.tracer.absorb(read_spans(spans_path))
        return proc.returncode, proc.stdout, proc.stderr, wall

    def import_seconds(self) -> float:
        """Fresh-process `import stockcast.cli`, timed inside the child."""
        rc, stdout, stderr, _ = self._spawn([], code=IMPORT_PROBE)
        if rc != 0:
            raise RuntimeError(f"import probe failed ({rc}): {stderr[-2000:]}")
        return float(stdout)


class Workload:
    """Subclasses define setup(seed) and iterate(), and declare:

    - `commands`: command-level figures, name -> (unit, sample key,
      windows per command or None); a windows figure turns the median
      seconds into windows per second.
    - `expected_calls`: (span, descendant span, counts) self-checks for a
      traced iteration: the i-th `span` call of the iteration must contain
      counts[i] calls of the descendant.
    - `model`: the model file the workload writes or reads, if any.
    - `fresh_process`: the commands run as child processes.
    - `reference_steps`: size of the reference slice after each command,
      about a tenth to a fifth of the command's time.
    """

    name = ""
    fresh_process = False
    reference_steps = 4000
    model: Path | None = None

    def __init__(self, session: Session):
        self.s = session
        self.sizes = session.sizes
        self.csv = session.work / "prices.csv"
        self.commands: dict[str, tuple] = {}
        self.expected_calls: list[tuple[str, str, list[int]]] = []


class TrainMultivariate(Workload):
    """`train` in-process at paper scale: the LSTM forward/backward hot path.

    Indicators run once per command, so kernel, Adam and clipping changes
    show here and indicator changes should not.
    """

    name = "train_multivariate"

    def __init__(self, session):
        super().__init__(session)
        self.model = self.s.work / "model.json"
        self.history = self.s.work / "history.csv"
        self.epochs = self.sizes["train_epochs"]
        fit, _ = split_sizes(self.sizes["bars"] - PAPER_WARMUP)
        self.args = [
            "train", "--input", self.csv, "--model-out", self.model,
            "--history-out", self.history, *MULTIVARIATE,
        ]
        self.commands = {
            "train_windows_per_s": ("windows/s", "train_s", fit * self.epochs),
        }
        self.expected_calls = [
            ("cli.main", "indicators.build_features", [1]),
            ("cli.main", "jsonio.dump_json", [1]),
            ("lstm.train", "lstm.backward", [batches(fit) * self.epochs]),
        ]

    def setup(self, seed):
        self.csv.write_text(ohlcv_csv(self.sizes["bars"], seed))
        self.s.warm_up([*self.args, "--epochs", "1"])

    def check(self):
        history = csv_numbers(self.history, "epoch,train_mse,val_mse", self.epochs)
        check_model(self.model)
        self.s.quality["val_mse"] = history[-1][2]

    def iterate(self):
        wall = self.s.command(
            "train", [*self.args, "--epochs", self.epochs], [self.model, self.history], self.check
        )
        self.s.sample("train_s", wall)
        return wall


class InferMultivariate(Workload):
    """`evaluate` (forward at batch 256) then a 30-step `forecast` (forward at
    batch 1, features rebuilt every step) on a model trained in set-up.

    No backward runs, so incremental-indicator and series changes show here
    and not in training.
    """

    name = "infer_multivariate"
    reference_steps = 1000

    def __init__(self, session):
        super().__init__(session)
        self.model = self.s.work / "model.json"
        self.report = self.s.work / "report.json"
        self.forecast = self.s.work / "forecast.csv"
        self.horizon = self.sizes["horizon"]
        _, self.test = split_sizes(self.sizes["bars"] - PAPER_WARMUP)
        self.commands = {
            "evaluate_windows_per_s": ("windows/s", "evaluate_s", self.test),
            "forecast_s": ("s", "forecast_s", None),
        }
        self.expected_calls = [
            ("cli.main", "indicators.build_features", [1, self.horizon]),
            ("cli.main", "jsonio.dump_json", [1, 0]),
            ("evaluation.forecast_recursive", "indicators.build_features", [self.horizon]),
        ]

    def evaluate_args(self):
        return ["evaluate", "--input", self.csv, "--model", self.model, "--report-out", self.report]

    def forecast_args(self):
        return [
            "forecast", "--input", self.csv, "--model", self.model, "--out", self.forecast,
            "--horizon", self.horizon,
        ]

    def setup(self, seed):
        self.csv.write_text(ohlcv_csv(self.sizes["bars"], seed))
        self.s.warm_up(setup_model_args(self.csv, self.model))
        self.s.warm_up(self.evaluate_args())
        self.s.warm_up(self.forecast_args())

    def check_report(self):
        self.s.quality["test_mape"] = check_report(self.report, self.test)

    def iterate(self):
        evaluate = self.s.command(
            "evaluate", self.evaluate_args(), [self.report], self.check_report
        )
        forecast = self.s.command(
            "forecast", self.forecast_args(), [self.forecast],
            lambda: check_forecast(self.forecast, self.horizon),
        )
        self.s.sample("evaluate_s", evaluate)
        self.s.sample("forecast_s", forecast)
        return evaluate + forecast


class BacktestUnivariate(Workload):
    """`backtest --folds 5` on the close alone: five independent fits at input
    width 1, where the recurrent GEMM dominates, five weight inits, and a
    scaler and windows rebuilt per fold. Fold parallelism shows only here.
    """

    name = "backtest_univariate"
    reference_steps = 6000

    def __init__(self, session):
        super().__init__(session)
        self.folds_dir = self.s.work / "folds"
        self.epochs = self.sizes["backtest_epochs"]
        self.folds = fold_sizes(self.sizes["backtest_bars"], self.sizes["folds"])
        self.args = [
            "backtest", "--input", self.csv, "--out-dir", self.folds_dir,
            "--folds", self.sizes["folds"], *UNIVARIATE, "--epochs", self.epochs,
        ]
        self.commands = {"backtest_s": ("s", "backtest_s", None)}
        self.expected_calls = [
            ("evaluation.walk_forward", "lstm.new_model", [self.sizes["folds"]]),
            ("lstm.train", "lstm.backward", [batches(fit) * self.epochs for fit, _ in self.folds]),
            ("cli.main", "jsonio.dump_json", [self.sizes["folds"]]),
        ]

    def setup(self, seed):
        self.csv.write_text(ohlcv_csv(self.sizes["backtest_bars"], seed))
        self.s.warm_up([
            "train", "--input", self.csv, "--model-out", self.s.work / "warm_model.json",
            "--history-out", self.s.work / "warm_history.csv", *UNIVARIATE, "--epochs", "1",
        ])

    def check(self):
        mapes = [
            check_report(self.folds_dir / f"fold_{j:02d}.json", test)
            for j, (_, test) in enumerate(self.folds, start=1)
        ]
        self.s.quality["backtest_mape"] = sum(mapes) / len(mapes)

    def iterate(self):
        wall = self.s.command("backtest", self.args, [self.folds_dir], self.check)
        self.s.sample("backtest_s", wall)
        return wall


class CliCold(Workload):
    """Fresh-process commands: `--help` for start-up alone, then
    indicators -> evaluate -> forecast -> plot on files made in set-up.

    Interpreter and import cost, CSV parsing, model JSON loading and charts
    are a visible share only here.
    """

    name = "cli_cold"
    fresh_process = True
    reference_steps = 1000

    def __init__(self, session):
        super().__init__(session)
        self.model = self.s.work / "model.json"
        self.predictions = self.s.work / "predictions.csv"
        self.features = self.s.work / "features.csv"
        self.report = self.s.work / "report.json"
        self.forecast = self.s.work / "forecast.csv"
        self.chart = self.s.work / "chart.svg"
        self.horizon = self.sizes["cli_horizon"]
        self.rows = self.sizes["bars"] - PAPER_WARMUP
        _, self.test = split_sizes(self.rows)
        self.commands = {
            "cli_startup_s": ("s", "cli_startup_s", None),
            "cli_sequence_s": ("s", "cli_sequence_s", None),
        }
        self.expected_calls = [
            ("cli.main", "jsonio.dump_json", [0, 0, 1, 0, 0]),
            ("evaluation.forecast_recursive", "indicators.build_features", [self.horizon]),
        ]

    def setup(self, seed):
        self.csv.write_text(ohlcv_csv(self.sizes["bars"], seed))
        self.s.warm_up(setup_model_args(self.csv, self.model))
        self.s.warm_up([
            "evaluate", "--input", self.csv, "--model", self.model,
            "--report-out", self.s.work / "setup_report.json",
            "--predictions-out", self.predictions,
        ])
        self.s.warm_up(["--help"], fresh=True)

    def check_features(self):
        csv_numbers(self.features, FEATURES_HEADER, self.rows, skip=1)

    def check_chart(self):
        text = self.chart.read_text()
        if not text.startswith("<svg") or "</svg>" not in text:
            raise ValueError(f"{self.chart.name}: not an SVG document")

    def iterate(self):
        s = self.s
        startup = s.command("help", ["--help"], fresh=True)
        sequence = s.command(
            "indicators",
            ["indicators", "--input", self.csv, "--out", self.features,
             "--column-set", "paper_multivariate"],
            [self.features], self.check_features, fresh=True,
        )
        sequence += s.command(
            "evaluate",
            ["evaluate", "--input", self.csv, "--model", self.model, "--report-out", self.report],
            [self.report], lambda: check_report(self.report, self.test), fresh=True,
        )
        sequence += s.command(
            "forecast",
            ["forecast", "--input", self.csv, "--model", self.model, "--out", self.forecast,
             "--horizon", self.horizon],
            [self.forecast], lambda: check_forecast(self.forecast, self.horizon), fresh=True,
        )
        sequence += s.command(
            "plot",
            ["plot", "--series", f"actual={self.predictions}:actual",
             "--series", f"predicted={self.predictions}:predicted", "--out", self.chart],
            [self.chart], self.check_chart, fresh=True,
        )
        s.sample("cli_startup_s", startup)
        s.sample("cli_sequence_s", sequence)
        if s.tracer is not None and not s.traced:
            s.sample("cli.import_s", s.import_seconds())
        return startup + sequence


WORKLOADS = {
    w.name: w for w in (TrainMultivariate, InferMultivariate, BacktestUnivariate, CliCold)
}
