"""Compare the stockcast command line of two source trees byte for byte.

    python tools/cli_parity.py PARENT_TREE CHANGE_TREE

Each tree is a checkout with the package under src/. The script writes
seeded random-walk OHLCV CSVs and a few malformed ones, files for the error
paths (text that is not UTF-8, series a chart refuses), copies the tree's own
format_version 1 model (tests/fixtures/golden_v1_paper_model.json) and a copy
of it with an unknown column set, runs one fixed list of commands against each
tree in a fresh directory of its own, and lists every difference in exit code,
stdout, stderr or output file. It exits 1 when anything differs and 0 when
nothing does. The version 1 files go to evaluate and forecast with no split
flag, so each tree shows what its reader does with them: a tree that reads
version 2 alone refuses them and names tools/upgrade_model.py.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np

HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"
ENTRY = "from stockcast.cli import entrypoint; entrypoint()"


def walk_rows(bars: int, seed: int) -> list[str]:
    """A multiplicative random walk as CSV rows, low <= open, close <= high."""
    rng = np.random.default_rng(seed)
    closes = 100.0 * np.cumprod(1.0 + rng.normal(0.0005, 0.01, bars))
    rows, day = [], date(2015, 1, 2)
    for close in closes.tolist():
        open_ = close * (1.0 + float(rng.normal(0.0, 0.003)))
        high = max(open_, close) * (1.0 + abs(float(rng.normal(0.0, 0.002))))
        low = min(open_, close) * (1.0 - abs(float(rng.normal(0.0, 0.002))))
        volume = float(rng.integers(100_000, 5_000_000))
        rows.append(f"{day.isoformat()},{open_!r},{high!r},{low!r},{close!r},{close!r},{volume!r}")
        day += timedelta(days=1)
    return rows


def inputs() -> dict[str, list[str]]:
    """File name -> data rows: three clean walks, then one case per parse rule that competes
    with another (an edited row replaces the walk's row of the same index)."""
    walk = walk_rows(1000, 3)

    def row(k: int, fields: str) -> str:  # walk row k's date with other fields
        return walk[k].split(",")[0] + "," + fields

    low_above_high, flat = "10.0,9.0,9.5,9.0,9.0,100", "11.0,11.0,11.0,11.0,11.0,0.0"
    edits = {
        "low_above_high_then_short": {300: row(300, low_above_high), 500: row(500, "1.0")},
        "short_then_low_above_high": {300: row(300, "1.0"), 500: row(500, low_above_high)},
        "null_with_bad_date": {300: "2015-13-45,null,null,null,null,null,null"},
        "overflowing_high": {300: row(300, "10.0,1e999,9.0,11.0,11.0,100")},
        "flat_bar_after_violation": {300: row(300, low_above_high), 500: row(500, flat)},
        "flat_bar": {500: row(500, flat)},
    }
    # leak_walk.csv is benchmarks/workloads.py's ohlcv_csv(700, 5); nudged_walk.csv moves one
    # training-span close to the midpoint of its open and close, inside the bar's high and low
    date_, open_, high, low, close, _, volume = walk[300].split(",")
    mid = repr((float(open_) + float(close)) / 2.0)
    nudged = {300: ",".join([date_, open_, high, low, mid, mid, volume])}
    files = {"walk.csv": walk, "short_walk.csv": walk_rows(500, 5),
             "leak_walk.csv": walk_rows(700, 5),
             "nudged_walk.csv": [nudged.get(k, line) for k, line in enumerate(walk)]}
    for name, edited in edits.items():
        files[name + ".csv"] = [edited.get(k, line) for k, line in enumerate(walk)]
    return files


INPUTS = inputs()
# error-path files, written as these bytes
RAW_FILES = {
    "latin1.csv": f"{HEADER}\n2015-01-02,caf\xe9,1,1,1,1,1\n".encode("latin-1"),
    "latin1.cfg": "symbol = caf\xe9\n".encode("latin-1"),
    "nan_series.csv": b"v\n1.0\nnan\n",
    "two_series.csv": b"v\n1.0\n2.0\n",
    "three_series.csv": b"v\n1.0\n2.0\n3.0\n",
}


MODEL = ["--mode", "multivariate", "--column-set", "paper_multivariate", "--epochs", "2"]
CLEAN = ("walk.csv", "short_walk.csv", "leak_walk.csv", "nudged_walk.csv")
COMMANDS = [
    ["indicators", "--input", "walk.csv", "--out", "features.csv", "--column-set", "paper_multivariate"],
    ["indicators", "--input", "walk.csv", "--out", "close.csv", "--use-adj-close"],
    ["train", "--input", "walk.csv", "--model-out", "m.json", "--history-out", "h.csv", *MODEL],
    ["evaluate", "--input", "walk.csv", "--model", "m.json", "--report-out", "r.json",
     "--predictions-out", "p.csv"],
    ["forecast", "--input", "walk.csv", "--model", "m.json", "--out", "f30.csv", "--horizon", "30"],
    ["forecast", "--input", "walk.csv", "--model", "m.json", "--out", "f1.csv", "--horizon", "1"],
    ["backtest", "--input", "short_walk.csv", "--out-dir", "folds", "--folds", "3",
     "--mode", "univariate", "--epochs", "1", "--clip-scaled"],
    ["backtest", "--input", "short_walk.csv", "--out-dir", "mv_folds", "--folds", "3",
     "--mode", "multivariate", "--epochs", "1"],
    # m.json's recorded split: a CSV too short to hold it, a CSV whose training span differs,
    # and a --train-fraction, which evaluate refuses because the split is the file's
    ["evaluate", "--input", "short_walk.csv", "--model", "m.json", "--report-out", "short_r.json"],
    ["evaluate", "--input", "nudged_walk.csv", "--model", "m.json", "--report-out",
     "nudged_r.json"],
    ["evaluate", "--input", "walk.csv", "--model", "m.json", "--report-out", "tf_r.json",
     "--train-fraction", "0.8"],
    ["plot", "--series", "actual=p.csv:actual", "--series", "predicted=p.csv:predicted",
     "--out", "chart.svg", "--merge-out", "merged.csv", "--title", "parity"],
    # trained on 90% of the windows and clipped; evaluate and forecast run with default flags
    ["train", "--input", "leak_walk.csv", "--model-out", "leak.json", "--history-out",
     "leak_h.csv", "--mode", "univariate", "--epochs", "2", "--batch-size", "7",
     "--train-fraction", "0.9", "--clip-scaled"],
    ["evaluate", "--input", "leak_walk.csv", "--model", "leak.json", "--report-out", "leak_r.json",
     "--predictions-out", "leak_p.csv"],
    ["forecast", "--input", "leak_walk.csv", "--model", "leak.json", "--out", "leak_f.csv",
     "--horizon", "5"],
    *[["indicators", "--input", name, "--out", f"{name}.features.csv"] for name in INPUTS
      if name not in CLEAN],
    # a format_version 1 file, and one whose column set no version knows
    ["evaluate", "--input", "walk.csv", "--model", "v1.json", "--report-out", "v1_r.json",
     "--predictions-out", "v1_p.csv"],
    ["forecast", "--input", "walk.csv", "--model", "v1.json", "--out", "v1_f.csv", "--horizon", "5"],
    ["evaluate", "--input", "walk.csv", "--model", "v1_sideways.json", "--report-out",
     "v1_sideways_r.json"],
    ["evaluate", "--input", "overflowing_high.csv", "--model", "m.json", "--report-out", "bad.json"],
    ["indicators", "--input", "missing.csv", "--out", "missing.features.csv"],
    # error paths: files that are not UTF-8, a missing config, series a chart refuses, and an
    # output in a directory that does not exist
    ["indicators", "--input", "latin1.csv", "--out", "latin1.features.csv"],
    ["indicators", "--config", "latin1.cfg", "--input", "walk.csv", "--out", "cfg.features.csv"],
    ["indicators", "--config", "missing.cfg", "--input", "walk.csv", "--out", "cfg.features.csv"],
    ["plot", "--series", "nan_series.csv", "--out", "nan.svg"],
    ["plot", "--series", "two_series.csv", "--series", "three_series.csv", "--merge-out",
     "ragged.csv"],
    ["indicators", "--input", "walk.csv", "--out", "missing/features.csv"],
]


def run(tree: Path, work: Path) -> list[tuple[int, bytes, bytes]]:
    work.mkdir()
    for name, rows in INPUTS.items():
        (work / name).write_text("\n".join([HEADER, *rows]) + "\n")
    for name, data in RAW_FILES.items():
        (work / name).write_bytes(data)
    v1 = (tree / "tests" / "fixtures" / "golden_v1_paper_model.json").read_text()
    (work / "v1.json").write_text(v1)
    (work / "v1_sideways.json").write_text(json.dumps({**json.loads(v1), "column_set": "sideways"}))
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    return [(p.returncode, p.stdout, p.stderr) for p in (
        subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=work, env=env, capture_output=True)
        for argv in COMMANDS)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/cli_parity.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 64
    differences = []
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp, side) for side in ("parent", "change")]
        results = [run(tree, work) for tree, work in zip(map(Path, argv), works)]
        for command, (a, b) in zip(COMMANDS, zip(*results)):
            for what, x, y in zip(("exit code", "stdout", "stderr"), a, b):
                if x != y:
                    differences.append(f"{' '.join(command)}: {what} differs: {x!r:.200} != {y!r:.200}")
        names = sorted({p.relative_to(w) for w in works for p in w.rglob("*") if p.is_file()})
        for name in names:
            x, y = (w / name for w in works)
            if not (x.exists() and y.exists()):
                differences.append(f"{name}: written by one tree only")
            elif x.read_bytes() != y.read_bytes():
                differences.append(f"{name}: contents differ")
    for line in differences:
        print(line)
    print(f"{len(COMMANDS)} commands, {len(names)} files: {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
