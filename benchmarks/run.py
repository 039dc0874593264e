"""stockcast benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout; it imports the package from
./src. With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untraced and traced iterations and reports
the per-layer metrics. The last stdout line is the JSON result; the lines
before it name every metric with its unit, sample count and tail
percentile. The full record, with the machine description, goes to
.bench_work/records/, and a traced run's spans to .bench_work/spans/.
Exit status 1 means a command failed an output check or a traced-run
self-check failed; 2 means there is no source tree to measure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracer import NAME, NOTE, OP, Tracer, children_of, count_below, self_times
from workloads import SIZES, WORKLOADS, Session

ROOT = Path(__file__).resolve().parent.parent

# per-layer metric -> (span name, statistic); "s" is the median self time per
# call, "calls" the number of calls per iteration
LAYER_METRICS = {
    "lstm.cell_forward_s": ("lstm.cell_forward", "s"),
    "lstm.cell_forward_calls": ("lstm.cell_forward", "calls"),
    "lstm.forward_batch_s": ("lstm.forward_batch", "s"),
    "lstm.forward_batch_calls": ("lstm.forward_batch", "calls"),
    "lstm.backward_s": ("lstm.backward", "s"),
    "lstm.backward_calls": ("lstm.backward", "calls"),
    "lstm.clip_gradient_norm_s": ("lstm.clip_gradient_norm", "s"),
    "lstm.adam_step_s": ("lstm.Adam.step", "s"),
    "lstm.new_model_s": ("lstm.new_model", "s"),
    "lstm.new_model_calls": ("lstm.new_model", "calls"),
    "lstm.save_model_s": ("lstm.save_model", "s"),
    "lstm.load_model_s": ("lstm.load_model", "s"),
    "indicators.build_features_s": ("indicators.build_features", "s"),
    "indicators.build_features_calls": ("indicators.build_features", "calls"),
    "indicators.ema_s": ("indicators.ema", "s"),
    "indicators.rsi_s": ("indicators.rsi", "s"),
    "scaling.fit_s": ("scaling.fit", "s"),
    "scaling.transform_s": ("scaling.transform", "s"),
    "dataset.make_windows_s": ("dataset.make_windows", "s"),
    "dataset.slice_samples_s": ("dataset.slice_samples", "s"),
    "pipeline.prepare_datasets_s": ("pipeline.prepare_datasets", "s"),
    "evaluation.evaluate_one_step_self_s": ("evaluation.evaluate_one_step", "s"),
    "evaluation.forecast_recursive_self_s": ("evaluation.forecast_recursive", "s"),
    "evaluation.walk_forward_self_s": ("evaluation.walk_forward", "s"),
    "market_data.parse_csv_s": ("market_data.parse_csv", "s"),
    "jsonio.dump_json_s": ("jsonio.dump_json", "s"),
    "charts.render_line_chart_s": ("charts.render_line_chart", "s"),
    "cli.main_self_s": ("cli.main", "s"),
}
# command-level figures every workload reports, 0 where its commands do not run
COMMAND_UNITS = {
    "train_windows_per_s": "windows/s",
    "evaluate_windows_per_s": "windows/s",
    "forecast_s": "s",
    "backtest_s": "s",
    "cli_startup_s": "s",
    "cli_sequence_s": "s",
}
QUALITY_UNITS = {"val_mse": "mse", "test_mape": "%", "backtest_mape": "%"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, to test the harness")
    return parser.parse_args(argv)


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(samples)[n - 11]


def describe(name: str, value: float, unit: str, samples=None) -> str:
    line = f"metric {name} = {value:.6g} {unit}"
    if samples:
        line += f" (median of n={len(samples)}"
        pct = tail(samples)
        line += f", p{pct[0]} {pct[1]:.6g} s)" if pct else ")"
    return line


# ---- machine description ------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as src:
            for line in src:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas() -> dict:
    info = {"name": "unknown", "version": "unknown"}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps["name"], "version": deps["version"]}
    except (TypeError, KeyError):
        pass
    info["threads"] = None
    try:
        with open("/proc/self/maps") as src:
            libs = {line.split()[-1] for line in src if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                info["threads_from"] = symbol
                return info
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            info["threads"] = os.environ[var]
            info["threads_from"] = var
            return info
    info["threads_from"] = "unset"
    return info


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "commit": git_commit(ROOT),
    }


# ---- traced-run analysis ------------------------------------------------


def check_calls(spans, kids, ops, expected_calls) -> list[str]:
    """Each traced iteration must make exactly the expected nested calls."""
    problems = []
    for op in ops:
        for outer, inner, counts in expected_calls:
            roots = [i for i, span in enumerate(spans) if span[OP] == op and span[NAME] == outer]
            got = [count_below(spans, kids, root, inner) for root in roots]
            if got != counts:
                problems.append(
                    f"iteration {op}: {inner} calls per {outer} were {got}, expected {counts}"
                )
    return problems


def layer_metrics(spans, kids, ops) -> dict[str, float]:
    own = self_times(spans, kids)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)
    out = {}
    for metric, (name, stat) in LAYER_METRICS.items():
        found = by_name.get(name, [])
        if stat == "s":
            out[metric] = statistics.median(own[i] for i in found) if found else 0.0
        else:
            per_op = [sum(1 for i in found if spans[i][OP] == op) for op in ops]
            out[metric] = statistics.median(per_op) if per_op else 0
    clips = [spans[i][NOTE] for i in by_name.get("lstm.clip_gradient_norm", [])]
    out["lstm.clipped_ratio"] = sum(clips) / len(clips) if clips else 0.0
    return out


# ---- the run --------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stockcast" / "__init__.py").is_file():
        print(f"error: no stockcast source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import stockcast

    if not Path(stockcast.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported stockcast from {stockcast.__file__}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sizes = SIZES["smoke" if args.smoke else "full"]
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    session = Session(ROOT, work, sizes, tracer)
    workload = WORKLOADS[args.workload](session)
    if not args.trace:
        session.reference_steps = workload.reference_steps
    load_start = os.getloadavg()

    setup_s = []
    for _ in range(sizes["setup_repeats"]):
        start = time.perf_counter()
        workload.setup(args.seed)
        setup_s.append(time.perf_counter() - start)

    # With tracing, odd iterations are traced and even ones are not, so
    # both see the same machine conditions.
    walls, ratios, traced_walls, traced_ops = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    iteration = 0
    while iteration < 1 + args.trace or time.perf_counter() < deadline:
        if args.trace and iteration % 2:
            tracer.op = iteration
            with tracer.installed():
                session.traced = True
                traced_walls.append(workload.iterate())
                session.traced = False
            traced_ops.append(iteration)
        else:
            session.reference_s = 0.0
            walls.append(workload.iterate())
            if not args.trace:
                ratios.append(walls[-1] / session.reference_s)
        iteration += 1

    who = resource.RUSAGE_CHILDREN if workload.fresh_process else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    failed = len(session.failures)
    samples = session.samples

    commands = {}
    for name, (_unit, key, windows) in workload.commands.items():
        median = statistics.median(samples[key])
        commands[name] = windows / median if windows else median

    problems = list(session.failures)
    if args.trace:
        spans = tracer.spans
        kids = children_of(spans)
        problems += check_calls(spans, kids, traced_ops, workload.expected_calls)
        metrics = layer_metrics(spans, kids, traced_ops)
        model = workload.model
        metrics["lstm.model_bytes"] = model.stat().st_size if model and model.exists() else 0
        imports = samples.get("cli.import_s")
        metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
        metrics["trace_overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        for name in COMMAND_UNITS:
            metrics[name] = commands.get(name, 0.0)
        for name in QUALITY_UNITS:
            metrics[name] = session.quality.get(name, 0.0)
        metrics["failed_ratio"] = failed / session.attempted
        tracer.write(ROOT / ".bench_work" / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
        units.update(COMMAND_UNITS)
        units.update(QUALITY_UNITS)
        units.update({
            "lstm.clipped_ratio": "ratio", "lstm.model_bytes": "bytes",
            "trace_overhead_ratio": "ratio", "failed_ratio": "ratio",
        })
    else:
        metrics = {
            "iteration_norm": statistics.median(ratios),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"iteration_norm": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": sizes,
        "machine": machine(),
        "load_average": {"start": load_start, "end": os.getloadavg()},
        "setup_s": setup_s,
        "iteration_s": walls,
        "iteration_norm": ratios,
        "traced_iteration_s": traced_walls,
        "samples": samples,
        "commands": commands,
        "quality": session.quality,
        "peak_rss_mb": peak_rss_mb,
        "attempted": session.attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }
    record_path = (
        ROOT / ".bench_work" / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(
        f"machine nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
        f"numpy={m['numpy']} blas={m['blas']['name']} {m['blas']['version']} "
        f"threads={m['blas']['threads']} commit={m['commit']} "
        f"load={load_start[0]:.2f}->{record['load_average']['end'][0]:.2f}"
    )
    print(describe("setup_s", statistics.median(setup_s), "s", setup_s))
    print(describe("iteration_s", statistics.median(walls), "s", walls))
    if ratios:
        print(describe("iteration_norm", statistics.median(ratios), "ratio"))
    for name, (unit, key, _windows) in workload.commands.items():
        print(describe(name, commands[name], unit, samples[key]))
    for name, value in session.quality.items():
        print(describe(name, value, QUALITY_UNITS[name]))
    print(describe("peak_rss_mb", peak_rss_mb, "MB"))
    print(describe("failed_ratio", failed / session.attempted, "ratio"))
    if args.trace:
        print(describe("trace_overhead_ratio", metrics["trace_overhead_ratio"], "ratio"))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"record {record_path.relative_to(ROOT)}")

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
