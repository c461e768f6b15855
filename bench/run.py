"""groupeffect benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload {student,sim,wide,tall_hist} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``. A single client runs ops back to back, each waiting for the one
before, and every op's output is checked. Human-readable lines (inputs,
environment, every metric with its unit and sample count) come first; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: it spends half of ``--seconds`` untraced and half with
every call into the library's modules recorded as a span (see spans.py),
writes the spans to ``.bench_out/`` and reports per-op self times and
counts, import times from ``python -X importtime`` and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("student", "sim", "wide", "tall_hist")
# Fresh interpreters per run for setup_s, spread over the timed loop so that
# their median, like the op latencies, spans the whole run.
SETUP_RUNS = 9
IMPORTTIME_RUNS = 5
IMPORT_CODE = "import groupeffect.cli"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# One BLAS thread (never more than nproc): the ops are small enough that a
# second thread does not pay for itself, and on a shared machine it adds noise.
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    return env


def fresh_import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the CLI module."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CODE], env=child_env(), cwd=ROOT,
                   check=True)
    return time.perf_counter() - start


def import_times_ms(runs: int) -> tuple[float, float]:
    """Medians of numpy's cumulative import time and groupeffect's own
    (self) import time, from ``python -X importtime``, after one untimed start
    that leaves the bytecode cache warm."""
    cmd = [sys.executable, "-X", "importtime", "-c", IMPORT_CODE]
    env = child_env()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
    numpy_ms, own_ms = [], []
    for _ in range(runs):
        err = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                             text=True).stderr
        numpy_us = own_us = 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, module = line[len("import time:"):].split("|")
            module = module.strip()
            if module == "numpy":
                numpy_us = int(cumulative_us)
            elif module.startswith("groupeffect"):
                own_us += int(self_us)
        numpy_ms.append(numpy_us / 1e3)
        own_ms.append(own_us / 1e3)
    return statistics.median(numpy_ms), statistics.median(own_ms)


def environment(np) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": nproc()}


def attempt(run):
    """Run an op or a cross-check. An exception becomes its output, which no
    check accepts, so an op that raises counts as failed and the run goes on."""
    try:
        return run()
    except Exception as exc:
        return exc


def verdict(op, out) -> str | None:
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    return op.check(out)


def run_loop(workload, seconds: float, run_op=None, after_cycle=None):
    """Closed loop over whole cycles of the mix until ``seconds`` have passed.
    ``after_cycle(elapsed_seconds)`` runs between cycles.

    Returns ((label, seconds) of each op that passed its check, attempted,
    failures). Only the op itself is timed, not its check.
    """
    ops, cycle = workload.ops, workload.cycle
    samples, failures, attempted = [], [], 0
    gc.collect()
    begin = time.perf_counter()
    while True:
        for _ in range(cycle):
            op = ops[attempted % len(ops)]
            start = time.perf_counter_ns()
            out = attempt(op.run if run_op is None else lambda: run_op(attempted, op.run))
            elapsed = time.perf_counter_ns() - start
            attempted += 1
            reason = verdict(op, out)
            if reason is None:
                samples.append((op.label, elapsed / 1e9))
            else:
                failures.append(f"{op.label}: {reason}")
        if after_cycle is not None:
            after_cycle(time.perf_counter() - begin)
        if time.perf_counter() - begin >= seconds:
            return samples, attempted, failures


def ops_per_s(samples) -> float:
    """Correct ops per second of op time."""
    return len(samples) / sum(t for _, t in samples) if samples else 0.0


def peak_mem_bytes(ops) -> int:
    """Largest tracemalloc peak of a single op (numpy reports its buffers)."""
    peak = 0
    tracemalloc.start()
    try:
        for op in ops:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            attempt(op.run)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peak


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float):
    fresh_import_seconds()  # leaves the bytecode cache warm
    setup = []

    def probe_setup(elapsed):
        if len(setup) < SETUP_RUNS and elapsed >= len(setup) * seconds / SETUP_RUNS:
            setup.append(fresh_import_seconds())

    failures = []
    for check in workload.cross_checks:
        reason = attempt(check)
        if isinstance(reason, Exception):
            reason = f"raised {type(reason).__name__}: {reason}"
        if reason is not None:
            failures.append(f"cross-check: {reason}")
    attempted = len(workload.cross_checks)
    for op in workload.ops[: workload.cycle]:  # warm-up: caches, lazy imports
        attempt(op.run)
    peak = peak_mem_bytes(workload.peak_ops)
    samples, looped, loop_failures = run_loop(workload, seconds, after_cycle=probe_setup)
    while len(setup) < SETUP_RUNS:
        setup.append(fresh_import_seconds())
    attempted += looped
    failures += loop_failures
    latencies = [t for _, t in samples]
    ok = len(latencies)
    deciles = statistics.quantiles(latencies, n=10) if ok >= 2 else [0.0] * 9
    beyond_p90 = sum(1 for t in latencies if t > deciles[8])
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(ops_per_s(samples), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3 if ok else 0.0, "ms"),
        "latency_p90_ms": metric(deciles[8] * 1e3, "ms"),
        "peak_mem_mb": metric(peak / 1e6, "MB"),
    }
    by_label = {}
    for label, t in samples:
        by_label.setdefault(label, []).append(t)
    medians = ", ".join(f"{label} {statistics.median(ts) * 1e3:.4g} ms (n={len(ts)})"
                        for label, ts in sorted(by_label.items()))
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, spread over the run",
        "ops_per_s": f"{ok} correct ops / their summed latency",
        "latency_p50_ms": f"median of {ok} ops" + (f"; per op: {medians}"
                                                   if len(by_label) <= 8 else ""),
        "latency_p90_ms": f"of {ok} ops, {beyond_p90} beyond it",
        "peak_mem_mb": f"max over {len(workload.peak_ops)} ops, outside the timed loop",
    }
    return metrics, notes, attempted, failures


def per_layer(workload, seconds: float, spans_path: Path):
    from spans import Tracer, summarize

    numpy_ms, own_ms = import_times_ms(IMPORTTIME_RUNS)
    tracer = Tracer()
    failures, attempted = [], 0
    for op in workload.ops[: workload.cycle]:  # warm-up and traced == untraced
        plain = attempt(op.run)
        with tracer.installed():
            traced = attempt(op.run)
        attempted += 1
        reason = verdict(op, plain)
        if reason is None and plain != traced:
            reason = "traced output differs from untraced output"
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    tracer.clear()

    plain, n, plain_failures = run_loop(workload, seconds / 2)
    attempted += n
    failures += plain_failures
    with tracer.installed():
        traced, n_traced, traced_failures = run_loop(workload, seconds / 2,
                                                     run_op=tracer.run_op)
    attempted += n_traced
    failures += traced_failures
    tracer.write(spans_path)

    s = summarize(tracer.spans)
    ops = n_traced

    def calls(name):
        return s[name]["calls"] / ops if name in s else 0.0

    def self_ms(*names):
        return sum(s[k]["self_ns"] for k in names if k in s) / 1e6 / ops

    def size(name, key="size"):
        return s[name][key] / ops if name in s else 0.0

    read_fns = ("dataio.load_csv", "dataio.load_column")
    rows = sum(size(k) for k in read_fns)
    read_ms = self_ms(*read_fns)
    pvalue_fns = ("distributions.t_two_sided_p", "distributions.f_upper_p")
    plain_rate, traced_rate = ops_per_s(plain), ops_per_s(traced)
    metrics = {
        "regression.fit_fwl_ms": metric(self_ms("regression.fit_fwl"), "ms"),
        "regression.fit_monolithic_ms": metric(self_ms("regression.fit_monolithic"), "ms"),
        "regression.build_design_ms": metric(self_ms("regression.build_design"), "ms"),
        "regression.standard_errors_ms": metric(self_ms("regression.standard_errors"), "ms"),
        "regression.group_summaries_calls": metric(calls("regression.group_summaries"), "count"),
        "regression.group_summaries_ms": metric(self_ms("regression.group_summaries"), "ms"),
        "linalg.projector_calls": metric(calls("linalg.projector"), "count"),
        "linalg.projector_ms": metric(self_ms("linalg.projector"), "ms"),
        "linalg.nxn_bytes": metric(8.0 * size("linalg.projector", "size2"), "bytes_computed"),
        "linalg.qr_least_squares_calls": metric(calls("linalg.qr_least_squares"), "count"),
        "linalg.qr_least_squares_ms": metric(self_ms("linalg.qr_least_squares"), "ms"),
        "linalg.rank_check_calls": metric(calls("linalg.require_full_column_rank"), "count"),
        "dataio.load_csv_ms": metric(self_ms("dataio.load_csv"), "ms"),
        "dataio.load_column_ms": metric(self_ms("dataio.load_column"), "ms"),
        "dataio.histogram_ms": metric(self_ms("dataio.histogram"), "ms"),
        "dataio.rows_parsed": metric(rows, "count"),
        "dataio.rows_dropped": metric(sum(size(k, "dropped") for k in read_fns), "count"),
        "dataio.rows_per_s": metric(rows / (read_ms / 1e3) if read_ms else 0.0, "1/s"),
        "effects.effect_report_ms": metric(self_ms("effects.effect_report"), "ms"),
        "distributions.pvalue_calls": metric(sum(calls(k) for k in pvalue_fns), "count"),
        "distributions.pvalue_ms": metric(self_ms(*pvalue_fns), "ms"),
        "cli.self_ms": metric(self_ms("cli.main"), "ms"),
        "import.numpy_ms": metric(numpy_ms, "ms"),
        "import.groupeffect_ms": metric(own_ms, "ms"),
        "trace.overhead_ops_per_s": metric(plain_rate - traced_rate, "1/s"),
    }
    notes = {name: f"per op, over {ops} traced ops" for name in metrics}
    notes["import.numpy_ms"] = notes["import.groupeffect_ms"] = (
        f"median of {IMPORTTIME_RUNS} fresh interpreters, -X importtime")
    notes["trace.overhead_ops_per_s"] = (
        f"untraced {plain_rate:.4g}/s over {len(plain)} ops minus traced "
        f"{traced_rate:.4g}/s over {len(traced)} ops")
    notes["linalg.nxn_bytes"] = "computed as 8 n^2 per projector, per op"
    return metrics, notes, attempted, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "groupeffect" / "__init__.py").is_file():
        print(f"error: no groupeffect sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_ENV})  # before numpy loads
    sys.path.insert(0, str(SRC))
    import numpy as np

    import groupeffect
    if Path(groupeffect.__file__).resolve().parent != (SRC / "groupeffect").resolve():
        print(f"error: imported groupeffect from {groupeffect.__file__}", file=sys.stderr)
        return 2
    from workloads import FACTORIES

    WORK_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    try:
        workload = FACTORIES[args.workload](ROOT, args.seed, workdir)
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, notes, attempted, failures = per_layer(workload, args.seconds,
                                                            spans_path)
        else:
            metrics, notes, attempted, failures = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g}")
    print(f"# inputs {json.dumps(workload.inputs)}")
    print(f"# env {json.dumps(environment(np))}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}  ({notes[name]})")
    print(f"# error_rate = {len(failures) / attempted:.6g} "
          f"({len(failures)} failed of {attempted} attempted)")
    for reason in failures[:10]:
        print(f"# FAILED {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
