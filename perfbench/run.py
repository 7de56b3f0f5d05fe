"""End-to-end and per-layer benchmark for mvstereo.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

One run sets up its workload (several times, to time set-up), then runs
its operation in a closed loop with one caller for ``--seconds`` seconds,
checking every output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps each layer's public functions and reports per-layer
self times and counts instead. ``--workload all`` runs every workload in
its own process, untraced once and traced twice, and prints every metric,
the tracing overhead and the traced-count repeat check. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

from tracing import EXACT_COUNTS, LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train", "infer", "reconstruct")

END_TO_END = {
    "setup_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB", "op_s.p50": "s",
    "op_s.tail": "s", "ops_per_s": "1/s", "output_error": "score",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> None:
    """Pin every BLAS pool before numpy loads; the pin is part of the result."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def environment_line(np) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env: python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas.get('name')} {blas.get('version')}, "
            f"{BLAS_THREADS} BLAS thread (OPENBLAS/OMP/MKL_NUM_THREADS), "
            f"{os.cpu_count()} cpus")


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) // n} of {n}"


def measure(workload, seconds: float, tracer=None):
    """Closed loop: one operation at a time until the deadline (and min_ops)."""
    durations, records, errors = [], [], []
    first_visit: dict[int, dict] = {}
    attempted = 0
    memory = tracer is not None and workload.traces_memory
    if memory:
        tracemalloc.start()
        baseline = tracemalloc.get_traced_memory()[0]
    start = time.perf_counter()
    while attempted < workload.min_ops or time.perf_counter() - start < seconds:
        i = attempted
        attempted += 1
        workload.prepare(i)
        if tracer is not None:
            tracer.begin()
        t0 = time.perf_counter()
        try:
            result, error = workload.run(i), None
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
            if not errors:
                sys.stderr.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
        if error is None:
            error = workload.check(i, result)
        if tracer is not None and error is None:
            record = tracer.record()
            if memory:
                record["autodiff.peak_mb"], record["autodiff.retained_mb"] = tracer.memory(baseline)
            records.append(record)
            error = self_check(tracer, record, elapsed,
                               first_visit.setdefault(i % workload.inputs, record))
        if error is None:
            durations.append(elapsed)
            for phase, phase_s in workload.phases(result).items():
                workload.phase_samples.setdefault(phase, []).append(phase_s)
        else:
            errors.append(f"{workload.name} op {i}: {error}")
    if memory:
        tracemalloc.stop()
    return durations, records, errors, attempted


def self_check(tracer, record: dict, elapsed: float, first: dict) -> str | None:
    """Traced-run invariants for one operation; a violation fails the operation."""
    layer_sum = sum(tracer.self_s.values())
    if layer_sum > elapsed:
        return f"layer self times sum to {layer_sum:.6f} s > wall {elapsed:.6f} s"
    mismatched = tracer.op_mismatches()
    if mismatched:
        return "op calls bypass the wrappers: " + "; ".join(mismatched)
    diff = {k: (first.get(k, 0.0), record.get(k, 0.0)) for k in EXACT_COUNTS
            if first.get(k, 0.0) != record.get(k, 0.0)}
    if diff:
        return f"counts differ from the first visit of this input: {diff}"
    return None


def layer_metrics(records: list[dict], durations: list[float], first_pass: int) -> dict:
    """Per-operation means; exact counts over the first pass over the inputs."""
    out = {}
    for name in LAYER_METRICS:
        pool = records[:first_pass] if name in EXACT_COUNTS or name in (
            "fusion.kept_ratio", "fileio.bytes") else records
        out[name] = sum(r.get(name, 0.0) for r in pool) / max(len(pool), 1)
    out["trace.op_s.p50"] = statistics.median(durations)
    return out


def run_one(args) -> int:
    pin_threads()
    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import mvstereo
    import workloads
    import_s = time.perf_counter() - t_import
    if Path(mvstereo.__file__).resolve().parent != (SRC / "mvstereo").resolve():
        print(f"error: imported mvstereo from {mvstereo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print(environment_line(np))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tracer = None
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload]()
            workload.setup(args.seed, workdir / f"setup_{rep}")
            setup_times.append(time.perf_counter() - t0)
        gc.collect()
        if args.trace:
            tracer = Tracer()
            tracer.install(getattr(workload, "model", None))
        durations, records, errors, attempted = measure(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass    # another run still uses it

    for line in errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if not durations:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    failed = attempted - len(durations)
    labels, notes = {}, {}
    if args.trace:
        metrics, units = layer_metrics(records, durations, workload.inputs), LAYER_METRICS
    else:
        tail_value, notes["op_s.tail"] = tail(durations)
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "ok_frac": len(durations) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_s.p50": statistics.median(durations),
            "op_s.tail": tail_value,
            "ops_per_s": len(durations) / sum(durations),
            "output_error": workload.output_error(),
        }
        units = END_TO_END
        for name in metrics:
            base, dot, suffix = name.partition(".")
            labels[name] = workload.labels.get(base, base) + dot + suffix
        print(f"  {'failed_frac':<40} {failed / attempted:.4f}  ({failed} of {attempted} "
              f"{workload.unit}s)")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {labels.get(name, name):<40} {value:.6g} {units[name]}{note}")
    for phase, samples in workload.phase_samples.items():
        value, label = tail(samples)
        print(f"  {phase + '.p50':<40} {statistics.median(samples):.6g} s")
        print(f"  {phase + '.tail':<40} {value:.6g} s  ({label})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process: untraced once, traced twice."""
    script = str(Path(__file__).resolve())
    ok = True
    attempted = failed = 0
    combined = {}
    for name in WORKLOAD_NAMES:
        results = []
        for trace in (0, 1, 1):
            cmd = [sys.executable, script, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit code {proc.returncode}")
                return 1
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            results.append(json.loads(lines[-1]))
        plain, traced, again = results
        for r in results:
            ok &= r["correct"]
            attempted += r["attempted"]
            failed += r["failed"]
        repeat = [k for k in EXACT_COUNTS
                  if traced["metrics"][k]["value"] != again["metrics"][k]["value"]]
        ok &= not repeat
        overhead = (traced["metrics"]["trace.op_s.p50"]["value"]
                    / plain["metrics"]["op_s.p50"]["value"] - 1.0)
        print(f"{name}: tracing overhead {overhead:+.1%} on op_s.p50; traced counts "
              f"{'repeat exactly' if not repeat else 'DIFFER: ' + ', '.join(repeat)}\n")
        for key, metric in {**plain["metrics"], **traced["metrics"]}.items():
            combined[f"{name}.{key}"] = metric
        combined[f"{name}.trace.overhead"] = {"value": overhead, "unit": "ratio"}
    print(json.dumps({"correct": bool(ok), "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "mvstereo" / "__init__.py").is_file():
        print(f"error: no mvstereo sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
