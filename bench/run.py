"""kdvessel benchmark: one workload, end-to-end or per-layer figures.

    python3 bench/run.py --workload fields_small_n --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up is timed ``SETUP_SAMPLES`` times in fresh processes; the middle
one goes on to run the timed phase.  Each sample is normalized by the
speed factors its process measured between its set-up stages (see
worker.py and ``setup_seconds``), and setup_s is the median.  Workload processes get BLAS pinned to ``BLAS_THREADS`` threads.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  The full record (provenance, generated inputs, every
operation's time and outcome) is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

BLAS_THREADS = 1
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0
END_TO_END = ("setup_s", "wall_s", "work_per_s", "op_p50_s", "op_tail_s",
              "peak_rss_mb", "ops_ok_frac")


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"  # same dict/set layout in every run
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(args, env, deadline, setup_only):
    """Start a workload process; returns (seconds to READY, its last JSON line)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or ready.strip() != "READY":
        raise RuntimeError(f"workload process exited with {rc} before finishing")
    lines = rest.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return t_ready, json.loads(lines[-1])


def setup_seconds(t_ready, timings):
    """(raw, normalized) set-up seconds of one process, reference windows taken out.

    The part before the first window (interpreter, numpy) is divided by
    that window's speed factor, each stage by the mean factor of the
    windows before and after it.
    """
    windows, stages, speed = (timings["setup_windows_s"], timings["setup_stages_s"],
                              timings["setup_speeds"])
    raw = t_ready - sum(windows[:-1])
    norm = (raw - sum(stages)) / speed[0]
    for i, d in enumerate(stages):
        norm += d / (0.5 * (speed[i] + speed[i + 1]))
    return raw, norm


def _git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _cache_sizes():
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sizes = {}
    for line in out.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
            sizes[parts[0]] = int(parts[1])
    return sizes or None


def provenance():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kdvessel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_rev": _git_rev(), "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cache_bytes": _cache_sizes(), "blas_threads": BLAS_THREADS}


def main(argv=None):
    ap = argparse.ArgumentParser(description="kdvessel benchmark (one workload)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kdvessel" / "__init__.py").is_file():
        print(f"benchmark: no kdvessel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if BLAS_THREADS > (os.cpu_count() or 1):
        print("benchmark: BLAS_THREADS exceeds the CPU count", file=sys.stderr)
        return 2

    env = worker_env()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    samples = []
    # set-up samples go before and after the main process, so that they
    # span the run instead of one moment of the host's speed drift
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        for _ in range(extra // 2):
            samples.append(spawn(args, env, deadline, setup_only=True))
        samples.append(spawn(args, env, deadline, setup_only=False))
        result = samples[-1][1]
        for _ in range(extra - extra // 2):
            samples.append(spawn(args, env, deadline, setup_only=True))
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    setup = [setup_seconds(t_ready, s) for t_ready, s in samples]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(),
              "setup_samples_s": [raw for raw, _ in setup],
              "setup_windows": [s for _, s in samples]}
    record.update(result)
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = dict(result["end_to_end"])
        metrics["setup_s"] = (statistics.median(norm for _, norm in setup), "s")
        metrics = {name: metrics[name] for name in END_TO_END}
        record["end_to_end"] = metrics
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"op_tail_s is p{result['op_tail_percentile']} of {result['op_samples']} ops; "
              f"ops_failed_frac = {result['ops_failed_frac']:.4g}; record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
