"""One workload process: set up, run the timed phase, verify, report.

Started by ``run.py``; prints ``READY`` once set up (import, generated
configs, one vessel build with self-check per family and size, the lattice
builds, one warm-up operation), then one JSON line: with ``--setup-only``
the set-up timings, otherwise the run's figures as well.  Set-up runs in
three stages (program import, harness, warm-up) with a window of the
reference kernel (below) before each stage and after ``READY``; ``run.py``
takes the windows out of the set-up time and divides each stage by the
speed factor of the windows around it.

The timed phase repeats the workload's roster ("pass") in a closed loop
with one client until ``--seconds`` of operation time have elapsed and
enough operations ran for op_tail_s.  Outputs are checked by the oracles after
each pass, outside the timing.  With ``--trace 1`` the first half of the
time runs untraced, then ``TRACE_PASSES`` passes run traced; the
per-layer figures come from those and the difference of the median pass
times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import oracles
import tracing
import workloads

TRACE_PASSES = 2
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _import_program():
    from kdvessel import cli, core, evolution, soliton, spectral, suite, transfer, verify
    from kdvessel.exceptions import VesselError
    modules = {"cli": cli, "core": core, "spectral": spectral, "soliton": soliton,
               "verify": verify, "transfer": transfer, "evolution": evolution, "suite": suite}
    return modules, VesselError


class Harness:
    """A workload's roster plus what its oracles need, built at set-up."""

    def __init__(self, workload, seed, workdir, modules):
        self.workload = workload
        self.m = modules
        self.ops = workloads.generate(workload, seed)
        workloads.write_configs(self.ops, workdir)
        self.vessels = {}
        self.program_rhs = {}
        # set-up builds one vessel per (family, n) with the default
        # self-check, and every lattice; the other vessels the oracle needs
        # are built on first use, outside set-up and timing
        classes = set()
        for op in self.ops:
            if op["kind"] == "field":
                vcfg = op["config"]["vessel"]
                size = vcfg.get("nodes") or len(vcfg["k"])
                if (vcfg["type"], size) not in classes:
                    classes.add((vcfg["type"], size))
                    self.vessel(op)
            elif op["kind"] == "evolve":
                evo = op["config"]["evolution"]
                lattice = modules["evolution"].make_lattice(evo["k0"], evo["M"])
                self.program_rhs[op["id"]] = functools.partial(
                    modules["evolution"].dbnt_rhs, lattice)

    def vessel(self, op):
        """The op's vessel from the public builder; the oracle reads its B, X."""
        if op["id"] not in self.vessels:
            self.vessels[op["id"]] = self.m["cli"].build_vessel_from_config(
                op["config"]["vessel"])[0]
        return self.vessels[op["id"]]

    def run(self, op):
        return workloads.run_op(op, self.m["cli"], self.m["suite"])

    def verify(self, outcome):
        op = outcome.op
        if op["kind"] == "field":
            return oracles.check_field(op, outcome.output, self.vessel(op),
                                       self.m["soliton"].one_soliton_reference)
        if op["kind"] == "evolve":
            return oracles.check_evolve(op, outcome.output, self.program_rhs[op["id"]])
        header, results = outcome.output
        return oracles.check_suite(header, results, self.m["suite"].CHECKS,
                                   self.m["suite"].EXPECTED_FAILURES)

    def warm_up(self):
        if self.workload == "verify_suite":
            self.m["suite"].run_suite(level="quick", seed=self.ops[0]["seed"])
        else:  # the smallest op, so that set-up cost does not depend on the seed
            self.run(min(self.ops, key=workloads.op_size))


# Speed reference.  The host's speed drifts by +-15% over seconds, so a
# fixed kernel that uses no program code runs before every operation, and
# each pass's op times are divided by that pass's speed factor (reference
# time / nominal reference time).  Normalized times are seconds at the
# nominal speed; the raw ones are kept in the record.  A slowdown hits
# Python/numpy call overhead and dense BLAS differently, so each workload
# uses the kernel that resembles where its time goes.
_SMALL = np.eye(4, dtype=complex) + 0.1 * np.random.default_rng(1).standard_normal((4, 4))
_FLOATS = np.random.default_rng(2).standard_normal(1500)
_DENSE = np.random.default_rng(0).standard_normal((64, 64)) * (1.0 + 0.5j)


# bound now, so that the traced run's wrappers of np.linalg never time the kernel
_solve, _det = np.linalg.solve, np.linalg.det


def overhead_kernel():
    """Small complex solves/determinants and 17-digit float formatting."""
    for _ in range(150):
        _solve(_SMALL, _SMALL)
        _det(_SMALL)
    return ",".join(f"{v:.17g}" for v in _FLOATS)


def dense_kernel():
    """A Python integer loop and 64x64 complex matmuls."""
    acc = 0
    for i in range(30000):
        acc += i * i
    for _ in range(24):
        _DENSE @ _DENSE
    return acc


REFERENCE = {"fields_small_n": overhead_kernel, "verify_suite": overhead_kernel,
             "lattice_evolve": overhead_kernel, "fields_large_n": dense_kernel}
# the kernels' typical time on the 2-vCPU Xeon the benchmark was tuned on
REF_NOMINAL_S = 0.004
# kernel runs before each op: a suite run lasts ~1 s, 3-10x the other
# workloads' typical op, and one 4 ms sample before it misjudged its speed
# often enough to double the pass-to-pass spread on a noisy host
OP_REF_REPS = {"fields_small_n": 1, "fields_large_n": 1, "verify_suite": 10,
               "lattice_evolve": 1}
# kernel runs in each window between the set-up stages
SETUP_REF_REPS = 8


def reference_seconds(workload, reps):
    """Seconds that ``reps`` runs of the workload's reference kernel take."""
    kernel = REFERENCE[workload]
    t0 = time.perf_counter()
    for _ in range(reps):
        kernel()
    return time.perf_counter() - t0


class Pass:
    """One pass over the roster: raw op seconds, speed factor, outcomes."""

    def __init__(self, wall, speed, outcomes):
        self.wall = wall
        self.speed = speed
        self.outcomes = outcomes

    @property
    def norm_wall(self):
        return self.wall / self.speed


def run_pass(harness, tracer=None):
    """Run the roster once, closed loop, then verify every output."""
    gc.collect()
    reps = OP_REF_REPS[harness.workload]
    outcomes = []
    ref = 0.0
    for op in harness.ops:
        ref += reference_seconds(harness.workload, reps)
        if tracer is not None:
            tracer.op += 1
            tracer.enabled = True
        outcomes.append(harness.run(op))
        if tracer is not None:
            tracer.enabled = False
    for o in outcomes:
        if o.rc == 0:
            try:
                o.mismatch = harness.verify(o)
            except Exception as exc:  # a malformed output must not stop the run
                o.mismatch = f"oracle raised {type(exc).__name__}: {exc}"
        o.work = workloads.work_units(o) if o.mismatch is None else 0
        o.output = None
    speed = ref / (len(harness.ops) * reps * REF_NOMINAL_S)
    return Pass(sum(o.seconds for o in outcomes), speed, outcomes)


def run_until(harness, seconds, min_ops, tracer=None):
    """Whole passes until ``seconds`` of op time and ``min_ops`` operations."""
    passes = []
    while (not passes or sum(p.wall for p in passes) < seconds
           or sum(len(p.outcomes) for p in passes) < min_ops):
        passes.append(run_pass(harness, tracer))
    return passes


def end_to_end(workload, passes):
    """The speed-normalized end-to-end metrics, plus what the record adds."""
    outcomes = [o for p in passes for o in p.outcomes]
    times = [o.seconds / p.speed for p in passes for o in p.outcomes]
    failed = sum(o.failed for o in outcomes)
    pct = workloads.TAIL_PCT[workload]
    metrics = {
        "wall_s": (statistics.median(p.norm_wall for p in passes), "s"),
        "work_per_s": (statistics.median(sum(o.work for o in p.outcomes) / p.norm_wall
                                         for p in passes), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (float(np.percentile(times, pct)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ops_ok_frac": (1.0 - failed / len(outcomes), "fraction"),
    }
    raw = [o.seconds for o in outcomes]
    extra = {"op_tail_percentile": pct, "op_samples": len(times),
             "ops_failed_frac": failed / len(outcomes),
             "work_unit": workloads.WORK_UNIT[workload],
             "raw_wall_s": statistics.median(p.wall for p in passes),
             "raw_op_p50_s": statistics.median(raw),
             "raw_op_tail_s": float(np.percentile(raw, pct)),
             "pass_wall_s": [p.wall for p in passes],
             "pass_speed": [p.speed for p in passes]}
    return metrics, extra


def environment():
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # provenance is best effort; numpy < 1.26 lacks mode="dicts"
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "thread_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    windows, stages = [], []

    def stage(fn, *fn_args):
        windows.append(reference_seconds(args.workload, SETUP_REF_REPS))
        t0 = time.perf_counter()
        value = fn(*fn_args)
        stages.append(time.perf_counter() - t0)
        return value

    modules, vessel_error = stage(_import_program)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        harness = stage(Harness, args.workload, args.seed, workdir, modules)
        stage(harness.warm_up)
        print("READY", flush=True)
        windows.append(reference_seconds(args.workload, SETUP_REF_REPS))
        setup = {"setup_windows_s": windows, "setup_stages_s": stages,
                 "setup_speeds": [w / (SETUP_REF_REPS * REF_NOMINAL_S) for w in windows]}
        if args.setup_only:
            print(json.dumps(setup), flush=True)
            return 0
        result = {"environment": environment(), "why": workloads.WHY[args.workload],
                  "inputs": harness.ops, **setup}
        if args.trace:
            plain = run_until(harness, args.seconds / 2, 0)
            tracer = tracing.Tracer(vessel_error, getattr(modules["soliton"], "_PHASE_SWITCH", 8.0))
            tracing.install(tracer, modules, np.linalg)
            traced = run_until(harness, 0, TRACE_PASSES * len(harness.ops), tracer)
            base = statistics.median(p.norm_wall for p in plain)
            overhead = statistics.median(p.norm_wall for p in traced) - base
            cli_out = [o for p in traced for o in p.outcomes if o.op["kind"] != "suite"]
            layers = tracing.layer_metrics(
                tracer, TRACE_PASSES, sum(o.rows for o in cli_out),
                sum(o.nbytes for o in cli_out), list(modules["suite"].CHECKS))
            layers["trace.overhead_s"] = (overhead, "s")
            layers["trace.overhead_frac"] = (overhead / base, "fraction")
            result["per_layer"] = layers
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.csv.gz")
            tracer.write_spans(spans_path)
            result["spans_file"] = os.path.relpath(spans_path)
            passes = plain + traced
        else:
            passes = run_until(harness, args.seconds, workloads.min_ops(args.workload))
            result["end_to_end"], extra = end_to_end(args.workload, passes)
            result.update(extra)
        outcomes = [o for p in passes for o in p.outcomes]
        result["attempted"] = len(outcomes)
        result["failed"] = sum(o.failed for o in outcomes)
        result["correct"] = not any(o.mismatch for o in outcomes)
        result["ops"] = [o.summary() for o in outcomes]
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
