"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --seeds 1-10 [--trace] [--out bench/baseline.json --label NAME]

Every workload in BENCHMARK.json runs for its ``run_seconds``.  For every
workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
and flags a spread above a third of the bound in BENCHMARK.json.  With
``--out`` the summary plus the first run's provenance is appended as one
entry to the JSON list in that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1]), elapsed


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", type=_seeds)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"label": args.label, "seconds": seconds, "seeds": args.seeds,
               "trace": args.trace, "workloads": {}}
    for workload in names:
        runs = []
        for seed in args.seeds:
            result, elapsed = run_once(workload, seed, seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"elapsed={elapsed:.1f}s", flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed_frac": [r["failed"] / r["attempted"] for r in runs], "metrics": {}}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            s = summarize(values)
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["metrics"][metric] = s
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = f"  <-- spread above bound/3 ({bound / 3:.3g})"
            print(f"  {metric:32s} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"spread={s['spread']:.4f}{flag}", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        first = BENCH / "out" / f"result-{names[0]}-{args.seeds[0]}-trace{int(args.trace)}.json"
        record = json.loads(first.read_text())
        summary["provenance"] = record["provenance"]
        summary["environment"] = record["environment"]
        out = Path(args.out)
        history = json.loads(out.read_text()) if out.exists() else []
        history.append(summary)
        out.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
