"""Run the benchmark over several seeds and summarise each metric.

Usage, from the repository root::

    python3 bench/collect.py --seeds 1-10 [--workloads fit-diag,...] [--trace 0|1] [--out FILE]

For every workload and seed this runs ``bench/run.py`` with the
``run_seconds`` of ``BENCHMARK.json``.  For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
(Q3 - Q1) / median.  For end-to-end metrics it also prints the bound.
``--out`` writes the runs and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--workloads", default=",".join(w["name"] for w in contract["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}
    seeds = seed_list(args.seeds)
    doc = {"trace": args.trace, "seeds": seeds, "run_seconds": contract["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            report, result = run_once(workload, seed, contract["run_seconds"], args.trace)
            runs.append({"seed": seed, "result": result, "operations": report["operations"]})
            doc.setdefault("metadata", report["metadata"])
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        names = list(runs[0]["result"]["metrics"])
        summary = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = summarise(values) | {"unit": runs[0]["result"]["metrics"][name]["unit"]}
            if bounds.get(name) is not None:
                summary[name]["bound"] = bounds[name]
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
        print(f"\n{workload}")
        for name, s in summary.items():
            bound = f"  bound {s['bound']:.2f}" if "bound" in s else ""
            print(f"  {name:40s} median {s['median']:12.5g} {s['unit']:14s} spread {s['spread']:.3f}{bound}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
