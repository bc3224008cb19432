"""Smoke test of the benchmark itself, at a tiny size (about a minute).

Usage, from the repository root::

    python3 bench/smoke.py

It checks that:

* every workload, traced and untraced, exits 0 and prints the result object
  with exactly the metrics ``BENCHMARK.json`` names, each with its unit, and
  with ``correct`` true;
* ``bench/metrics.json`` defines every metric;
* the probes leave the output unchanged: a traced fit writes the same chain
  CSV bytes as a plain ``glmmselect fit``;
* two runs with the same seed attempt and fail the same operations;
* without the sources, ``bench/run.py`` exits non-zero and prints no result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_work", f"smoke-{os.getpid()}")


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_result(contract: dict, workload: str, trace: int) -> list:
    proc = run_bench(workload, trace)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-1500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: correct is {result.get('correct')}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        problems.append(f"{where}: attempted/failed are not whole numbers")
    specs = contract["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {s["name"] for s in specs}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for spec in specs:
        got = result["metrics"].get(spec["name"], {})
        if got.get("unit") != spec["unit"]:
            problems.append(f"{where}: {spec['name']} unit {got.get('unit')!r}, expected {spec['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {spec['name']} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end {spec['name']} is {value}")
    return problems


def check_repeatable() -> list:
    """The stop rule reads no clock, so the same seed gives the same attempted and failed counts."""
    counts = []
    for _ in range(2):
        proc = run_bench("fit-diag", 0)
        if proc.returncode != 0:
            return [f"fit-diag repeat: exit {proc.returncode}: {proc.stderr[-1500:]}"]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    return [] if counts[0] == counts[1] else [f"fit-diag repeat: (attempted, failed) {counts[0]} then {counts[1]}"]


def check_definitions(contract: dict) -> list:
    with open(os.path.join(BENCH_DIR, "metrics.json"), encoding="utf-8") as fh:
        defs = json.load(fh)
    problems = [f"metrics.json: no definition of {s['name']}"
                for group in ("end_to_end", "per_layer") for s in contract[group] if s["name"] not in defs[group]]
    workloads = {w["name"] for w in contract["workloads"]}
    for name, entry in defs["per_layer"].items():
        if not set(entry["workloads"]) <= workloads:
            problems.append(f"metrics.json: {name} names an unknown workload")
    return problems


def check_transparent() -> list:
    """A traced fit and a plain fit with the same seed write identical chain CSVs."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from glmmselect.dataio import spec_to_dict
    from glmmselect.model import SamplerSettings
    from glmmselect.simulate import build_model_spec, scaled_design

    spec = build_model_spec(scaled_design(), sampler=SamplerSettings(chains=2, adapt=5, burnin=5, kept=10, seed=4))
    spec_path = os.path.join(SCRATCH, "spec.json")
    design_path = os.path.join(SCRATCH, "design.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh)
    with open(design_path, "w", encoding="utf-8") as fh:
        json.dump({"scale": "scaled"}, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    plain = [sys.executable, "-c", "import sys; from glmmselect.cli import main; sys.exit(main(sys.argv[1:]))"]
    subprocess.run(plain + ["simulate", "--design", design_path, "--replicates", "1", "--out", SCRATCH],
                   env=env, check=True, capture_output=True)
    fit_args = ["fit", "--data", os.path.join(SCRATCH, "replicate_1.csv"), "--spec", spec_path, "--workers", "1"]
    subprocess.run(plain + fit_args + ["--out", os.path.join(SCRATCH, "plain")], env=env, check=True, capture_output=True)
    child = [sys.executable, os.path.join(BENCH_DIR, "child.py"), os.path.join(SCRATCH, "rec.json"), "1"]
    subprocess.run(child + fit_args + ["--out", os.path.join(SCRATCH, "traced")], check=True, capture_output=True)
    problems = []
    for name in ("chain_1.csv", "chain_2.csv"):
        with open(os.path.join(SCRATCH, "plain", name), "rb") as a, open(os.path.join(SCRATCH, "traced", name), "rb") as b:
            if a.read() != b.read():
                problems.append(f"traced fit changed {name}")
    return problems


def check_without_sources() -> list:
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("fit-diag", 0, cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["without src/, run.py exited 0 or printed a result"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    os.makedirs(SCRATCH)
    try:
        problems = check_definitions(contract) + check_without_sources() + check_transparent() + check_repeatable()
        for workload in (w["name"] for w in contract["workloads"]):
            for trace in (0, 1):
                problems += check_result(contract, workload, trace)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for p in problems:
        print(p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
