"""glmmselect benchmark: fit and replication throughput on the paper's design.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` gives the reason for each):

* ``fit-diag``: ``glmmselect fit`` on replicate 0 of the full-scale design
  (l = q = 10, 60 subjects x 10 visits) in ``ssvs-diagonal`` mode, 3 chains,
  thin 1, one process.  Then ``glmmselect ppc`` runs on the fit's output.
* ``fit-full-thin``: the same data and the same number of scans, in
  ``ssvs-full`` mode with thin 10.  No ppc runs.
* ``replicate-scaled``: ``glmmselect replicate`` on the scaled design
  (l = q = 6, 60 x 10), 4 replicates of short chains per command, 1 worker.

The dataset of the fit workloads is fixed (design base seed 0).  ``--seed``
sets the chain seeds: operation i of a run passes ``--seed seed + 3 i`` to
the command, so the operations of one run use consecutive chain seeds and
skip none.  A chain seed whose feasible-start search fails makes its
operation fail.  The failure is counted in ``failed`` and its error is
listed in the report line.

Each operation runs as its own process (``bench/child.py``), so set-up is
measured from process start.  Operations repeat until a fixed number of them
have succeeded: ``--seconds`` divided by the wall time per successful
operation at reference host speed (``OK_OP_S``).  The stop rule counts
outcomes, not time, so ``attempted`` and ``failed`` are the same in every run
with the same ``--seed`` and ``--seconds``.  Each end-to-end metric is the
median (or, for rates, the ratio of sums) over the successful operations of
the run, with every wall time scaled to reference host speed (see
``reference_s``); the raw wall times are in the report line.  With
``--trace 1`` the operations switch between untraced and traced at each
success.  The traced ones give the per-layer metrics, and both kinds give
the tracing overhead.

The second-to-last line of output is a JSON report with metadata, every
operation and its checks, and the host-speed probe ``ref_s`` around each
operation.  The last line is the result object.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")

CHAINS = 3
# replicate-scaled runs ``--workers 1``: on a 2-core machine, 2 workers gave run-to-run
# spreads of 0.10-0.28 in scans_per_s (the CPU time of identical work varied by a
# quarter when both cores were busy), 1 worker gave 0.08
WORKERS = 1
DATA_SEED = 0
# wall time per successful operation at reference host speed (fit + ppc on fit-diag), the
# failed operations on the way included: on the full design about one fit in two fails
OK_OP_S = {"fit-diag": 5.0, "fit-full-thin": 4.3, "replicate-scaled": 6.0}
MIN_OK = 3           # successful operations of a run, at least
MAX_OPS_FACTOR = 4   # a run stops after 4 x that many operations, successful or not
CHILD_TIMEOUT_S = 150
REF_ITERATIONS = 7500
REF_S = 0.1  # reference host speed: the loop takes REF_S seconds (0.06-0.13 s on a shared 2-core x86 host)
# timings are scaled by (REF_S / ref_s) ** HOST_EXPONENT; see reference_s
HOST_EXPONENT = 0.6
PPC_REPLICATES = 200  # the default of ``ppc --n-rep``

WORKLOADS = {
    "fit-diag": {"command": "fit", "design": "full", "mode": "ssvs-diagonal", "thin": 1, "ppc": True},
    "fit-full-thin": {"command": "fit", "design": "full", "mode": "ssvs-full", "thin": 10, "ppc": False},
    "replicate-scaled": {"command": "replicate", "design": "scaled", "mode": "ssvs-diagonal", "thin": 1},
}

# scans per chain, and replicates per ``replicate`` command; ``smoke`` is for bench/smoke.py only
SIZES = {
    "standard": {"full": (30, 30, 90), "scaled": (30, 30, 90), "replicates": 4},
    "smoke": {"full": (4, 4, 10), "scaled": (4, 4, 10), "replicates": 2},
}

UPDATE_KINDS = ("recompute", "J", "beta", "theta_phi", "I", "lam", "tau2", "r", "xi", "kappa_m", "invariant", "adapt")
SLICE_KINDS = ("beta", "phi", "lam", "r", "xi", "kappa", "m")


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------------ processes


def reference_s() -> float:
    """Wall time of a fixed loop of scalar work and 600-element numpy calls.

    On a shared machine the same operation can take twice as long from one
    minute to the next, and this loop slows down with it.  It is timed before
    and after each operation; the mean is the operation's ``ref_s``, and the
    end-to-end timings are scaled by ``(REF_S / ref_s) ** HOST_EXPONENT``.
    Over 246 repeats of identical operations (same seed, same output bytes)
    on a shared 2-core host, log wall time moved 0.64 times as much as log
    ``ref_s`` (least squares), and the residual spread was smallest for
    exponents 0.6-0.7: 0.080, against 0.092 for the full ratio and 0.114
    unscaled.  The loop is the
    benchmark's own code, so a change to the program does not move it.
    """
    import math

    import numpy as np

    x = np.linspace(-1.0, 1.0, 600)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(REF_ITERATIONS):
        y = x * 1.0001 + 0.5
        acc += float(np.sum(y * x - np.exp(y * 0.01)))
        acc += math.log(1.0 + i % 7)
    return time.perf_counter() - t0


def run_child(work: str, tag: str, traced: bool, args: list) -> dict:
    """Run one CLI command under bench/child.py and return its record."""
    record_path = os.path.join(work, f"{tag}.json")
    cmd = [sys.executable, CHILD, record_path, "1" if traced else "0", *args]
    launch = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True, cwd=ROOT
    )
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate()
        stderr += f"\nbenchmark: killed after {CHILD_TIMEOUT_S} s"
    wall = time.perf_counter() - launch
    record = {"rc": None}
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    record.update(launch=launch, wall_s=wall, stderr=stderr[-4000:])
    return record


def outcome(record: dict) -> str:
    """'ok', 'failed' (the CLI reported a GlmmSelectError) or 'broken' (anything else)."""
    if record.get("rc") == 0:
        return "ok"
    if record.get("rc") == 1 and "error: " in record["stderr"]:
        return "failed"
    return "broken"


def error_text(record: dict) -> str:
    for line in record["stderr"].splitlines():
        if line.startswith("error: "):
            return line[len("error: "):]
    return record.get("exception") or record["stderr"][-500:]


# ------------------------------------------------------------------ workloads


class Workload:
    def __init__(self, name: str, seed: int, size: str, work: str):
        from glmmselect.dataio import spec_to_dict
        from glmmselect.model import SamplerSettings
        from glmmselect.simulate import build_model_spec, full_scale_design

        self.cfg = WORKLOADS[name]
        self.seed = seed
        self.work = work
        adapt, burnin, kept = SIZES[size][self.cfg["design"]]
        self.scans_per_chain = adapt + burnin + kept
        self.n_rows = kept // self.cfg["thin"]
        self.replicates = SIZES[size]["replicates"]
        self.prep_records = []
        sampler = {"chains": CHAINS, "adapt": adapt, "burnin": burnin, "kept": kept, "thin": self.cfg["thin"]}
        if self.cfg["command"] == "replicate":
            self.design = self._write("design.json", {"scale": "scaled", "mode": self.cfg["mode"], "sampler": sampler})
            return
        self.design = self._write("design.json", {"scale": "full", "base_seed": DATA_SEED})
        self.spec_obj = build_model_spec(
            full_scale_design(base_seed=DATA_SEED), mode=self.cfg["mode"], sampler=SamplerSettings(**sampler)
        )
        self.spec = self._write("spec.json", spec_to_dict(self.spec_obj))
        self.data = os.path.join(work, "data", "replicate_1.csv")
        self.data_obj = None

    def _write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def prepare(self, traced: bool) -> list:
        """Simulate the fit workloads' dataset; returns problems."""
        from glmmselect.dataio import load_dataset

        if self.cfg["command"] == "replicate":
            return []
        rec = run_child(self.work, "simulate", traced, [
            "simulate", "--design", self.design, "--replicates", "1", "--out", os.path.dirname(self.data),
        ])
        self.prep_records.append(rec)
        if outcome(rec) != "ok":
            return [f"simulate failed: {error_text(rec)}"]
        self.data_obj = load_dataset(self.data, self.spec_obj)
        return []

    def op_seed(self, i: int) -> int:
        return self.seed + CHAINS * i

    def run_op(self, i: int, traced: bool) -> dict:
        if self.cfg["command"] == "replicate":
            return self._replicate_op(i, traced)
        return self._fit_op(i, traced)

    def _fit_op(self, i: int, traced: bool) -> dict:
        from checks import check_fit, check_ppc

        seed = self.op_seed(i)
        out = os.path.join(self.work, f"fit{i}")
        fit = run_child(self.work, f"fit{i}", traced, [
            "fit", "--data", self.data, "--spec", self.spec, "--mode", self.cfg["mode"],
            "--seed", str(seed), "--workers", "1", "--out", out,
        ])
        op = {"index": i, "seed": seed, "traced": traced, "records": [fit], "attempted": 1, "problems": []}
        op["status"] = outcome(fit)
        if op["status"] != "ok":
            op["errors"] = [error_text(fit)]
            return op
        problems, op["sha256"], n_bytes = check_fit(out, self.spec_obj, self.data_obj, CHAINS, self.n_rows)
        op["problems"] += problems
        op["trace_mb"] = n_bytes / 1e6
        walls = [fit["wall_s"]]
        if self.cfg["ppc"]:
            ppc_out = os.path.join(self.work, f"ppc{i}")
            ppc = run_child(self.work, f"ppc{i}", traced, [
                "ppc", "--trace", out, "--data", self.data, "--spec", self.spec, "--n-rep", str(PPC_REPLICATES),
                "--seed", str(seed), "--workers", "1", "--out", ppc_out,
            ])
            op["records"].append(ppc)
            if outcome(ppc) != "ok":
                op["status"] = outcome(ppc)
                op["errors"] = [error_text(ppc)]
                return op
            op["problems"] += check_ppc(ppc_out, self.data_obj, PPC_REPLICATES)
            op["ppc_s"] = ppc["wall_s"]
            walls.append(ppc["wall_s"])
        op["setup_s"] = fit["first_scan"] - fit["launch"] + sum(fit["constructs"][1:])
        op["fit_s"] = [fit["wall_s"]]
        op["scans"] = CHAINS * self.scans_per_chain
        op["scan_time_s"] = fit["run_s"]
        op["cpu_s"] = sum(r["cpu_s"] for r in op["records"])
        op["done"] = 1
        op["done_time_s"] = sum(walls)
        op["peak_rss_mb"] = max(r["peak_rss_mb"] for r in op["records"])
        op["run_s"] = [fit["run_s"]]
        return op

    def _replicate_op(self, i: int, traced: bool) -> dict:
        from checks import check_replicate

        seed = self.op_seed(i)
        out = os.path.join(self.work, f"rep{i}")
        rec = run_child(self.work, f"rep{i}", traced, [
            "replicate", "--design", self.design, "--replicates", str(self.replicates),
            "--seed", str(seed), "--workers", str(WORKERS), "--out", out,
        ])
        op = {"index": i, "seed": seed, "traced": traced, "records": [rec], "attempted": self.replicates}
        op["status"] = outcome(rec)
        if op["status"] != "ok":
            op["errors"] = [error_text(rec)]
            op["ok_replicates"] = 0
            op["problems"] = []
            return op
        rows = rec["rows"]
        op["problems"] = check_replicate(out, rows, self.replicates)
        ok_rows = [r for r in rows if r["ok"]]
        op["ok_replicates"] = len(ok_rows)
        op["errors"] = [f"replicate {r['replicate']}: {r.get('error')}" for r in rows if not r["ok"]]
        if not ok_rows:
            op["status"] = "failed"
            return op
        first = min(ok_rows, key=lambda r: r["bench"]["first_scan"])["bench"]
        op["setup_s"] = first["first_scan"] - rec["launch"] + sum(first["constructs"][1:])
        op["fit_s"] = [r["bench"]["wall_s"] for r in ok_rows]
        op["scans"] = len(ok_rows) * CHAINS * self.scans_per_chain
        op["scan_time_s"] = rec["run_s"]
        op["cpu_s"] = rec["cpu_s"]
        op["done"] = len(ok_rows)
        op["done_time_s"] = rec["wall_s"]
        op["peak_rss_mb"] = rec["peak_rss_mb"]
        op["run_s"] = [r["bench"]["run_s"] for r in ok_rows]
        return op

    def failed_count(self, op: dict) -> int:
        if self.cfg["command"] == "replicate":
            return op["attempted"] - op.get("ok_replicates", 0)
        return 0 if op["status"] == "ok" else 1

    def traced_snapshots(self, op: dict) -> list:
        """Every traced figure set of an operation: its processes and, for replicate, its replicates."""
        snaps = list(op["records"])
        for rec in op["records"]:
            snaps += [row["bench"] for row in rec.get("rows") or [] if row.get("ok")]
        return snaps


# -------------------------------------------------------------------- metrics


def host_scale(op: dict) -> float:
    """Factor that turns a wall time of ``op`` into one at reference host speed."""
    return (REF_S / op["ref_s"]) ** HOST_EXPONENT


def scan_rate(ops: list) -> float:
    """Scans per second of run_chains (fit) or run_replication (replicate) wall time.

    A ratio of sums over the run, because the cost of a scan depends on the
    chain's inclusion pattern.  Chains rarely leave the pattern of their
    start, so per-operation rates scatter widely.
    """
    time_s = sum(op["scan_time_s"] * host_scale(op) for op in ops)
    return sum(op["scans"] for op in ops) / time_s if time_s else 0.0


def end_to_end(ok_ops: list) -> dict:
    """Every timing is scaled to reference host speed with its operation's ``ref_s``."""
    done_s = sum(op["done_time_s"] * host_scale(op) for op in ok_ops)
    return {
        "setup_s": median([op["setup_s"] * host_scale(op) for op in ok_ops]),
        "fit_s": median([s * host_scale(op) for op in ok_ops for s in op["fit_s"]]),
        "scans_per_s": scan_rate(ok_ops),
        "replicates_per_min": 60.0 * sum(op["done"] for op in ok_ops) / done_s,
        "peak_rss_mb": median([op["peak_rss_mb"] for op in ok_ops]),
    }


def _sum_into(total: dict, part: dict):
    for key, value in part.items():
        if isinstance(value, dict):
            _sum_into(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value


def per_layer(wl: Workload, ops: list, attempted: int, failed: int) -> dict:
    traced = [op for op in ops if op["traced"] and op["status"] == "ok"]
    untraced = [op for op in ops if not op["traced"] and op["status"] == "ok"]
    agg = {}
    quality = {}
    snaps = [s for op in traced for s in wl.traced_snapshots(op)] + [r for r in wl.prep_records if r["traced"]]
    for snap in snaps:
        _sum_into(agg, {k: snap.get(k, {}) for k in ("self_s", "incl_s", "calls", "counts", "slice")})
        for key, value in (snap.get("quality") or {}).items():
            quality.setdefault(key, []).append(value)
    self_s, incl_s, calls, counts = agg["self_s"], agg["incl_s"], agg["calls"], agg["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    scans = calls.get("engine.scan", 0)
    m = {"engine.scan_ms": 1e3 * ratio(incl_s.get("engine.scan", 0.0), scans)}
    for kind in UPDATE_KINDS:
        m[f"engine.{kind}_ms"] = 1e3 * ratio(self_s.get(f"engine.{kind}", 0.0), scans)
    m["engine.ll_evals_per_scan"] = ratio(counts.get("ll_evals", 0), scans)
    m["engine.block_eta_per_scan"] = ratio(counts.get("block_eta", 0), scans)
    for ind in ("J", "I"):
        m[f"engine.{ind}_flip_rate"] = ratio(counts.get(f"{ind}_flips", 0), counts.get(f"{ind}_updates", 0))
    n_construct = calls.get("engine.construct", 0)
    m["engine.construct_ms"] = 1e3 * ratio(incl_s.get("engine.construct", 0.0), n_construct)
    m["engine.start_draws"] = ratio(calls.get("priors.sample_prior", 0), n_construct)
    n_draws = calls.get("engine.log_posterior", 0)
    m["engine.log_posterior_ms"] = 1e3 * ratio(incl_s.get("engine.log_posterior", 0.0), n_draws)
    for kind in SLICE_KINDS:
        st = agg["slice"].get(kind, {})
        updates = st.get("updates", 0)
        m[f"slicing.evals_per_update.{kind}"] = ratio(st.get("evals", 0), updates)
        m[f"slicing.stepouts_per_update.{kind}"] = ratio(st.get("stepouts", 0), updates)
        m[f"slicing.fallbacks.{kind}"] = 1e3 * ratio(st.get("fallbacks", 0), updates)

    def per_call(name, scale):
        return scale * ratio(incl_s.get(name, 0.0), calls.get(name, 0))

    m["sampler.record_ms"] = 1e3 * ratio(self_s.get("sampler.chain", 0.0), n_draws)
    m["sampler.save_trace_s"] = per_call("sampler.save_trace", 1.0)
    m["sampler.trace_mb"] = median([op["trace_mb"] for op in traced if "trace_mb" in op])
    m["sampler.load_trace_s"] = per_call("sampler.load_trace", 1.0)
    for key in ("ess_per_s.log_posterior", "ess_per_s.beta1", "ess_per_s.beta_min", "rhat_max.beta"):
        m[f"sampler.{key}"] = median(quality.get(key, []))
    m["model.total_log_likelihood_ms"] = per_call("model.total_log_likelihood", 1e3)
    m["priors.sample_prior_ms"] = per_call("priors.sample_prior", 1e3)
    m["priors.log_prior_state_ms"] = per_call("priors.log_prior_state", 1e3)
    m["dataio.parse_spec_ms"] = per_call("dataio.parse_spec", 1e3)
    m["dataio.load_dataset_s"] = per_call("dataio.load_dataset", 1.0)
    m["simulate.dataset_ms"] = per_call("simulate.dataset", 1e3)
    m["simulate.fit_replicate_s"] = median(
        [s for op in traced for s in op["fit_s"]] if wl.cfg["command"] == "replicate" else []
    )
    m["report.top_models_ms"] = per_call("report.top_models", 1e3)
    m["diagnostics.summarize_s"] = per_call("diagnostics.summarize", 1.0)
    m["ppc.replicate_data_s"] = per_call("ppc.replicate_data", 1.0)
    m["ppc.rootogram_ms"] = per_call("ppc.rootogram", 1e3)
    m["ppc.command_s"] = median([op["ppc_s"] for op in untraced if "ppc_s" in op])
    m["run.failed_share"] = ratio(failed, attempted)
    m["host.ref_s"] = median([op["ref_s"] for op in ops])
    traced_rate = scan_rate(traced)
    untraced_rate = scan_rate(untraced)
    m["trace.scans_per_s"] = traced_rate
    m["trace.untraced_scans_per_s"] = untraced_rate
    m["trace.overhead_share"] = 1.0 - ratio(traced_rate, untraced_rate)
    attributed = (
        sum(self_s.get(f"engine.{kind}", 0.0) for kind in UPDATE_KINDS)
        + incl_s.get("engine.construct", 0.0)
        + incl_s.get("engine.log_posterior", 0.0)
        + self_s.get("sampler.chain", 0.0)
    )
    m["trace.coverage_share"] = ratio(attributed, sum(s for op in traced for s in op["run_s"]))
    return m


# ----------------------------------------------------------------------- main


def metadata() -> dict:
    import numpy
    import platform
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "glmmselect"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "thread_env": THREAD_ENV,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="standard", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "glmmselect")):
        print(f"benchmark: no glmmselect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return run(args, contract, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it


def run(args, contract: dict, work: str) -> int:
    traced_run = args.trace == 1
    wl = Workload(args.workload, args.seed, args.size, work)
    problems = wl.prepare(traced_run)
    if problems:
        print(json.dumps({"report": {"problems": problems}}))
        return 1
    # the stop rule depends only on outcomes, which the seed fixes, never on the clock; with
    # --trace 1 operations alternate between untraced and traced at each success
    target = max(MIN_OK, round(args.seconds / OK_OP_S[args.workload]))
    ops = []
    measured = 0.0
    n_ok = 0
    ref_before = reference_s()
    for i in range(MAX_OPS_FACTOR * target):
        op = wl.run_op(i, traced=traced_run and n_ok % 2 == 1)
        ref_after = reference_s()
        op["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        ops.append(op)
        measured += sum(r["wall_s"] for r in op["records"])
        n_ok += op["status"] == "ok"
        if n_ok >= target:
            break

    attempted = sum(op["attempted"] for op in ops)
    failed = sum(wl.failed_count(op) for op in ops)
    broken = [op for op in ops if op["status"] == "broken"]
    problems = [p for op in ops for p in op["problems"]]
    ok_ops = [op for op in ops if op["status"] == "ok" and not op["traced"]]
    correct = not broken and not problems and bool(ok_ops)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": metadata(),
        "measured_s": measured,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems,
        "operations": [
            {k: v for k, v in op.items() if k != "records"} | {"walls_s": [r["wall_s"] for r in op["records"]]}
            for op in ops
        ],
    }
    print(json.dumps({"report": report}))
    if not ok_ops:
        print("benchmark: no successful untraced operation", file=sys.stderr)
        return 1

    if traced_run:
        values = per_layer(wl, ops, attempted, failed)
        specs = contract["per_layer"]
    else:
        values = end_to_end(ok_ops)
        specs = contract["end_to_end"]
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
