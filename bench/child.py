"""Run one ``glmmselect`` CLI command in this process, with timing probes.

Usage::

    python3 bench/child.py RECORD.json TRACE ARGS...

``ARGS`` are passed unchanged to ``glmmselect.cli.main``.  ``TRACE`` is 0 or 1.
When the command ends, a JSON record is written to ``RECORD.json``.

Every run records, at negligible cost: the time of the first Gibbs scan,
the duration of every ``GibbsEngine`` construction, the wall time of
``run_chains`` or ``run_replication``, one row per replicate with its
``ok``/``error`` fields, and the peak resident set size.  With ``TRACE=1``
the script also wraps engine methods and module functions to record self
times and exact counts.  These are the per-layer figures.

The wrappers are installed by replacing attributes on the imported modules.
No file under ``src/`` changes.  Times come from ``time.perf_counter``, which
is CLOCK_MONOTONIC on Linux, so the parent and forked pool workers share
one clock.  Replicate workers start by fork and inherit the wrappers.  Each
replicate's figures travel back to the parent inside its result row, under
the key ``"bench"``.
"""

import functools
import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from glmmselect import cli, diagnostics, engine, sampler, simulate  # noqa: E402
from glmmselect.engine import GibbsEngine  # noqa: E402

SLICE_KINDS = ("beta", "phi", "lam", "r", "xi", "kappa", "m")

# engine method -> span name; self time per scan is reported for each
ENGINE_SPANS = {
    "recompute_caches": "engine.recompute",
    "_update_J": "engine.J",
    "_update_beta": "engine.beta",
    "_update_theta_phi": "engine.theta_phi",
    "_update_I": "engine.I",
    "_update_lambda": "engine.lam",
    "_update_tau2": "engine.tau2",
    "_update_r": "engine.r",
    "_update_xi_col": "engine.xi",
    "_update_kappa_m": "engine.kappa_m",
    "_adapt_widths": "engine.adapt",
    "check_exclusion_invariant": "engine.invariant",
    "log_posterior": "engine.log_posterior",
}

# (module, attribute) -> span name, for module-level functions looked up at call time
MODULE_SPANS = [
    (engine, "sample_prior", "priors.sample_prior"),
    (engine, "total_log_likelihood", "model.total_log_likelihood"),
    (engine, "log_prior_state", "priors.log_prior_state"),
    (sampler, "_run_single_chain", "sampler.chain"),
    (cli, "parse_spec", "dataio.parse_spec"),
    (cli, "load_dataset", "dataio.load_dataset"),
    (cli, "save_trace", "sampler.save_trace"),
    (cli, "load_trace", "sampler.load_trace"),
    (cli, "summarize_trace", "diagnostics.summarize"),
    (cli, "top_models", "report.top_models"),
    (cli, "simulate_dataset", "simulate.dataset"),
    (cli, "replicate_data", "ppc.replicate_data"),
    (cli, "rootogram", "ppc.rootogram"),
    (simulate, "simulate_dataset", "simulate.dataset"),
    (simulate, "top_models", "report.top_models"),
]


class State:
    """Figures of one process, or of one replicate inside a pool worker."""

    def __init__(self):
        self.first_scan = None
        self.constructs = []
        self.run_s = None
        self.trace = None
        self.rows = None
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.evals = defaultdict(int)
        self.stack = []
        self.engines = []
        self.stats_kind = {}

    def slice_totals(self) -> dict:
        totals = {k: {"updates": 0, "stepouts": 0, "fallbacks": 0, "evals": self.evals.get(k, 0)} for k in SLICE_KINDS}
        for eng in self.engines:
            for kind in SLICE_KINDS:
                st = eng.stats[kind]
                totals[kind]["updates"] += st.updates
                totals[kind]["stepouts"] += st.stepouts
                totals[kind]["fallbacks"] += st.fallbacks
        return totals

    def snapshot(self) -> dict:
        out = {
            "first_scan": self.first_scan,
            "constructs": self.constructs,
            "run_s": self.run_s,
        }
        if self.calls or self.counts:
            out.update(
                self_s=dict(self.self_s),
                incl_s=dict(self.incl_s),
                calls=dict(self.calls),
                counts=dict(self.counts),
                slice=self.slice_totals(),
            )
        if self.trace is not None:
            out["quality"] = sampler_quality(self.trace, self.run_s)
        return out


class Probe:
    """Installs the wrappers; ``state`` is swapped per replicate."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.state = State()

    # ------------------------------------------------------------ wrappers

    def span(self, name, fn):
        probe = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            st = probe.state
            st.stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = st.stack.pop()
                st.self_s[name] += dt - child
                st.incl_s[name] += dt
                st.calls[name] += 1
                if st.stack:
                    st.stack[-1] += dt

        return wrapped

    def counter(self, name, fn):
        probe = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            probe.state.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self):
        probe = self
        clock = time.perf_counter
        init, scan = GibbsEngine.__init__, GibbsEngine.scan

        @functools.wraps(init)
        def construct(eng, *args, **kwargs):
            t0 = clock()
            init(eng, *args, **kwargs)
            st = probe.state
            st.constructs.append(clock() - t0)
            if probe.traced:
                st.engines.append(eng)
                for kind, stats in eng.stats.items():
                    st.stats_kind[id(stats)] = kind

        @functools.wraps(scan)
        def first_scan(eng):
            st = probe.state
            if st.first_scan is None:
                st.first_scan = clock()
            return scan(eng)

        GibbsEngine.__init__ = self.span("engine.construct", construct) if self.traced else construct
        GibbsEngine.scan = self.span("engine.scan", first_scan) if self.traced else first_scan

        for mod in (cli, simulate):
            mod.run_chains = self.timed_run(mod.run_chains, keep_trace=self.traced)
        cli.run_replication = self.timed_run(cli.run_replication, keep_trace=False)
        simulate._fit_one_replicate = self.per_replicate(simulate._fit_one_replicate)
        if self.traced:
            self.install_spans()

    def install_spans(self):
        GibbsEngine._update_J = self.flips("J", lambda eng, p: eng.state.J[p], GibbsEngine._update_J)
        GibbsEngine._update_I = self.flips(
            "I", lambda eng, bi, k: eng.state.blocks[bi].include[k], GibbsEngine._update_I
        )
        for method, name in ENGINE_SPANS.items():
            setattr(GibbsEngine, method, self.span(name, getattr(GibbsEngine, method)))
        GibbsEngine._ll_terms = self.counter("ll_evals", GibbsEngine._ll_terms)
        GibbsEngine._block_eta = self.counter("block_eta", GibbsEngine._block_eta)
        engine.slice_update = self.counted_slice(engine.slice_update)
        engine.slice_update_vec = self.counted_slice(engine.slice_update_vec)
        for mod, attr, name in MODULE_SPANS:
            setattr(mod, attr, self.span(name, getattr(mod, attr)))

    def flips(self, kind, read, fn):
        probe = self

        @functools.wraps(fn)
        def wrapped(eng, *idx):
            before = int(read(eng, *idx))
            fn(eng, *idx)
            counts = probe.state.counts
            counts[f"{kind}_updates"] += 1
            counts[f"{kind}_flips"] += int(read(eng, *idx)) != before

        return wrapped

    def counted_slice(self, fn):
        probe = self

        @functools.wraps(fn)
        def wrapped(target, *args, stats=None, **kwargs):
            st = probe.state
            kind = st.stats_kind.get(id(stats), "other")

            def counted(x):
                st.evals[kind] += getattr(x, "size", 1)  # lanes, for slice_update_vec
                return target(x)

            return fn(counted, *args, stats=stats, **kwargs)

        return wrapped

    def timed_run(self, fn, keep_trace):
        probe = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            st = probe.state
            st.run_s = clock() - t0
            if keep_trace:
                st.trace = result
            st.rows = getattr(result, "rows", None)
            return result

        return wrapped

    def per_replicate(self, fn):
        """Give each replicate its own State and attach its snapshot to the row."""
        probe = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            outer, probe.state = probe.state, State()
            t0 = clock()
            try:
                rows = fn(*args, **kwargs)
                wall = clock() - t0
                snap = probe.state.snapshot()
            finally:
                probe.state = outer
            snap["wall_s"] = wall
            for row in rows:
                row["bench"] = snap
            return rows

        return wrapped


def sampler_quality(trace, run_s) -> dict:
    """ESS per second of run_chains wall time, and the worst split R-hat of beta."""
    if not run_s or trace.chains[0].n_recorded < 8:
        return {}
    names = [f"beta{p + 1}" for p in range(trace.dims.l)]
    ess_beta = [diagnostics.trace_ess(trace, n) for n in names]
    return {
        "ess_per_s.log_posterior": diagnostics.trace_ess(trace, "log_posterior") / run_s,
        "ess_per_s.beta1": ess_beta[0] / run_s,
        "ess_per_s.beta_min": min(ess_beta) / run_s,
        "rhat_max.beta": max(diagnostics.trace_gelman_rubin(trace, n) for n in names),
    }


def cpu_seconds() -> float:
    """User + system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv) -> int:
    record_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    probe = Probe(traced)
    probe.install()
    record = {"traced": traced}
    try:
        record["rc"] = cli.main(cli_args)
    except Exception:
        record["rc"] = None
        record["exception"] = traceback.format_exc()
    record.update(probe.state.snapshot())
    record["rows"] = probe.state.rows
    record["peak_rss_mb"] = peak_rss_mb()
    record["cpu_s"] = cpu_seconds()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=_jsonable)
    return 0 if record["rc"] == 0 else 1


def _jsonable(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    return str(obj)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
