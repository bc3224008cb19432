"""Command-line interface.

Subcommands:
  fit        data + spec -> trace CSVs, diagnostics, selection report
  simulate   design -> replicate dataset CSVs with truth sidecars
  replicate  design -> modal-model frequency table across replicates
  grid       design + grid -> hyperparameter table
  ppc        trace + data + spec -> rootogram / mean-sd CSVs
  report     trace + data + spec -> selection + diagnostics tables

All randomness is controlled by the spec/design seed, overridable with
--seed.  Outputs are written atomically; identical invocations with the same
seed produce byte-identical files.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .dataio import _numeric_column, _read_csv_columns, load_dataset, parse_spec, read_json, settings_from_doc, write_dataset_csv
from .diagnostics import summarize_trace
from .errors import ConfigurationError, GlmmSelectError, SpecValidationError
from .ioutil import atomic_write_text, write_csv
from .model import Hyperparameters, SamplerSettings
from .ppc import mean_sd_scatter, replicate_data, rootogram
from .report import (
    format_table,
    grid_report,
    top_models,
    write_grid_report,
    write_selection_report,
)
from .sampler import load_trace, run_chains, save_trace
from .simulate import (
    scaled_omega,
    SimDesign,
    build_model_spec,
    full_scale_design,
    run_grid,
    run_replication,
    scaled_design,
    simulate_dataset,
)

RHAT_WARN = 1.1

log = logging.getLogger(__name__)


# integer fields of a design document; "replicates" is read by the commands
_DESIGN_INTS = ("n", "n_i", "l", "q", "n_active_fixed", "base_seed", "case", "replicates")


def _design_int(path: str, key: str, value) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError):
        number = None
    if number is None or (isinstance(value, float) and number != value):
        raise ConfigurationError(f"{path}: design field {key!r} must be an integer, got {value!r}")
    return number


def _load_design(path: str) -> tuple[SimDesign, dict]:
    doc = read_json(path)
    for key in _DESIGN_INTS:
        if key in doc:
            doc[key] = _design_int(path, key, doc[key])
    scale = doc.get("scale", "full")
    if scale not in ("full", "scaled"):
        raise ConfigurationError(f"{path}: design field 'scale' must be 'full' or 'scaled', got {scale!r}")
    case = doc.get("case", 1)
    base = full_scale_design(case=case) if scale == "full" else scaled_design(case=case)
    overrides = {key: doc[key] for key in ("n", "n_i", "l", "q", "n_active_fixed", "base_seed") if key in doc}
    q = overrides.get("q", base.q)
    if "active_random" in doc:
        active = doc["active_random"]
        if not isinstance(active, list):
            raise ConfigurationError(f"{path}: design field 'active_random' must be a list of integers")
        active = tuple(_design_int(path, "active_random", k) - 1 for k in active)
        if not all(0 <= k < q for k in active):
            raise ConfigurationError(f"{path}: design field 'active_random' must list effects 1..{q}")
        overrides["active_random"] = active
    if "omega" in doc:
        try:
            overrides["omega"] = np.asarray(doc["omega"], dtype=float)
        except (TypeError, ValueError):
            raise ConfigurationError(f"{path}: design field 'omega' must be a numeric matrix") from None
    elif "q" in overrides or "active_random" in overrides:
        # the base design's active effects beyond a smaller q are dropped
        active = overrides.get("active_random", tuple(k for k in base.active_random if k < q))
        overrides["active_random"] = active
        overrides["omega"] = scaled_omega(q, active)
    design = replace(base, **overrides)
    return design, doc


def _load_grid(path: str) -> list:
    """The (v, h) pairs of a grid document, h outermost."""
    doc = read_json(path)
    values = {}
    for key in ("v", "h"):
        listed = doc.get(key)
        try:
            values[key] = [float(x) for x in listed] if isinstance(listed, list) else []
        except (TypeError, ValueError):
            values[key] = []
        if not values[key]:
            raise ConfigurationError(f"{path}: {key!r} must be a non-empty list of numbers")
    return [(v, h) for h in values["h"] for v in values["v"]]


def _design_spec(design: SimDesign, doc: dict, args) -> tuple:
    problems = []
    hyper = settings_from_doc(doc, "hyperparameters", Hyperparameters, problems)
    sampler = settings_from_doc(doc, "sampler", SamplerSettings, problems)
    if problems:
        raise SpecValidationError(problems)
    mode = getattr(args, "mode", None) or doc.get("mode", "ssvs-diagonal")
    if getattr(args, "seed", None) is not None:
        sampler = replace(sampler, seed=args.seed)
        design = replace(design, base_seed=args.seed)
    return design, build_model_spec(design, mode=mode, hyper=hyper, sampler=sampler)


def _add_squares(data_path: str, cols: str, out_path: str) -> str:
    header, columns = _read_csv_columns(data_path)
    targets = [c for c in cols.split(",") if c]
    for col in targets:
        if col not in columns:
            raise GlmmSelectError(f"--add-squares: column {col!r} not in {data_path}")
    squares = [_numeric_column(columns, col, data_path) ** 2 for col in targets]
    cells = [columns[name] for name in header] + [sq.tolist() for sq in squares]
    write_csv(out_path, header + [f"{c}_sq" for c in targets], zip(*cells))
    return out_path


def _write_diagnostics(trace, outdir: str) -> float:
    rows = summarize_trace(trace)
    write_csv(
        os.path.join(outdir, "diagnostics.csv"),
        ["parameter", "mean", "sd", "rhat", "ess"],
        rows,
    )
    finite = [r[3] for r in rows if np.isfinite(r[3])]
    return max(finite) if finite else float("nan")


def cmd_fit(args) -> int:
    spec = parse_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, sampler=replace(spec.sampler, seed=args.seed))
    if args.mode:
        spec = spec.with_mode(args.mode)
    data_path = args.data
    if args.add_squares:
        data_path = _add_squares(args.data, args.add_squares, os.path.join(args.out, "data_with_squares.csv"))
    data = load_dataset(data_path, spec)
    os.makedirs(args.out, exist_ok=True)
    trace = run_chains(spec, data, workers=args.workers)
    save_trace(trace, args.out)
    worst = _write_diagnostics(trace, args.out)
    report = top_models(trace)
    write_selection_report(report, args.out)
    table = format_table(
        ["model", "count", "percent"],
        [(lab.describe(), cnt, f"{pct:.2f}") for lab, cnt, pct in report.entries[:10]],
    )
    atomic_write_text(os.path.join(args.out, "summary.txt"), table)
    print(f"wrote trace and reports to {args.out}")
    if np.isfinite(worst) and worst > RHAT_WARN:
        print(f"warning: max split R-hat {worst:.3f} exceeds {RHAT_WARN}; inspect diagnostics.csv", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    design, doc = _load_design(args.design)
    if args.seed is not None:
        design = replace(design, base_seed=args.seed)
    spec = build_model_spec(design)
    os.makedirs(args.out, exist_ok=True)
    n_rep = args.replicates or doc.get("replicates", 1)
    for rep in range(n_rep):
        data, truth = simulate_dataset(design, rep)
        write_dataset_csv(os.path.join(args.out, f"replicate_{rep + 1}.csv"), data, spec)
        sidecar = {
            "beta": truth.beta.tolist(),
            "fixed_mask": truth.fixed_mask.tolist(),
            "random_mask": truth.random_mask.tolist(),
            "omega": truth.omega.tolist(),
        }
        atomic_write_text(
            os.path.join(args.out, f"replicate_{rep + 1}_truth.json"),
            json.dumps(sidecar, indent=1) + "\n",
        )
    print(f"wrote {n_rep} replicate dataset(s) to {args.out}")
    return 0


def cmd_replicate(args) -> int:
    design, doc = _load_design(args.design)
    design, spec = _design_spec(design, doc, args)
    n_rep = args.replicates or doc.get("replicates", 20)
    result = run_replication(design, spec, n_rep, workers=args.workers)
    os.makedirs(args.out, exist_ok=True)
    counts = result.modal_label_counts()
    total = sum(counts.values())
    rows = []
    for (fixed, random), cnt in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        fixed_desc = ",".join(str(p + 1) for p, b in enumerate(fixed) if b) or "-"
        rand_desc = ",".join(str(k + 1) for k, b in enumerate(random) if b) or "-"
        rows.append((fixed_desc, rand_desc, cnt, round(100.0 * cnt / total, 2)))
    write_csv(
        os.path.join(args.out, "modal_models.csv"),
        ["fixed_effects", "random_effects", "count", "percent"],
        rows,
    )
    summ = result.summary()
    write_csv(
        os.path.join(args.out, "summary.csv"),
        ["mode", "percent_true_model", "percent_random_correct", "mean_rmse", "n_ok", "n_failed"],
        [(spec.mode, summ["percent"], summ["percent_random"], summ["rmse"], summ["n_ok"], summ["n_failed"])],
    )
    print(format_table(["fixed", "random", "count", "percent"], rows[:10]))
    return 0


def cmd_grid(args) -> int:
    design, doc = _load_design(args.design)
    design, spec = _design_spec(design, doc, args)
    pairs = _load_grid(args.grid)
    n_rep = args.replicates or doc.get("replicates", 20)
    cells = run_grid(design, spec, pairs, n_rep, workers=args.workers)
    rows = grid_report(cells)
    os.makedirs(args.out, exist_ok=True)
    write_grid_report(rows, os.path.join(args.out, "grid.csv"), extra_cols=("n_ok", "n_failed"))
    print(format_table(["v", "h", "percent", "rmse"], [(r["v"], r["h"], r["percent"], r["rmse"]) for r in rows]))
    return 0


def cmd_ppc(args) -> int:
    spec = parse_spec(args.spec)
    data = load_dataset(args.data, spec)
    trace = load_trace(args.trace, spec, data)
    rng = np.random.default_rng(args.seed if args.seed is not None else spec.sampler.seed)
    reps = replicate_data(trace, spec, data, args.n_rep, rng, conditional=not args.marginal)
    os.makedirs(args.out, exist_ok=True)
    if spec.family.counts:
        max_count = args.max_count if args.max_count is not None else int(data.y.max())
        bins = rootogram(data.y, reps, max_count)
        write_csv(
            os.path.join(args.out, "rootogram.csv"),
            ["count", "observed", "expected", "sqrt_observed", "sqrt_expected"],
            [(b["count"], b["observed"], b["expected"], b["sqrt_observed"], b["sqrt_expected"]) for b in bins],
        )
    summary = mean_sd_scatter(reps, data.y)
    rows = [(i + 1, float(m), float(s)) for i, (m, s) in enumerate(summary.pairs)]
    rows.append(("observed", summary.observed_pair[0], summary.observed_pair[1]))
    write_csv(os.path.join(args.out, "mean_sd.csv"), ["replicate", "mean", "sd"], rows)
    print(f"wrote PPC data for {args.n_rep} replicates to {args.out}")
    return 0


def cmd_report(args) -> int:
    spec = parse_spec(args.spec)
    data = load_dataset(args.data, spec)
    trace = load_trace(args.trace, spec, data)
    os.makedirs(args.out, exist_ok=True)
    report = top_models(trace)
    write_selection_report(report, args.out)
    worst = _write_diagnostics(trace, args.out)
    print(format_table(
        ["model", "count", "percent"],
        [(lab.describe(), cnt, f"{pct:.2f}") for lab, cnt, pct in report.entries[:10]],
    ))
    if np.isfinite(worst) and worst > RHAT_WARN:
        print(f"warning: max split R-hat {worst:.3f} exceeds {RHAT_WARN}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glmmselect",
        description="Joint fixed/random effect selection for Bayesian GLMMs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trace=False, design=False):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="processes for chains (fit) or replicates (replicate, grid); results are identical for any value",
        )

    p = sub.add_parser("fit", help="fit a model to data")
    p.add_argument("--data", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--mode", choices=["ssvs-full", "ssvs-diagonal", "no-selection"], default=None)
    p.add_argument("--add-squares", default=None, metavar="COLS", help="comma-separated columns to square into <col>_sq")
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="generate synthetic datasets")
    p.add_argument("--design", required=True)
    p.add_argument("--replicates", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replicate", help="replication study for one design")
    p.add_argument("--design", required=True)
    p.add_argument("--mode", choices=["ssvs-full", "ssvs-diagonal", "no-selection"], default=None)
    p.add_argument("--replicates", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("grid", help="hyperparameter grid study")
    p.add_argument("--design", required=True)
    p.add_argument("--grid", required=True, help="JSON with 'v' and 'h' lists")
    p.add_argument("--mode", choices=["ssvs-full", "ssvs-diagonal", "no-selection"], default=None)
    p.add_argument("--replicates", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ppc", help="posterior predictive checks from a saved trace")
    p.add_argument("--trace", required=True, help="directory with chain_*.csv")
    p.add_argument("--data", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--n-rep", type=int, default=200)
    p.add_argument("--marginal", action="store_true", help="draw fresh latent effects")
    p.add_argument("--max-count", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_ppc)

    p = sub.add_parser("report", help="selection tables from a saved trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--spec", required=True)
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GlmmSelectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
