"""Command-line interface.

Subcommands, with the options each reads (every one also takes --out):
  fit        data + spec -> trace CSVs, diagnostics, selection report
             --data --spec [--mode] [--add-squares] [--seed] [--workers]
  simulate   design -> replicate dataset CSVs with truth sidecars
             --design [--replicates] [--seed]
  replicate  design -> modal-model frequency table across replicates
             --design [--mode] [--replicates] [--seed] [--workers]
  grid       design + grid -> hyperparameter table
             --design --grid [--mode] [--replicates] [--seed] [--workers]
  ppc        trace + data + spec -> rootogram / mean-sd CSVs
             --trace --data --spec [--n-rep] [--marginal] [--max-count] [--seed]
  report     trace + data + spec -> selection + diagnostics tables
             --trace --data --spec

simulate, replicate and grid read a design document with the keys scale
("full" or "scaled"), case, n, n_i, l, q, n_active_fixed, base_seed, omega,
replicates, mode, hyperparameters and sampler.  omega, the random-effect
covariance, is the only random-effect truth: the effects it gives variance
are the active ones.  Without omega, the truth is the scale's own active
effects (full: 1, 3, 6; scaled: 1, 3) up to q.  A grid document lists "v"
(v = nu) and "h".  Any other key is an error.

Each table a command writes or prints takes its header from the column tuple
of the module that builds its rows: diagnostics.DIAGNOSTIC_COLUMNS,
report.TOP_MODELS_COLUMNS and INCLUSION_COLUMNS, ppc.ROOTOGRAM_COLUMNS and
MEAN_SD_COLUMNS, and simulate's MODAL_MODELS_COLUMNS, SUMMARY_COLUMNS and
GRID_COLUMNS.

All randomness is controlled by the spec/design seed, overridable with
--seed where a command takes it.  Outputs are written atomically; identical
invocations with the same seed produce byte-identical files.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .dataio import check_keys, load_dataset, parse_spec, read_json, settings_from_doc, write_dataset_csv
from .diagnostics import DIAGNOSTIC_COLUMNS, summarize_trace
from .errors import ConfigurationError, GlmmSelectError, SpecValidationError
from .ioutil import atomic_write_text, parse_floats, read_csv, write_csv
from .model import MODES, Hyperparameters, ModelSpec, SamplerSettings, check_int
from .ppc import MEAN_SD_COLUMNS, ROOTOGRAM_COLUMNS, ROOTOGRAM_MAX_COUNT, mean_sd_scatter, replicate_data, rootogram
from .report import INCLUSION_COLUMNS, TOP_MODELS_COLUMNS, format_table, top_models
from .sampler import load_trace, run_chains, save_trace
from .simulate import GRID_COLUMNS, MODAL_MODELS_COLUMNS, SUMMARY_COLUMNS, SimDesign, build_model_spec
from .simulate import full_scale_design, run_grid, run_replication, scaled_design, scaled_omega, simulate_dataset

RHAT_WARN = 1.1

log = logging.getLogger(__name__)


# a design document holds the SimDesign settings and the study's own keys
_DESIGN_SETTINGS = tuple(f.name for f in fields(SimDesign) if f.init)
_DESIGN_KEYS = _DESIGN_SETTINGS + ("scale", "replicates", "mode", "hyperparameters", "sampler")


def _design(doc: dict) -> SimDesign:
    """The SimDesign of a design document."""
    scale = doc.get("scale", "full")
    if scale not in ("full", "scaled"):
        raise ConfigurationError(f"scale must be 'full' or 'scaled', got {scale!r}")
    base = full_scale_design() if scale == "full" else scaled_design()
    settings = {key: doc[key] for key in _DESIGN_SETTINGS if key in doc}
    if "omega" not in doc:
        # the base design's active effects beyond a smaller q are dropped
        q = check_int("q", settings.get("q", base.q), 1)
        settings["omega"] = scaled_omega(q, tuple(k for k in base.active_random if k < q))
    return replace(base, **settings)


def _with_flags(spec: ModelSpec, args) -> ModelSpec:
    """``spec`` with the command's ``--seed`` and ``--mode``, where given."""
    if args.seed is not None:
        spec = replace(spec, sampler=replace(spec.sampler, seed=args.seed))
    return replace(spec, mode=getattr(args, "mode", None) or spec.mode)


def _study(args, default_replicates: int) -> tuple[SimDesign, ModelSpec, int]:
    """The design, model spec and replicate count of the ``--design`` document.

    Problems of the document are reported together, naming the file.  The
    command's ``--seed`` (design and sampler seed), ``--mode`` and
    ``--replicates`` then replace the document's values.
    """
    doc = read_json(args.design)
    problems = []
    check_keys(doc, _DESIGN_KEYS, None, problems)
    hyper = settings_from_doc(doc, "hyperparameters", Hyperparameters, problems)
    sampler = settings_from_doc(doc, "sampler", SamplerSettings, problems)
    try:
        design = _design(doc)
        n_rep = check_int("replicates", doc.get("replicates", default_replicates), 1)
        spec = build_model_spec(design, doc.get("mode", "ssvs-diagonal"), hyper, sampler)
    except GlmmSelectError as exc:  # an omega that does not decompose raises DecompositionError or NumericError
        problems.append(str(exc))
    if problems:
        raise SpecValidationError(problems, f"design {args.design}")
    if args.replicates is not None:
        n_rep = check_int("--replicates", args.replicates, 1)
    if args.seed is not None:
        design = replace(design, base_seed=args.seed)
    return design, _with_flags(spec, args), n_rep


def _load_grid(path: str) -> list:
    """The (v, h) pairs of a grid document; "v" and "h" each list distinct values."""
    doc = read_json(path)
    problems = []
    check_keys(doc, ("v", "h"), None, problems)
    for key in ("v", "h"):
        listed = doc.get(key)
        try:
            if not isinstance(listed, list) or not listed:
                raise ConfigurationError(f"{key!r} must be a non-empty list of numbers")
            for x in listed:
                Hyperparameters(**{key: x})
            if len(set(listed)) < len(listed):
                raise ConfigurationError(f"{key!r} lists a value more than once")
        except ConfigurationError as exc:
            problems.append(str(exc))
    if problems:
        raise SpecValidationError(problems, f"grid {path}")
    return [(float(v), float(h)) for h in doc["h"] for v in doc["v"]]


def _add_squares(data_path: str, cols: str, out_path: str) -> str:
    header, rows = read_csv(data_path)
    targets = [c for c in cols.split(",") if c]
    squares = parse_floats(data_path, header, rows, targets) ** 2
    write_csv(out_path, header + [f"{c}_sq" for c in targets], (row + sq for row, sq in zip(rows, squares.tolist())))
    return out_path


def _write_reports(trace, outdir: str) -> str:
    """Write the diagnostics and selection report of a trace; return its top-10 table.

    Warns on stderr when the largest finite split R-hat exceeds RHAT_WARN.
    """
    report = top_models(trace)
    rows = summarize_trace(trace)
    write_csv(os.path.join(outdir, "diagnostics.csv"), DIAGNOSTIC_COLUMNS, rows)
    write_csv(os.path.join(outdir, "top_models.csv"), TOP_MODELS_COLUMNS, report.top_model_rows())
    write_csv(os.path.join(outdir, "inclusion.csv"), INCLUSION_COLUMNS, report.inclusion_rows())
    worst = max((r[3] for r in rows if np.isfinite(r[3])), default=0.0)
    if worst > RHAT_WARN:
        print(f"warning: max split R-hat {worst:.3f} exceeds {RHAT_WARN}; inspect diagnostics.csv", file=sys.stderr)
    top = [(lab.describe(), cnt, f"{pct:.2f}") for lab, cnt, pct in report.entries[:10]]
    return format_table(TOP_MODELS_COLUMNS, top)


def cmd_fit(args) -> int:
    spec = _with_flags(parse_spec(args.spec), args)
    data_path = args.data
    if args.add_squares:
        data_path = _add_squares(args.data, args.add_squares, os.path.join(args.out, "data_with_squares.csv"))
    data = load_dataset(data_path, spec)
    os.makedirs(args.out, exist_ok=True)
    trace = run_chains(spec, data, workers=args.workers)
    save_trace(trace, args.out)
    atomic_write_text(os.path.join(args.out, "summary.txt"), _write_reports(trace, args.out))
    print(f"wrote trace and reports to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    design, spec, n_rep = _study(args, 1)
    os.makedirs(args.out, exist_ok=True)
    for rep in range(n_rep):
        data, beta = simulate_dataset(design, rep)
        write_dataset_csv(os.path.join(args.out, f"replicate_{rep + 1}.csv"), data, spec)
        sidecar = {
            "beta": beta.tolist(),
            "fixed_mask": design.fixed_truth_mask().tolist(),
            "random_mask": design.random_truth_mask().tolist(),
            "omega": design.omega.tolist(),
        }
        atomic_write_text(
            os.path.join(args.out, f"replicate_{rep + 1}_truth.json"),
            json.dumps(sidecar, indent=1) + "\n",
        )
    print(f"wrote {n_rep} replicate dataset(s) to {args.out}")
    return 0


def cmd_replicate(args) -> int:
    design, spec, n_rep = _study(args, 20)
    os.makedirs(args.out, exist_ok=True)
    result = run_replication(design, spec, n_rep, workers=args.workers)
    rows = result.modal_models()
    write_csv(os.path.join(args.out, "modal_models.csv"), MODAL_MODELS_COLUMNS, rows)
    write_csv(os.path.join(args.out, "summary.csv"), SUMMARY_COLUMNS, [(spec.mode, *result.summary().values())])
    print(format_table(MODAL_MODELS_COLUMNS, rows[:10]))
    return 0


def cmd_grid(args) -> int:
    design, spec, n_rep = _study(args, 20)
    pairs = _load_grid(args.grid)
    os.makedirs(args.out, exist_ok=True)
    rows = run_grid(design, spec, pairs, n_rep, workers=args.workers)
    write_csv(os.path.join(args.out, "grid.csv"), GRID_COLUMNS, rows)
    print(format_table(GRID_COLUMNS, rows))
    return 0


def cmd_ppc(args) -> int:
    spec = parse_spec(args.spec)
    data = load_dataset(args.data, spec)
    trace = load_trace(args.trace, spec, data)
    rng = np.random.default_rng(args.seed if args.seed is not None else spec.sampler.seed)
    reps = replicate_data(trace, spec, data, args.n_rep, rng, conditional=not args.marginal)
    os.makedirs(args.out, exist_ok=True)
    if spec.family.counts:
        max_count = args.max_count if args.max_count is not None else min(int(data.y.max()), ROOTOGRAM_MAX_COUNT)
        write_csv(os.path.join(args.out, "rootogram.csv"), ROOTOGRAM_COLUMNS, rootogram(data.y, reps, max_count))
    write_csv(os.path.join(args.out, "mean_sd.csv"), MEAN_SD_COLUMNS, mean_sd_scatter(data.y, reps))
    print(f"wrote PPC data for {args.n_rep} replicates to {args.out}")
    return 0


def cmd_report(args) -> int:
    spec = parse_spec(args.spec)
    data = load_dataset(args.data, spec)
    trace = load_trace(args.trace, spec, data)
    print(_write_reports(trace, args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glmmselect",
        description="Joint fixed/random effect selection for Bayesian GLMMs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help=None, workers_help=None):
        p.add_argument("--out", required=True, help="output directory")
        if seed_help:
            p.add_argument("--seed", type=int, default=None, help=seed_help)
        if workers_help:
            p.add_argument("--workers", type=int, default=1, help=workers_help)

    study_seed = "override the design's base seed and the sampler seed"
    workers = "processes for chains (fit) or replicates (replicate, grid); results are identical for any value"

    p = sub.add_parser("fit", help="fit a model to data")
    p.add_argument("--data", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--add-squares", default=None, metavar="COLS", help="comma-separated columns to square into <col>_sq")
    common(p, "override the spec's sampler seed", workers)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="generate synthetic datasets")
    p.add_argument("--design", required=True)
    p.add_argument("--replicates", type=int, default=None)
    common(p, study_seed)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replicate", help="replication study for one design")
    p.add_argument("--design", required=True)
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--replicates", type=int, default=None)
    common(p, study_seed, workers)
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("grid", help="hyperparameter grid study")
    p.add_argument("--design", required=True)
    p.add_argument("--grid", required=True, help="JSON with 'v' and 'h' lists")
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--replicates", type=int, default=None)
    common(p, study_seed, workers)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ppc", help="posterior predictive checks from a saved trace")
    p.add_argument("--trace", required=True, help="directory with chain_*.csv")
    p.add_argument("--data", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--n-rep", type=int, default=200)
    p.add_argument("--marginal", action="store_true", help="draw fresh latent effects")
    p.add_argument(
        "--max-count", type=int, default=None,
        help=f"last rootogram bin before the tail bin, at most {ROOTOGRAM_MAX_COUNT} (default: max(y), capped there)",
    )
    # --workers stays for command lines that pass it, such as the benchmark's
    common(p, "seed of the replicate draws (default: the spec's sampler seed)", "accepted and ignored: ppc runs in one process")
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
        if "workers" in args:
            check_int("--workers", args.workers, 1)
        return args.func(args)
    except (GlmmSelectError, OSError) as exc:  # OSError: an --out path that is a file, a full disk, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
