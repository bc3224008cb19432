"""Output checks for the benchmark.  Each check returns a list of problems.

The expected chain-CSV columns are written out here from the documented
layout and are not taken from ``sampler.chain_columns``.  A change to the
trace schema must therefore show up as a failed check.
"""

import csv
import hashlib
import math
import os

import numpy as np

from glmmselect.sampler import load_trace


def expected_chain_columns(l: int, q: int, n_groups: int) -> list:
    cols = ["iteration", "log_posterior"]
    cols += [f"beta{p}" for p in range(1, l + 1)]
    cols += [f"J{p}" for p in range(1, l + 1)]
    cols += [f"lam1_{k}" for k in range(1, q + 1)]
    cols += [f"I1_{k}" for k in range(1, q + 1)]
    cols += [f"r1_{u}_{v}" for u in range(2, q + 1) for v in range(1, u)]
    cols += [f"kappa1_{k}" for k in range(1, q + 1)]
    cols += [f"xi1_g{i}_{k}" for i in range(1, n_groups + 1) for k in range(1, q + 1)]
    return cols


def _read_csv(path: str) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, list(reader)


def check_fit(outdir: str, spec, data, n_chains: int, n_rows: int) -> tuple[list, str, int]:
    """Check a ``fit`` output directory.

    Returns the list of problems, the sha256 of the chain CSVs concatenated
    in order, and their total size in bytes.
    """
    problems = []
    l, q, n_groups = data.l, data.blocks[0].q, data.blocks[0].n_groups
    expected = expected_chain_columns(l, q, n_groups)
    indicator_cols = [j for j, name in enumerate(expected) if name[0] in "JI" and name[1].isdigit()]
    digest = hashlib.sha256()
    n_bytes = 0
    for ci in range(1, n_chains + 2):
        path = os.path.join(outdir, f"chain_{ci}.csv")
        if ci > n_chains:
            if os.path.exists(path):
                problems.append(f"unexpected {path}")
            break
        if not os.path.exists(path):
            problems.append(f"missing {path}")
            continue
        with open(path, "rb") as fh:
            raw = fh.read()
        digest.update(raw)
        n_bytes += len(raw)
        header, rows = _read_csv(path)
        if header != expected:
            problems.append(f"{path}: header differs from the expected {len(expected)} columns")
            continue
        if len(rows) != n_rows:
            problems.append(f"{path}: {len(rows)} rows, expected {n_rows}")
        values = np.array(rows, dtype=float) if rows else np.zeros((0, len(expected)))
        if not np.all(np.isfinite(values)):
            problems.append(f"{path}: non-finite values")
        if not np.array_equal(values[:, 0], np.arange(1, len(rows) + 1)):
            problems.append(f"{path}: iteration column is not 1..{len(rows)}")
        if not np.all(np.isin(values[:, indicator_cols], (0.0, 1.0))):
            problems.append(f"{path}: J/I columns hold values other than 0/1")
    for name in ("diagnostics.csv", "top_models.csv", "inclusion.csv", "summary.txt"):
        if not os.path.exists(os.path.join(outdir, name)):
            problems.append(f"missing {name}")
    if problems:
        return problems, digest.hexdigest(), n_bytes
    trace = load_trace(outdir, spec, data)
    if trace.n_chains != n_chains or any(c.n_recorded != n_rows for c in trace.chains):
        problems.append("load_trace returned the wrong number of chains or draws")
    for chain in trace.chains:
        if np.any(chain.lam[0] < 0) or np.any(chain.kappa[0] <= 0):
            problems.append("load_trace: negative lam or non-positive kappa")
            break
    return problems, digest.hexdigest(), n_bytes


def check_ppc(outdir: str, data, n_rep: int) -> list:
    """Rootogram bins and mean/sd rows of a ``ppc`` output directory."""
    problems = []
    header, rows = _read_csv(os.path.join(outdir, "rootogram.csv"))
    if header[:3] != ["count", "observed", "expected"] or not rows:
        return ["rootogram.csv: unexpected layout"]
    observed = np.array([float(r[1]) for r in rows])
    expected = np.array([float(r[2]) for r in rows])
    max_count = len(rows) - 2
    y = data.y.astype(np.int64)
    truth = np.bincount(np.minimum(y, max_count + 1), minlength=max_count + 2)
    if not np.array_equal(observed, truth):
        problems.append("rootogram.csv: observed frequencies do not match the data")
    if not math.isclose(float(expected.sum()), float(data.n_obs), rel_tol=1e-9):
        problems.append("rootogram.csv: expected frequencies do not sum to n_obs")
    header, rows = _read_csv(os.path.join(outdir, "mean_sd.csv"))
    if len(rows) != n_rep + 1 or rows[-1][0] != "observed":
        problems.append(f"mean_sd.csv: {len(rows)} rows, expected {n_rep} replicates and the observed row")
    else:
        pairs = np.array([[float(r[1]), float(r[2])] for r in rows])
        if not np.all(np.isfinite(pairs)):
            problems.append("mean_sd.csv: non-finite values")
        if not math.isclose(pairs[-1, 0], float(data.y.mean()), rel_tol=1e-12):
            problems.append("mean_sd.csv: observed mean does not match the data")
    return problems


def check_replicate(outdir: str, rows: list, n_rep: int) -> list:
    """summary.csv and modal_models.csv against the per-replicate rows."""
    problems = []
    if rows is None or len(rows) != n_rep:
        return [f"expected {n_rep} replicate rows, got {None if rows is None else len(rows)}"]
    n_ok = sum(1 for r in rows if r["ok"])
    _, summary = _read_csv(os.path.join(outdir, "summary.csv"))
    if len(summary) != 1:
        return ["summary.csv: expected one row"]
    got_ok, got_failed = int(summary[0][4]), int(summary[0][5])
    if got_ok + got_failed != n_rep:
        problems.append(f"summary.csv: n_ok + n_failed = {got_ok + got_failed}, attempted {n_rep}")
    if got_ok != n_ok:
        problems.append(f"summary.csv: n_ok = {got_ok}, rows say {n_ok}")
    _, modal = _read_csv(os.path.join(outdir, "modal_models.csv"))
    if sum(int(r[2]) for r in modal) != n_ok:
        problems.append("modal_models.csv: counts do not sum to n_ok")
    return problems
