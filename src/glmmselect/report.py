"""Turn traces into selection deliverables: posterior model frequencies,
marginal inclusion probabilities, RMSE of the fixed effects, and
hyperparameter-grid tables.

A "model" is the joint inclusion pattern (fixed-effect bits, then each
block's random-effect bits in spec order); the modal model is the pattern
appearing most often among the kept draws.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .ioutil import write_csv

__all__ = [
    "effect_list",
    "ModelLabel",
    "SelectionReport",
    "labels_of_trace",
    "top_models",
    "inclusion_probabilities",
    "modal_random_pattern",
    "fixed_effect_rmse",
    "grid_report",
    "format_table",
    "write_selection_report",
    "write_grid_report",
]


def effect_list(bits) -> str:
    """The 1-based positions of the set bits of an inclusion pattern, comma-joined; "-" when none is set."""
    return ",".join(str(k + 1) for k, bit in enumerate(bits) if bit) or "-"


@dataclass(frozen=True, order=True)
class ModelLabel:
    """Binary inclusion pattern identifying one candidate model."""

    fixed: tuple
    random: tuple  # tuple of per-block tuples

    def describe(self) -> str:
        return f"fixed[{effect_list(self.fixed)}] random[" + "|".join(map(effect_list, self.random)) + "]"


@dataclass
class SelectionReport:
    entries: list            # (ModelLabel, count, percent), descending
    inclusion_fixed: np.ndarray
    inclusion_random: list   # per block arrays
    modal: ModelLabel
    total_draws: int


def labels_of_trace(trace) -> list:
    """Label of every kept draw, pooled across chains in chain order."""
    bits = np.concatenate([np.hstack([chain.J, *chain.include]) for chain in trace.chains]).astype(int)
    edges = np.cumsum([trace.dims.l] + [q for q, _ in trace.dims.blocks])[:-1]
    parts = [map(tuple, part.tolist()) for part in np.split(bits, edges, axis=1)]
    return [ModelLabel(fixed, tuple(random)) for fixed, *random in zip(*parts)]


def _ranked(counts: Counter) -> list:
    """(pattern, count) pairs by count descending, then pattern ascending."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def top_models(trace, k: int | None = None) -> SelectionReport:
    """Frequency table of inclusion patterns, ties broken by label order."""
    labels = labels_of_trace(trace)
    if not labels:
        raise ConfigurationError("empty trace")
    ranked = _ranked(Counter(labels))
    total = len(labels)
    entries = [(lab, cnt, 100.0 * cnt / total) for lab, cnt in ranked]
    if k is not None:
        entries = entries[:k]
    incl = inclusion_probabilities(trace)
    return SelectionReport(
        entries=entries,
        inclusion_fixed=incl["fixed"],
        inclusion_random=incl["random"],
        modal=ranked[0][0],
        total_draws=total,
    )


def inclusion_probabilities(trace) -> dict:
    """Mean of each inclusion indicator across all kept draws."""
    if trace.n_recorded == 0:
        raise ConfigurationError("empty trace")
    fixed = trace.pooled("J").mean(axis=0)
    random = []
    for bi in range(len(trace.dims.blocks)):
        random.append(trace.pooled("include", bi).mean(axis=0))
    return {"fixed": fixed, "random": random}


def modal_random_pattern(trace, block: int | None = None) -> tuple:
    """Most frequent random-effect inclusion pattern (marginal over fixed bits).

    Returns the concatenated per-block pattern, or one block's pattern when
    ``block`` is given.
    """
    counts = Counter(lab.random if block is None else lab.random[block] for lab in labels_of_trace(trace))
    if not counts:
        raise ConfigurationError("empty trace")
    return _ranked(counts)[0][0]


def fixed_effect_rmse(trace, truth) -> float:
    """RMSE between posterior-mean effective coefficients and the truth.

    sqrt(mean over coordinates of (mean_draws(J*beta) - beta_true)^2).
    """
    truth = np.asarray(truth, dtype=float)
    post_mean = trace.pooled_beta_eff().mean(axis=0)
    if truth.shape != post_mean.shape:
        raise ConfigurationError(
            f"truth has length {truth.size}, trace has {post_mean.size} coefficients"
        )
    return float(np.sqrt(np.mean((post_mean - truth) ** 2)))


def grid_report(cells) -> list:
    """Rows (v, h, percent, rmse, ...) per case in hyperparameter-table layout.

    ``cells`` maps (v, h) -> summary dict with keys 'percent', 'rmse' and
    optionally 'n_ok'/'n_failed'.  Rows are ordered by (h, v).
    """
    keys = sorted(cells.keys(), key=lambda vh: (vh[1], vh[0]))
    return [{"v": v, "h": h, "status": "ok", **cells[(v, h)]} for v, h in keys]


def format_table(header, rows) -> str:
    """Aligned fixed-width text table."""
    cells = [[str(h) for h in header]] + [[str(c) for c in row] for row in rows]
    ncol = len(header)
    col_w = [max(len(row[j]) for row in cells) for j in range(ncol)]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(row[j].ljust(col_w[j]) for j in range(ncol)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * col_w[j] for j in range(ncol)))
    return "\n".join(lines) + "\n"


def write_selection_report(report: SelectionReport, outdir: str) -> None:
    """top_models.csv (the 20 most frequent models) and inclusion.csv in ``outdir``."""
    rows = [(lab.describe(), cnt, round(pct, 4)) for lab, cnt, pct in report.entries[:20]]
    write_csv(f"{outdir}/top_models.csv", ["model", "count", "percent"], rows)
    incl_rows = [(f"beta{p + 1}", float(v)) for p, v in enumerate(report.inclusion_fixed)]
    for bi, arr in enumerate(report.inclusion_random):
        incl_rows += [(f"block{bi + 1}_effect{k + 1}", float(v)) for k, v in enumerate(arr)]
    write_csv(f"{outdir}/inclusion.csv", ["effect", "probability"], incl_rows)


def write_grid_report(rows, path: str) -> None:
    header = ["v", "h", "status", "percent", "rmse", "n_ok", "n_failed"]
    write_csv(path, header, [[row.get(c, "") for c in header] for row in rows])
