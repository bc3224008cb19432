"""Turn traces into selection deliverables: posterior model frequencies,
marginal inclusion probabilities and the RMSE of the fixed effects.

A pattern is one row of :func:`indicator_matrix`: a kept draw's fixed-effect
bits, then each random block's bits in spec order.  A "model" is a pattern.
Patterns are ranked one way, by :func:`ranked_patterns`: by count
descending, ties in ascending row order.  The modal model is the first.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "TOP_MODELS_COLUMNS",
    "INCLUSION_COLUMNS",
    "effect_list",
    "ModelLabel",
    "SelectionReport",
    "indicator_matrix",
    "ranked_patterns",
    "top_models",
    "fixed_effect_rmse",
    "format_table",
]

# top_models.csv, and the top-10 table of summary.txt
TOP_MODELS_COLUMNS = ("model", "count", "percent")
# inclusion.csv
INCLUSION_COLUMNS = ("effect", "probability")


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

    def top_model_rows(self) -> list:
        """The rows of top_models.csv under TOP_MODELS_COLUMNS: the 20 most frequent models."""
        return [(lab.describe(), cnt, round(pct, 4)) for lab, cnt, pct in self.entries[:20]]

    def inclusion_rows(self) -> list:
        """The rows of inclusion.csv under INCLUSION_COLUMNS: every fixed effect, then each block's effects."""
        rows = [(f"beta{p + 1}", float(v)) for p, v in enumerate(self.inclusion_fixed)]
        for bi, arr in enumerate(self.inclusion_random):
            rows += [(f"block{bi + 1}_effect{k + 1}", float(v)) for k, v in enumerate(arr)]
        return rows


def indicator_matrix(trace) -> np.ndarray:
    """(draws, l + sum of q) int8 matrix of every kept draw's pattern, chains in order."""
    return np.concatenate([np.hstack([chain.J, *chain.include]) for chain in trace.chains]).astype(np.int8)


def ranked_patterns(bits) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``bits`` and their counts, by count descending, ties in ascending row order."""
    if len(bits) == 0:
        raise ConfigurationError("empty trace")
    patterns, counts = np.unique(bits, axis=0, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    return patterns[order], counts[order]


def top_models(trace) -> SelectionReport:
    """Every pattern of the trace with its count and percent, and the inclusion probabilities."""
    bits = indicator_matrix(trace)
    patterns, counts = ranked_patterns(bits)
    bounds = np.cumsum([0, trace.dims.l] + [q for q, _ in trace.dims.blocks]).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    entries = []
    for row, cnt in zip(patterns.tolist(), counts.tolist()):
        fixed, *random = (tuple(row[a:b]) for a, b in spans)
        entries.append((ModelLabel(fixed, tuple(random)), cnt, 100.0 * cnt / len(bits)))
    fixed_incl, *random_incl = (bits[:, a:b].mean(axis=0) for a, b in spans)
    return SelectionReport(entries=entries, inclusion_fixed=fixed_incl, inclusion_random=random_incl, modal=entries[0][0])


def fixed_effect_rmse(trace, truth) -> float:
    """RMSE between posterior-mean effective coefficients and the truth.

    sqrt(mean over coordinates of (mean_draws(J*beta) - beta_true)^2).
    """
    truth = np.asarray(truth, dtype=float)
    post_mean = np.concatenate([chain.beta * chain.J for chain in trace.chains]).mean(axis=0)
    if truth.shape != post_mean.shape:
        raise ConfigurationError(
            f"truth has length {truth.size}, trace has {post_mean.size} coefficients"
        )
    return float(np.sqrt(np.mean((post_mean - truth) ** 2)))


def format_table(header, rows) -> str:
    """Aligned fixed-width text table: the header, a rule of dashes, then the rows."""
    cells = [[str(c) for c in row] for row in (header, *rows)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
