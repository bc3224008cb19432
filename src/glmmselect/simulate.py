"""Synthetic Poisson designs and replication studies.

The full-scale design has l = q = 10 with six active fixed effects
(beta_1 = 2, beta_2..6 ~ Unif(-0.4, 0.4)) and active random effects
{1, 3, 6}; case 1 sets the remaining coefficients to 0, case 2 to 0.01.
A scaled variant shrinks everything for desk-scale runs.  Dataset
generation is deterministic given (base_seed, replicate); the true
coefficients come back with the data, and the true inclusion masks and
covariance are the design's own (``fixed_truth_mask``, ``random_truth_mask``
and ``omega``).  A replicate's random-effect term takes the model's one
road: the (lam, r) of ``cholesky.decompose_covariance(omega)`` -> live_pairs
-> mask_factors -> ``model.block_term`` -> ``model.linear_predictor``.
A study simulates each replicate once and fits it under every cell spec, in
one process pool: ``run_replication`` has one cell, ``run_grid`` one per (v, h).
"""

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .cholesky import decompose_covariance
from .errors import ConfigurationError, GlmmSelectError
from .families import ETA_CAP, Family
from .model import BlockData, Dataset, Hyperparameters, ModelSpec, RandomBlock, SamplerSettings, block_term, check_int
from .model import linear_predictor
from .report import effect_list, fixed_effect_rmse, indicator_matrix, ranked_patterns, top_models
from .sampler import process_map, run_chains

__all__ = [
    "SimDesign",
    "ReplicationResult",
    "STUDY_COLUMNS", "SUMMARY_COLUMNS", "GRID_COLUMNS", "MODAL_MODELS_COLUMNS",
    "section3_omega",
    "scaled_omega",
    "full_scale_design",
    "scaled_design",
    "simulate_dataset",
    "build_model_spec",
    "run_replication",
    "run_grid",
]

log = logging.getLogger(__name__)

# beta_1, and the half-width of the uniform law of beta_2..n_active_fixed
TRUE_INTERCEPT = 2.0
SLOPE_HALF_WIDTH = 0.4

_ACTIVE_BLOCK_VALUES = {
    (0, 0): 0.08,
    (0, 1): 0.04,
    (0, 2): 0.02,
    (1, 1): 0.15,
    (1, 2): 0.09,
    (2, 2): 0.06,
}


def section3_omega() -> np.ndarray:
    """The 10x10 random-effect covariance with active block {1, 3, 6}."""
    return scaled_omega(10, (0, 2, 5))


def scaled_omega(q: int, active: tuple) -> np.ndarray:
    """Embed the reference active-block values at the given indices of a q x q matrix."""
    if len(active) > 3:
        raise ConfigurationError("reference block provides at most 3 active effects")
    omega = np.zeros((q, q))
    for (a, b), val in _ACTIVE_BLOCK_VALUES.items():
        if a < len(active) and b < len(active):
            omega[active[a], active[b]] = val
            omega[active[b], active[a]] = val
    return omega


@dataclass(frozen=True)
class SimDesign:
    """Generator settings for one simulation scenario.

    ``active_random`` is derived, not set: the effects (0-based) that
    :func:`~glmmselect.cholesky.decompose_covariance` keeps from ``omega``.
    """

    n: int = 60
    n_i: int = 10
    l: int = 10
    q: int = 10
    n_active_fixed: int = 6
    omega: np.ndarray = field(default_factory=section3_omega)
    case: int = 1
    base_seed: int = 0
    active_random: tuple = field(init=False)

    def __post_init__(self):
        for name in ("n", "n_i", "l", "q", "n_active_fixed", "case", "base_seed"):
            check_int(name, getattr(self, name), 0 if name == "base_seed" else 1)
        if self.case not in (1, 2):
            raise ConfigurationError("case must be 1 or 2")
        for name in ("q", "n_active_fixed"):
            if getattr(self, name) > self.l:
                raise ConfigurationError(f"{name} must be in [1, l]")
        try:
            omega = np.asarray(self.omega, dtype=float)
        except (TypeError, ValueError):
            raise ConfigurationError("omega must be a numeric matrix") from None
        if omega.shape != (self.q, self.q):
            raise ConfigurationError("omega shape must be (q, q)")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "active_random", tuple(np.flatnonzero(decompose_covariance(omega)[0]).tolist()))

    @property
    def inactive_value(self) -> float:
        return 0.0 if self.case == 1 else 0.01

    def fixed_truth_mask(self) -> np.ndarray:
        mask = np.zeros(self.l, dtype=np.int8)
        mask[: self.n_active_fixed] = 1
        return mask

    def random_truth_mask(self) -> np.ndarray:
        mask = np.zeros(self.q, dtype=np.int8)
        mask[list(self.active_random)] = 1
        return mask


def full_scale_design(base_seed: int = 0) -> SimDesign:
    return SimDesign(base_seed=base_seed)


def scaled_design() -> SimDesign:
    """Desk-scale variant: l = q = 6, active fixed {1..4}, active random {1, 3}."""
    return SimDesign(l=6, q=6, n_active_fixed=4, omega=scaled_omega(6, (0, 2)))


def simulate_dataset(design: SimDesign, replicate: int) -> tuple[Dataset, np.ndarray]:
    """One replicate's dataset and its true coefficients; deterministic given (base_seed, replicate)."""
    rng = np.random.default_rng([design.base_seed, replicate, 0])
    beta = np.full(design.l, design.inactive_value)
    beta[0] = TRUE_INTERCEPT
    beta[1 : design.n_active_fixed] = rng.uniform(-SLOPE_HALF_WIDTH, SLOPE_HALF_WIDTH, size=design.n_active_fixed - 1)

    n_obs = design.n * design.n_i
    X = rng.standard_normal((n_obs, design.l))
    X[:, 0] = 1.0
    bdata = BlockData(Z=X[:, : design.q], groups=np.repeat(np.arange(design.n), design.n_i), n_groups=design.n)

    lam, r = decompose_covariance(design.omega)
    xi = rng.standard_normal((design.n, design.q))

    eta = linear_predictor(X, beta, [block_term(bdata, lam, r, np.ones(design.q), xi)])
    n_clamped = int(np.sum(eta > ETA_CAP))
    if n_clamped:
        log.info("replicate %d: clamped %d linear predictors at %.1f", replicate, n_clamped, ETA_CAP)
    return Dataset(y=Family("poisson").sample(rng, eta), X=X, blocks=(bdata,)), beta


def build_model_spec(
    design: SimDesign,
    mode: str = "ssvs-diagonal",
    hyper: Hyperparameters | None = None,
    sampler: SamplerSettings | None = None,
) -> ModelSpec:
    """Model spec matching a simulated dataset's layout."""
    cols = tuple(f"x{j + 1}" for j in range(design.l))
    return ModelSpec(
        family=Family(kind="poisson"),
        response="y",
        fixed_effects=cols,
        random_blocks=(RandomBlock(group="subject", columns=cols[: design.q]),),
        hyper=hyper if hyper is not None else Hyperparameters(),
        sampler=sampler if sampler is not None else SamplerSettings(),
        mode=mode,
    )


# the columns of a study table row, after the row's own keys (mode, or v and h)
STUDY_COLUMNS = ("percent_true_model", "percent_random_correct", "mean_rmse", "n_ok", "n_failed")
# summary.csv, grid.csv (the rows of run_grid) and modal_models.csv (of ReplicationResult.modal_models)
SUMMARY_COLUMNS = ("mode", *STUDY_COLUMNS)
GRID_COLUMNS = ("v", "h", *STUDY_COLUMNS)
MODAL_MODELS_COLUMNS = ("fixed_effects", "random_effects", "count", "percent")


@dataclass
class ReplicationResult:
    """Per-replicate rows plus aggregates recomputable from them."""

    rows: list  # dicts: replicate, mode, ok, modal label bits, flags, rmse

    def summary(self) -> dict:
        """The study table's values, keyed by :data:`STUDY_COLUMNS` in order; NaN where no replicate finished."""
        ok = [r for r in self.rows if r["ok"]]
        n_ok = len(ok)
        rates = (float("nan"),) * 3
        if ok:
            rates = (
                100.0 * sum(r["true_model"] for r in ok) / n_ok,
                100.0 * sum(r["random_correct"] for r in ok) / n_ok,
                float(np.mean([r["rmse"] for r in ok])),
            )
        return dict(zip(STUDY_COLUMNS, (*rates, n_ok, len(self.rows) - n_ok)))

    def modal_models(self) -> list:
        """Rows under :data:`MODAL_MODELS_COLUMNS`: the finished replicates' modal models, by ``ranked_patterns``."""
        ok = [r for r in self.rows if r["ok"]]
        if not ok:
            return []
        l = len(ok[0]["modal_fixed"])
        patterns, counts = ranked_patterns(np.array([r["modal_fixed"] + r["modal_random"] for r in ok]))
        return [
            (effect_list(pattern[:l]), effect_list(pattern[l:]), cnt, round(100.0 * cnt / len(ok), 2))
            for pattern, cnt in zip(patterns.tolist(), counts.tolist())
        ]


def _fit_one_replicate(design: SimDesign, specs: list, replicate: int) -> list:
    """Simulate one replicate once, then fit and score it under each spec in order; one row per spec."""
    data, beta = simulate_dataset(design, replicate)
    true_fixed = tuple(design.fixed_truth_mask().tolist())
    true_random = tuple(design.random_truth_mask().tolist())
    rows = []
    for spec in specs:
        row = {"replicate": replicate, "mode": spec.mode, "ok": False}
        try:
            trace = run_chains(spec, data)
            modal = top_models(trace).modal
            block0, _ = ranked_patterns(indicator_matrix(trace)[:, design.l : design.l + design.q])
            rand_pattern = tuple(block0[0].tolist())
            row.update(
                ok=True,
                modal_fixed=modal.fixed,
                modal_random=modal.random[0],
                true_model=modal.fixed == true_fixed and modal.random[0] == true_random,
                random_correct=rand_pattern == true_random,
                rmse=fixed_effect_rmse(trace, beta),
            )
        except GlmmSelectError as exc:  # a failed fit marks this spec's row failed
            log.warning("replicate %d mode %s failed: %s", replicate, spec.mode, exc)
            row["error"] = str(exc)
        rows.append(row)
    return rows


def _run_study(design: SimDesign, specs: list, n_replicates: int, workers: int) -> list:
    """One ReplicationResult per spec, from one process_map over the replicates."""
    per_replicate = process_map(_fit_one_replicate, [(design, specs, rep) for rep in range(n_replicates)], workers)
    return [ReplicationResult(rows=[rows[cell] for rows in per_replicate]) for cell in range(len(specs))]


def run_replication(design: SimDesign, spec: ModelSpec, n_replicates: int, workers: int = 1) -> ReplicationResult:
    """Simulate-fit-score over replicates in ``spec.mode``: the study of the one cell ``spec``."""
    return _run_study(design, [spec], n_replicates, workers)[0]


def run_grid(design: SimDesign, spec: ModelSpec, grid, n_replicates: int, workers: int = 1) -> list:
    """One study over the (v, h) cells in ``spec.mode``: the cells share each replicate's dataset and the pool.

    ``grid`` is an iterable of (v, h) pairs (v and nu vary together).
    Returns the grid table: one row under :data:`GRID_COLUMNS` per cell,
    sorted by (h, v).
    """
    cells = sorted(grid, key=lambda vh: (vh[1], vh[0]))
    specs = [replace(spec, hyper=replace(spec.hyper, v=v, nu=v, h=h)) for v, h in cells]
    results = _run_study(design, specs, n_replicates, workers)
    return [(v, h, *result.summary().values()) for (v, h), result in zip(cells, results)]
