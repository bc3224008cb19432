"""Synthetic Poisson designs and replication studies.

The full-scale design has l = q = 10 with six active fixed effects
(beta_1 = 2, beta_2..6 ~ Unif(-0.4, 0.4)) and active random effects
{1, 3, 6}; case 1 sets the remaining coefficients to 0, case 2 to 0.01.
A scaled variant shrinks everything for desk-scale runs.  Dataset
generation is deterministic given (base_seed, replicate).
"""

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .cholesky import decompose_covariance, project_constraints
from .errors import ConfigurationError, GlmmSelectError
from .families import ETA_CAP, Family
from .model import BlockData, Dataset, Hyperparameters, ModelSpec, RandomBlock, SamplerSettings, block_predictor
from .report import fixed_effect_rmse, modal_random_pattern, top_models
from .sampler import run_chains

__all__ = [
    "SimDesign",
    "SimTruth",
    "ReplicationResult",
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
    """Generator settings for one simulation scenario."""

    n: int = 60
    n_i: int = 10
    l: int = 10
    q: int = 10
    n_active_fixed: int = 6
    active_random: tuple = (0, 2, 5)
    omega: np.ndarray = field(default_factory=section3_omega)
    case: int = 1
    intercept_beta: float = 2.0
    uniform_half_width: float = 0.4
    base_seed: int = 0

    def __post_init__(self):
        if self.case not in (1, 2):
            raise ConfigurationError("case must be 1 or 2")
        omega = np.asarray(self.omega, dtype=float)
        if omega.shape != (self.q, self.q):
            raise ConfigurationError("omega shape must be (q, q)")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "active_random", tuple(self.active_random))
        if not 1 <= self.n_active_fixed <= self.l:
            raise ConfigurationError("n_active_fixed must be in [1, l]")

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


def full_scale_design(case: int = 1, base_seed: int = 0) -> SimDesign:
    return SimDesign(case=case, base_seed=base_seed)


def scaled_design(case: int = 1, base_seed: int = 0, n: int = 60, n_i: int = 10) -> SimDesign:
    """Desk-scale variant: l = q = 6, active fixed {1..4}, active random {1, 3}."""
    return SimDesign(
        n=n,
        n_i=n_i,
        l=6,
        q=6,
        n_active_fixed=4,
        active_random=(0, 2),
        omega=scaled_omega(6, (0, 2)),
        case=case,
        base_seed=base_seed,
    )


@dataclass(frozen=True)
class SimTruth:
    beta: np.ndarray
    fixed_mask: np.ndarray
    random_mask: np.ndarray
    omega: np.ndarray


def simulate_dataset(design: SimDesign, replicate: int) -> tuple[Dataset, SimTruth]:
    """Generate one replicate; deterministic given (base_seed, replicate)."""
    rng = np.random.default_rng([design.base_seed, replicate, 0])
    beta = np.full(design.l, design.inactive_value)
    beta[0] = design.intercept_beta
    hw = design.uniform_half_width
    beta[1 : design.n_active_fixed] = rng.uniform(-hw, hw, size=design.n_active_fixed - 1)

    n_obs = design.n * design.n_i
    X = rng.standard_normal((n_obs, design.l))
    X[:, 0] = 1.0
    Z = X[:, : design.q]
    groups = np.repeat(np.arange(design.n), design.n_i)

    factors = decompose_covariance(design.omega)
    lam_eff, gamma = project_constraints(factors, np.ones(design.q, dtype=np.int8))
    xi = rng.standard_normal((design.n, design.q))

    eta = X @ beta + block_predictor(Z, groups, xi, lam_eff[:, None] * gamma)
    n_clamped = int(np.sum(eta > ETA_CAP))
    if n_clamped:
        log.info("replicate %d: clamped %d linear predictors at %.1f", replicate, n_clamped, ETA_CAP)
    data = Dataset(
        y=Family("poisson").sample(rng, eta),
        X=X,
        blocks=(BlockData(Z=Z, groups=groups, n_groups=design.n),),
    )
    truth = SimTruth(
        beta=beta,
        fixed_mask=design.fixed_truth_mask(),
        random_mask=design.random_truth_mask(),
        omega=design.omega,
    )
    return data, truth


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


@dataclass
class ReplicationResult:
    """Per-replicate rows plus aggregates recomputable from them."""

    design: SimDesign
    rows: list  # dicts: replicate, mode, ok, modal label bits, flags, rmse

    def summary(self) -> dict:
        ok = [r for r in self.rows if r["ok"]]
        n_ok = len(ok)
        if n_ok == 0:
            return {"percent": float("nan"), "percent_random": float("nan"), "rmse": float("nan"), "n_ok": 0, "n_failed": len(self.rows)}
        return {
            "percent": 100.0 * sum(r["true_model"] for r in ok) / n_ok,
            "percent_random": 100.0 * sum(r["random_correct"] for r in ok) / n_ok,
            "rmse": float(np.mean([r["rmse"] for r in ok])),
            "n_ok": n_ok,
            "n_failed": len(self.rows) - n_ok,
        }

    def modal_label_counts(self) -> dict:
        counts = {}
        for r in self.rows:
            if r["ok"]:
                key = (r["modal_fixed"], r["modal_random"])
                counts[key] = counts.get(key, 0) + 1
        return counts


def _fit_one_replicate(design: SimDesign, spec: ModelSpec, replicate: int) -> list:
    """Simulate, fit in ``spec.mode`` and score one replicate; its row, as a one-row list."""
    data, truth = simulate_dataset(design, replicate)
    row = {"replicate": replicate, "mode": spec.mode, "ok": False}
    try:
        trace = run_chains(spec, data)
        rep = top_models(trace, k=1)
        modal = rep.modal
        rand_pattern = modal_random_pattern(trace, block=0)
        fixed_ok = modal.fixed == tuple(truth.fixed_mask.tolist())
        random_ok = rand_pattern == tuple(truth.random_mask.tolist())
        row.update(
            ok=True,
            modal_fixed=modal.fixed,
            modal_random=modal.random[0],
            marginal_modal_random=rand_pattern,
            true_model=bool(fixed_ok and modal.random[0] == tuple(truth.random_mask.tolist())),
            random_correct=bool(random_ok),
            rmse=fixed_effect_rmse(trace, truth.beta),
        )
    except GlmmSelectError as exc:  # a failed fit marks the replicate failed
        log.warning("replicate %d mode %s failed: %s", replicate, spec.mode, exc)
        row["error"] = str(exc)
    return [row]


def run_replication(
    design: SimDesign,
    spec: ModelSpec,
    n_replicates: int,
    workers: int = 1,
) -> ReplicationResult:
    """Simulate-fit-score over replicates in ``spec.mode``; embarrassingly parallel."""
    rows = []
    if workers > 1 and n_replicates > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_fit_one_replicate, design, spec, rep)
                for rep in range(n_replicates)
            ]
            for f in futures:
                rows.extend(f.result())
    else:
        for rep in range(n_replicates):
            rows.extend(_fit_one_replicate(design, spec, rep))
    return ReplicationResult(design=design, rows=rows)


def run_grid(
    design: SimDesign,
    spec: ModelSpec,
    grid,
    n_replicates: int,
    workers: int = 1,
) -> dict:
    """Replication study per (v, h) cell in ``spec.mode``, with shared replicate seeds.

    ``grid`` is an iterable of (v, h) pairs (v and nu vary together).
    Returns cells keyed (v, h) ready for :func:`glmmselect.report.grid_report`.
    """
    cells = {}
    for v, h in grid:
        hyper = replace(spec.hyper, v=v, nu=v, h=h)
        cell_spec = replace(spec, hyper=hyper)
        summ = run_replication(design, cell_spec, n_replicates, workers=workers).summary()
        cells[(v, h)] = {
            "percent": summ["percent"],
            "rmse": summ["rmse"],
            "n_ok": summ["n_ok"],
            "n_failed": summ["n_failed"],
        }
    return cells
