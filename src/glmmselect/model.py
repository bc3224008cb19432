"""Model definition: data container, model configuration, parameter state,
and the reparameterized linear predictor / log-likelihood.

The linear predictor for observation j of subject i is

    eta = X' (J * beta) + sum_blocks Z' Lambda_eff Gamma_eff xi_group + offset

where J are fixed-effect inclusion indicators and the effective factors come
from :mod:`glmmselect.cholesky` given the random-effect indicators I.
:func:`linear_predictor` is the one place that sum is written; the Gibbs
engine caches the whole sum and rebuilds it from :func:`block_predictor`.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .cholesky import mask_factors
from .errors import ConfigurationError
from .families import Family

__all__ = [
    "Dataset",
    "BlockData",
    "RandomBlock",
    "Hyperparameters",
    "SamplerSettings",
    "ModelSpec",
    "BlockState",
    "ParameterState",
    "ModelDims",
    "MODES",
    "check_int",
    "block_predictor",
    "linear_predictor",
    "linear_predictor_all",
    "total_log_likelihood",
]

MODES = ("ssvs-full", "ssvs-diagonal", "no-selection")


def check_int(name: str, value, low: int | None = None) -> int:
    """``value`` if it is an ``int`` (not a ``bool``) of at least ``low``, else ConfigurationError naming ``name``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigurationError(f"{name} must be at least {low}, got {value}")
    return value


@dataclass(frozen=True)
class BlockData:
    """Per-observation random design and grouping for one random-effect block."""

    Z: np.ndarray          # (n_obs, q)
    groups: np.ndarray     # (n_obs,) dense 0-based subject index
    n_groups: int

    def __post_init__(self):
        object.__setattr__(self, "Z", np.ascontiguousarray(self.Z, dtype=float))
        object.__setattr__(self, "groups", np.asarray(self.groups, dtype=np.int64))
        if self.Z.ndim != 2:
            raise ConfigurationError("Z must be 2-dimensional")
        if self.groups.shape != (self.Z.shape[0],):
            raise ConfigurationError("groups length must match number of observations")
        if not np.all(np.isfinite(self.Z)):
            raise ConfigurationError("random design columns must be finite")
        if self.n_groups < 1 or self.groups.min(initial=0) < 0 or (
            self.groups.size and self.groups.max() >= self.n_groups
        ):
            raise ConfigurationError("group indices must lie in [0, n_groups)")

    @property
    def q(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Column-oriented observations: response, fixed design, random blocks, offset."""

    y: np.ndarray                       # (n_obs,)
    X: np.ndarray                       # (n_obs, l)
    blocks: tuple[BlockData, ...] = ()
    offset: np.ndarray | None = None    # (n_obs,), natural-log scale

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise ConfigurationError("X must be (n_obs, l) matching y")
        if not np.all(np.isfinite(self.X)):
            raise ConfigurationError("fixed design columns must be finite")
        for b in self.blocks:
            if b.Z.shape[0] != self.y.shape[0]:
                raise ConfigurationError("block design rows must match n_obs")
        if self.offset is not None:
            off = np.asarray(self.offset, dtype=float)
            if off.shape != self.y.shape:
                raise ConfigurationError("offset length must match n_obs")
            if not np.all(np.isfinite(off)):
                raise ConfigurationError("offset must be finite")
            object.__setattr__(self, "offset", off)

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @property
    def l(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class RandomBlock:
    """Named random-effect block of a model spec (column-level description)."""

    group: str
    columns: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if len(self.columns) < 1:
            raise ConfigurationError("random block needs at least one column")


@dataclass(frozen=True)
class Hyperparameters:
    """Prior hyperparameters.

    h            slab scale multiplier for the random-effect standard deviations
    v, nu        inverse-gamma controls of the slab variance: tau2 ~ IG(nu/2, v/2)
    g_shrink     fixed-effect prior precision multiplier: beta ~ N(0, sigma2/(g*theta))
    prior_inclusion  Bernoulli prior probability that an effect is included
    """

    h: float = 1.0
    v: float = 0.01
    nu: float = 0.01
    g_shrink: float = 1.0
    prior_inclusion: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not -math.inf < value < math.inf:
                raise ConfigurationError(f"hyperparameter {f.name} must be a finite number, got {value!r}")
        for name in ("h", "v", "nu", "g_shrink"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"hyperparameter {name} must be positive")
        if not 0.0 < self.prior_inclusion < 1.0:
            raise ConfigurationError("prior_inclusion must lie in (0, 1)")


@dataclass(frozen=True)
class SamplerSettings:
    """Chain layout: chain count, scan counts per phase, thinning and base seed.

    Each chain runs ``adapt`` scans that tune its slice widths (see
    :mod:`glmmselect.engine`), then ``burnin`` scans, then ``kept`` scans of
    which every ``thin``-th is recorded, so ``kept`` must be at least
    ``thin``.  Chain c is seeded ``seed + c``.
    """

    chains: int = 3
    adapt: int = 1000
    burnin: int = 1000
    kept: int = 3000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        # numpy seeds must be non-negative
        low = {"chains": 1, "adapt": 0, "burnin": 0, "kept": 0, "thin": 1, "seed": 0}
        for f in fields(self):
            check_int(f.name, getattr(self, f.name), low[f.name])
        if self.kept < self.thin:
            raise ConfigurationError(f"kept must be at least thin ({self.thin}) to record a draw, got {self.kept}")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model description.

    ``fixed_effects`` lists design column names (by convention the first is an
    intercept; the literal name "1" denotes a constant column).  Each random
    block names its grouping column and design columns.  ``mode`` selects the
    sampler variant: "ssvs-full" (lower-triangular Gamma), "ssvs-diagonal"
    (Gamma = I), or "no-selection" (all indicators fixed at 1).
    """

    family: Family
    response: str
    fixed_effects: tuple[str, ...]
    random_blocks: tuple[RandomBlock, ...] = ()
    offset: str | None = None
    hyper: Hyperparameters = field(default_factory=Hyperparameters)
    sampler: SamplerSettings = field(default_factory=SamplerSettings)
    mode: str = "ssvs-full"

    def __post_init__(self):
        object.__setattr__(self, "fixed_effects", tuple(self.fixed_effects))
        object.__setattr__(self, "random_blocks", tuple(self.random_blocks))
        if len(self.fixed_effects) < 1:
            raise ConfigurationError("need at least one fixed-effect column")
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}; choose from {MODES}")

    @property
    def l(self) -> int:
        return len(self.fixed_effects)


@dataclass(frozen=True)
class ModelDims:
    """Shape summary used by prior sampling and state validation."""

    l: int
    blocks: tuple[tuple[int, int], ...]  # (q, n_groups) per block

    @staticmethod
    def of(spec: ModelSpec, data: Dataset) -> "ModelDims":
        if data.l != spec.l:
            raise ConfigurationError(
                f"data has {data.l} fixed columns, spec expects {spec.l}"
            )
        if len(data.blocks) != len(spec.random_blocks):
            raise ConfigurationError("data and spec disagree on number of random blocks")
        for b, rb in zip(data.blocks, spec.random_blocks):
            if b.q != len(rb.columns):
                raise ConfigurationError(
                    f"block {rb.group!r}: data has {b.q} columns, spec lists {len(rb.columns)}"
                )
        return ModelDims(l=data.l, blocks=tuple((b.q, b.n_groups) for b in data.blocks))


@dataclass
class BlockState:
    """Sampler state for one random-effect block."""

    lam: np.ndarray     # (q,) raw slab values, >= 0
    include: np.ndarray  # (q,) 0/1
    tau2: np.ndarray    # (q,) slab variances
    r: np.ndarray       # (q*(q-1)/2,) raw subdiagonal values
    xi: np.ndarray      # (n_groups, q) latent effects
    kappa: np.ndarray   # (q,) latent-effect variances
    m: np.ndarray       # (q,) rate latents for kappa

    def copy(self) -> "BlockState":
        return BlockState(**{f.name: getattr(self, f.name).copy() for f in fields(self)})


@dataclass
class ParameterState:
    """One point in the sampler's state space (raw values plus indicators)."""

    beta: np.ndarray     # (l,) raw coefficients
    J: np.ndarray        # (l,) 0/1 inclusion indicators
    theta: np.ndarray    # (l,) positive precision latents
    phi: np.ndarray      # (l,) positive rate latents
    blocks: list[BlockState]
    dispersion: float | None = None   # NB overdispersion, sampled
    sigma2: float = 1.0               # gaussian residual variance; fixed 1 otherwise

    def beta_eff(self) -> np.ndarray:
        return self.beta * self.J

    def copy(self) -> "ParameterState":
        """A copy that shares no array and no block with this state."""

        def copied(value):
            if isinstance(value, list):
                return [b.copy() for b in value]
            return value.copy() if isinstance(value, np.ndarray) else value

        return ParameterState(**{f.name: copied(getattr(self, f.name)) for f in fields(self)})

    def check_dims(self, dims: ModelDims) -> None:
        """Raise ConfigurationError unless every array of the state has the shape ``dims`` gives it."""

        def check(name, value, shape):
            if np.shape(value) != shape:
                raise ConfigurationError(f"{name} has shape {np.shape(value)}, the model needs {shape}")

        for name in ("beta", "J", "theta", "phi"):
            check(name, getattr(self, name), (dims.l,))
        if len(self.blocks) != len(dims.blocks):
            raise ConfigurationError("state has wrong number of random blocks")
        for bi, (bs, (q, n_groups)) in enumerate(zip(self.blocks, dims.blocks)):
            shapes = {"r": (q * (q - 1) // 2,), "xi": (n_groups, q)}
            for f in fields(bs):
                check(f"block {bi} {f.name}", getattr(bs, f.name), shapes.get(f.name, (q,)))


def block_predictor(Z: np.ndarray, groups: np.ndarray, xi: np.ndarray, loadings: np.ndarray) -> np.ndarray:
    """One random block's term of eta: row j gets Z[j] . (loadings @ xi[groups[j]]).

    ``loadings`` is Lambda_eff Gamma_eff (q, q) and ``xi`` the (n_groups, q)
    latent effects.
    """
    rho = xi @ loadings.T   # (n_groups, q) effect vectors
    return np.einsum("ij,ij->i", Z, rho[groups])


def linear_predictor(data: Dataset, beta_eff: np.ndarray, blocks) -> np.ndarray:
    """X beta_eff + the term of each random block + offset, for every observation.

    ``blocks`` holds one raw ``(lam, r, include, xi)`` per block of ``data``;
    :func:`~glmmselect.cholesky.mask_factors` masks the factors.
    """
    eta = data.X @ beta_eff
    for bdata, (lam, r, include, xi) in zip(data.blocks, blocks):
        lam_eff, gamma = mask_factors(lam, r, include)
        eta = eta + block_predictor(bdata.Z, bdata.groups, xi, lam_eff[:, None] * gamma)
    if data.offset is not None:
        eta = eta + data.offset
    return eta


def linear_predictor_all(spec: ModelSpec, state: ParameterState, data: Dataset) -> np.ndarray:
    """Linear predictor of a state for every observation, using effective values."""
    state.check_dims(ModelDims.of(spec, data))
    blocks = [(bs.lam, bs.r, bs.include, bs.xi) for bs in state.blocks]
    return linear_predictor(data, state.beta_eff(), blocks)


def total_log_likelihood(spec: ModelSpec, state: ParameterState, data: Dataset) -> float:
    """Sum of per-observation log-likelihoods, in fixed observation order."""
    if data.n_obs == 0:
        return 0.0
    eta = linear_predictor_all(spec, state, data)
    return float(np.sum(spec.family.log_likelihood(data.y, eta, spec.family.scale_of(state))))
