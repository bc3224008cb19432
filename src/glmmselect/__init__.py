"""Joint selection of fixed and random effects for Bayesian GLMMs.

Spike-and-slab indicators on fixed effects and on the diagonal of a
modified-Cholesky factorization of the random-effect covariance, fit with a
purpose-built Metropolis-within-Gibbs sampler (slice updates for continuous
coordinates, Laplace-proposal Metropolis-Hastings steps for the latent
random effects, exact Bernoulli updates for indicators).
"""

__version__ = "0.1.0"

from .cholesky import decompose_covariance
from .diagnostics import effective_sample_size, gelman_rubin
from .engine import GibbsEngine
from .errors import (
    ConfigurationError,
    DataError,
    DecompositionError,
    GlmmSelectError,
    NumericError,
    SamplerError,
    SpecValidationError,
)
from .families import Family
from .model import (
    BlockData,
    Dataset,
    Hyperparameters,
    ModelDims,
    ModelSpec,
    ParameterState,
    RandomBlock,
    SamplerSettings,
    linear_predictor,
    linear_predictor_all,
    total_log_likelihood,
)
from .ppc import mean_sd_scatter, replicate_data, rootogram
from .priors import sample_prior
from .report import (
    ModelLabel,
    SelectionReport,
    fixed_effect_rmse,
    top_models,
)
from .sampler import Trace, load_trace, run_chains, save_trace
from .simulate import (
    SimDesign,
    full_scale_design,
    run_grid,
    run_replication,
    scaled_design,
    simulate_dataset,
)
from .slicing import slice_update

__all__ = [name for name in dir() if not name.startswith("_")]
