"""Multi-chain orchestration and trace storage.

Chains are initialized from the prior with sub-seeds ``base_seed + chain``;
adaptation scans tune slice widths and are then frozen before burn-in.
Recorded draws keep everything downstream consumers need (coefficients,
indicators, factor values, latent effects, variances, log posterior).
"""

import csv
import logging
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cholesky import tril_pairs
from .engine import GibbsEngine
from .errors import ConfigurationError, SamplerError
from .families import scale_field
from .ioutil import atomic_write_text
from .model import Dataset, ModelDims, ModelSpec

__all__ = ["ChainTrace", "Trace", "run_chains", "save_trace", "load_trace"]

log = logging.getLogger(__name__)


@dataclass
class ChainTrace:
    """Recorded draws of one chain (arrays indexed by recorded iteration)."""

    seed: int
    beta: np.ndarray                  # (K, l) raw values
    J: np.ndarray                     # (K, l) 0/1
    lam: list                         # per block: (K, q)
    include: list                     # per block: (K, q) 0/1
    r: list                           # per block: (K, q(q-1)/2)
    xi: list                          # per block: (K, n_groups, q)
    kappa: list                       # per block: (K, q)
    log_posterior: np.ndarray         # (K,)
    dispersion: np.ndarray | None = None
    sigma2: np.ndarray | None = None
    stepout_fallbacks: int = 0

    @staticmethod
    def zeros(seed: int, n: int, dims: ModelDims, scale: str | None) -> "ChainTrace":
        """A chain of ``n`` zero draws, with the family scale's array if any."""
        chain = ChainTrace(
            seed=seed,
            beta=np.zeros((n, dims.l)),
            J=np.zeros((n, dims.l), dtype=np.int8),
            lam=[np.zeros((n, q)) for q, _ in dims.blocks],
            include=[np.zeros((n, q), dtype=np.int8) for q, _ in dims.blocks],
            r=[np.zeros((n, q * (q - 1) // 2)) for q, _ in dims.blocks],
            xi=[np.zeros((n, n_g, q)) for q, n_g in dims.blocks],
            kappa=[np.zeros((n, q)) for q, _ in dims.blocks],
            log_posterior=np.zeros(n),
        )
        if scale is not None:
            setattr(chain, scale, np.zeros(n))
        return chain

    @property
    def n_recorded(self) -> int:
        return self.beta.shape[0]

    def beta_eff(self) -> np.ndarray:
        return self.beta * self.J


@dataclass
class Trace:
    """All chains, with the dimensions and family kind that lay out their columns."""

    chains: list
    dims: ModelDims
    family_kind: str = "poisson"

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def n_recorded(self) -> int:
        return sum(c.n_recorded for c in self.chains)

    def pooled_beta_eff(self) -> np.ndarray:
        return np.concatenate([c.beta_eff() for c in self.chains], axis=0)

    def pooled(self, name: str, block: int | None = None) -> np.ndarray:
        if block is None:
            return np.concatenate([getattr(c, name) for c in self.chains], axis=0)
        return np.concatenate([getattr(c, name)[block] for c in self.chains], axis=0)

    def scalar_matrix(self, name: str) -> np.ndarray:
        """(chains, K) matrix of one named scalar column (diagnostics input)."""
        for entry in trace_schema(self.dims, self.family_kind):
            if entry[0] == name:
                return np.stack([_column(c, *entry[1:]) for c in self.chains], axis=0)
        raise ConfigurationError(f"unknown trace column {name!r}")

    def column_names(self) -> list:
        return [entry[0] for entry in trace_schema(self.dims, self.family_kind)]


def trace_schema(dims: ModelDims, family_kind: str) -> list:
    """Every scalar trace column in CSV order, as (name, field, block, index).

    ``field`` is a ChainTrace attribute, ``block`` the random-block position
    in its per-block list (None for per-chain arrays), and ``index`` the
    position inside one recorded draw.
    """
    schema = [("log_posterior", "log_posterior", None, ())]
    schema += [(f"beta{p + 1}", "beta", None, (p,)) for p in range(dims.l)]
    schema += [(f"J{p + 1}", "J", None, (p,)) for p in range(dims.l)]
    for bi, (q, n_groups) in enumerate(dims.blocks):
        tag = bi + 1
        schema += [(f"lam{tag}_{k + 1}", "lam", bi, (k,)) for k in range(q)]
        schema += [(f"I{tag}_{k + 1}", "include", bi, (k,)) for k in range(q)]
        schema += [
            (f"r{tag}_{u + 1}_{v + 1}", "r", bi, (j,))
            for j, (u, v) in enumerate(zip(*tril_pairs(q)))
        ]
        schema += [(f"kappa{tag}_{k + 1}", "kappa", bi, (k,)) for k in range(q)]
        schema += [
            (f"xi{tag}_g{i + 1}_{k + 1}", "xi", bi, (i, k))
            for i in range(n_groups)
            for k in range(q)
        ]
    field = scale_field(family_kind)
    if field is not None:
        schema.append((field, field, None, ()))
    return schema


def _column(chain: ChainTrace, field: str, block, index: tuple) -> np.ndarray:
    """View of one trace column inside the chain's arrays (writable)."""
    arr = getattr(chain, field)
    if block is not None:
        arr = arr[block]
    return arr[(slice(None),) + index]


def chain_columns(chain: ChainTrace, dims: ModelDims, family_kind: str) -> dict:
    """Flatten one chain into named scalar columns, in stable order."""
    return {
        name: _column(chain, field, block, index)
        for name, field, block, index in trace_schema(dims, family_kind)
    }


def _run_single_chain(spec: ModelSpec, data: Dataset, chain: int) -> ChainTrace:
    settings = spec.sampler
    seed = settings.seed + chain
    rng = np.random.default_rng(seed)
    engine = GibbsEngine(spec, data, rng=rng)
    dims = engine.dims

    engine.adapting = True
    for _ in range(settings.adapt):
        engine.scan()
    engine.adapting = False
    for _ in range(settings.burnin):
        engine.scan()

    scale = scale_field(spec.family.kind)
    rec = ChainTrace.zeros(seed, settings.kept // settings.thin, dims, scale)
    idx = 0
    for it in range(settings.kept):
        engine.scan()
        if (it + 1) % settings.thin == 0:
            st = engine.state
            rec.beta[idx] = st.beta
            rec.J[idx] = st.J
            for bi, bs in enumerate(st.blocks):
                for name in ("lam", "include", "r", "xi", "kappa"):
                    getattr(rec, name)[bi][idx] = getattr(bs, name)
            rec.log_posterior[idx] = engine.log_posterior()
            if scale is not None:
                getattr(rec, scale)[idx] = getattr(st, scale)
            idx += 1
    rec.stepout_fallbacks = sum(s.fallbacks for s in engine.stats.values())
    if rec.stepout_fallbacks:
        log.info("chain %d: %d slice step-out fallbacks", chain, rec.stepout_fallbacks)
    return rec


def run_chains(
    spec: ModelSpec,
    data: Dataset,
    workers: int = 1,
) -> Trace:
    """Run all chains and collect recorded draws.

    Chains are independent; with ``workers > 1`` they run in separate
    processes.  Results are identical either way.
    """
    dims = ModelDims.of(spec, data)
    n_chains = spec.sampler.chains
    try:
        if workers > 1 and n_chains > 1:
            with ProcessPoolExecutor(max_workers=min(workers, n_chains)) as pool:
                futures = [
                    pool.submit(_run_single_chain, spec, data, c)
                    for c in range(n_chains)
                ]
                chains = [f.result() for f in futures]
        else:
            chains = [_run_single_chain(spec, data, c) for c in range(n_chains)]
    except SamplerError as exc:
        raise SamplerError(f"chain failed: {exc}") from exc
    return Trace(chains=chains, dims=dims, family_kind=spec.family.kind)


def save_trace(trace: Trace, outdir: str) -> list:
    """One CSV per chain: iteration, log_posterior, then every scalar column.

    Values are written in their shortest round-trip form (``repr``), as
    :func:`glmmselect.ioutil.format_float` does.  Chain files of an earlier,
    longer trace in ``outdir`` are removed, so :func:`load_trace` reads this
    trace alone.
    """
    schema = trace_schema(trace.dims, trace.family_kind)
    header = ",".join(["iteration"] + [entry[0] for entry in schema])
    paths = []
    for ci, chain in enumerate(trace.chains):
        matrix = np.column_stack([_column(chain, *entry[1:]) for entry in schema]).astype(float)
        lines = [header]
        lines += [f"{i + 1},{','.join(map(repr, row))}" for i, row in enumerate(matrix.tolist())]
        path = os.path.join(outdir, f"chain_{ci + 1}.csv")
        atomic_write_text(path, "\n".join(lines) + "\n")
        paths.append(path)
    for name in os.listdir(outdir):
        match = re.fullmatch(r"chain_(\d+)\.csv", name)
        if match and int(match.group(1)) > len(trace.chains):
            os.remove(os.path.join(outdir, name))
    return paths


def _value_problem(field: str, values: np.ndarray) -> str | None:
    """What is wrong with one trace column read from a file, or None."""
    if not np.all(np.isfinite(values)):
        return "has non-finite values"
    if field in ("J", "include") and not np.all((values == 0.0) | (values == 1.0)):
        return "holds values other than 0/1"
    if field == "lam" and np.any(values < 0.0):
        return "has negative values"
    if field in ("kappa", "dispersion", "sigma2") and np.any(values <= 0.0):
        return "has non-positive values"
    return None


def load_trace(outdir: str, spec: ModelSpec, data: Dataset) -> Trace:
    """Rebuild a Trace from chain CSVs written by :func:`save_trace`.

    A missing column, or a value that no sampler state can hold (non-finite,
    negative lam, non-positive kappa or family scale, an indicator other
    than 0/1), raises ConfigurationError naming the file and column.
    """
    dims = ModelDims.of(spec, data)
    chains = []
    ci = 1
    while True:
        path = os.path.join(outdir, f"chain_{ci}.csv")
        if not os.path.exists(path):
            break
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [row for row in reader]
        position = {name: j for j, name in enumerate(header)}
        chain = ChainTrace.zeros(spec.sampler.seed + ci - 1, len(rows), dims, scale_field(spec.family.kind))
        for name, field, block, index in trace_schema(dims, spec.family.kind):
            if name not in position:
                raise ConfigurationError(f"{path}: missing column {name!r}")
            j = position[name]
            try:
                values = np.array([float(r[j]) for r in rows])
            except (IndexError, ValueError):
                raise ConfigurationError(f"{path}: column {name!r} has a missing or non-numeric value") from None
            problem = _value_problem(field, values)
            if problem:
                raise ConfigurationError(f"{path}: column {name!r} {problem}")
            _column(chain, field, block, index)[:] = values
        chains.append(chain)
        ci += 1
    if not chains:
        raise ConfigurationError(f"no chain CSVs found under {outdir}")
    return Trace(chains=chains, dims=dims, family_kind=spec.family.kind)
