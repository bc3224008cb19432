"""Multi-chain orchestration and trace storage.

Chain c, seeded with the sampler seed plus c, starts at an overdispersed ridge-IRLS
point (:mod:`glmmselect.engine`); adaptation scans tune slice widths, frozen before burn-in.

Each chain's recorded draws are one ``(K, n_columns)`` float matrix, one row
per kept draw.  :func:`trace_layout` is the one description of its columns:
log_posterior, beta, J, then per random block lam, I, r, kappa and xi
(group-major, effect-minor), then the family scale if the kind has one.
Recording concatenates the state's raveled fields in that order,
:class:`ChainTrace` reads each field as a view into the matrix, and a chain
CSV is the matrix under a header of the column names, with an iteration
column in front.
"""

import logging
import os
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cholesky import tril_pairs
from .engine import GibbsEngine
from .errors import ConfigurationError, SamplerError
from .families import Family
from .ioutil import parse_floats, read_csv, write_csv
from .model import Dataset, ModelDims, ModelSpec

__all__ = ["ChainTrace", "Trace", "trace_layout", "run_chains", "save_trace", "load_trace"]

log = logging.getLogger(__name__)


def trace_layout(dims: ModelDims, family: Family) -> list:
    """Every trace field in column order, as (field, block, shape, column names).

    ``block`` is the random-block position (None for per-chain fields) and
    ``shape`` the shape of one draw; its raveled values fill the named columns.
    The family's scale, if its kind has one, is the last field.
    """
    layout = [
        ("log_posterior", None, (), ["log_posterior"]),
        ("beta", None, (dims.l,), [f"beta{p + 1}" for p in range(dims.l)]),
        ("J", None, (dims.l,), [f"J{p + 1}" for p in range(dims.l)]),
    ]
    for bi, (q, n_groups) in enumerate(dims.blocks):
        tag = bi + 1
        pairs = list(zip(*tril_pairs(q)))
        layout += [
            ("lam", bi, (q,), [f"lam{tag}_{k + 1}" for k in range(q)]),
            ("include", bi, (q,), [f"I{tag}_{k + 1}" for k in range(q)]),
            ("r", bi, (len(pairs),), [f"r{tag}_{u + 1}_{v + 1}" for u, v in pairs]),
            ("kappa", bi, (q,), [f"kappa{tag}_{k + 1}" for k in range(q)]),
            ("xi", bi, (n_groups, q), [f"xi{tag}_g{i + 1}_{k + 1}" for i in range(n_groups) for k in range(q)]),
        ]
    if family.scale is not None:
        layout.append((family.scale.field, None, (), [family.scale.field]))
    return layout


class ChainTrace:
    """Recorded draws of one chain: the matrix ``values`` and a view into it per field.

    ``beta``, ``J`` and ``log_posterior`` (and ``dispersion`` or ``sigma2``
    where the family has that scale; None where it has not) are arrays with a
    leading draw axis; ``lam``, ``include``, ``r``, ``kappa`` and ``xi`` are
    lists of them, one per random block.  Indicators are held as 0.0/1.0.
    """

    def __init__(self, values: np.ndarray, layout: list):
        self.values = values
        self.layout = layout
        self.dispersion = self.sigma2 = None
        self.lam, self.include, self.r, self.kappa, self.xi = [], [], [], [], []
        start = 0
        for field, block, shape, names in layout:
            view = values[:, start : start + len(names)].reshape((len(values),) + shape)
            start += len(names)
            if block is None:
                setattr(self, field, view)
            else:
                getattr(self, field).append(view)

    def __reduce__(self):
        # the views are rebuilt on unpickling, so a chain crosses processes as one matrix
        return ChainTrace, (self.values, self.layout)

    @property
    def n_recorded(self) -> int:
        return self.values.shape[0]


@dataclass
class Trace:
    """All chains, with the dimensions that lay out their columns."""

    chains: list
    dims: ModelDims

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def n_recorded(self) -> int:
        return sum(c.n_recorded for c in self.chains)

    @cached_property
    def _columns(self) -> dict:
        """Column name -> position in each chain's ``values``."""
        layout = self.chains[0].layout
        return {name: j for j, name in enumerate(name for *_, names in layout for name in names)}

    def scalar_matrix(self, name: str) -> np.ndarray:
        """(chains, K) matrix of one named scalar column (diagnostics input)."""
        if name not in self._columns:
            raise ConfigurationError(f"unknown trace column {name!r}")
        return np.stack([c.values[:, self._columns[name]] for c in self.chains], axis=0)

    def column_names(self) -> list:
        return list(self._columns)


def _run_single_chain(spec: ModelSpec, data: Dataset, chain: int) -> ChainTrace:
    settings = spec.sampler
    engine = GibbsEngine(spec, data, rng=np.random.default_rng(settings.seed + chain))
    layout = trace_layout(engine.dims, spec.family)

    engine.adapting = True
    for _ in range(settings.adapt):
        engine.scan()
    engine.adapting = False
    for _ in range(settings.burnin):
        engine.scan()

    def draw(field, block):
        if field == "log_posterior":
            return engine.log_posterior()
        return getattr(engine.state if block is None else engine.state.blocks[block], field)

    values = np.zeros((settings.kept // settings.thin, sum(len(names) for *_, names in layout)))
    idx = 0
    for it in range(settings.kept):
        engine.scan()
        if (it + 1) % settings.thin == 0:
            values[idx] = np.concatenate([np.ravel(draw(field, block)) for field, block, _, _ in layout])
            idx += 1
    fallbacks = sum(s.fallbacks for s in engine.stats.values())
    xi_rate = engine.xi_accepted / engine.xi_proposed if engine.xi_proposed else float("nan")
    log.info("chain %d: %d slice step-out fallbacks, xi acceptance %.3f", chain, fallbacks, xi_rate)
    return ChainTrace(values, layout)


def process_map(fn, tasks: list, workers: int) -> list:
    """``[fn(*task) for task in tasks]``, run in up to ``workers`` processes when there are two or more tasks.

    ``fn`` must be a module-level function, so that the pool can pickle it.
    The pool's module is imported only here: it costs every process start
    about 14 ms, and most runs use one worker.
    """
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [pool.submit(fn, *task) for task in tasks]
            return [f.result() for f in futures]
    return [fn(*task) for task in tasks]


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
    try:
        chains = process_map(_run_single_chain, [(spec, data, c) for c in range(spec.sampler.chains)], workers)
    except SamplerError as exc:
        raise SamplerError(f"chain failed: {exc}") from exc
    return Trace(chains=chains, dims=dims)


def _chain_numbers(outdir: str) -> list:
    """The N >= 1 of every chain_N.csv in ``outdir``; none if it is not a directory."""
    names = os.listdir(outdir) if os.path.isdir(outdir) else []
    return [int(m[1]) for m in (re.fullmatch(r"chain_([1-9][0-9]*)\.csv", name) for name in names) if m]


def save_trace(trace: Trace, outdir: str) -> list:
    """One CSV per chain: iteration, then every column of the chain's ``values``.

    Values are written in their shortest round-trip form by
    :func:`glmmselect.ioutil.write_csv`.  Chain files of an earlier, longer
    trace in ``outdir`` are removed, so :func:`load_trace` reads this trace
    alone.
    """
    header = ["iteration"] + trace.column_names()
    paths = []
    for ci, chain in enumerate(trace.chains):
        path = os.path.join(outdir, f"chain_{ci + 1}.csv")
        write_csv(path, header, ([i + 1, *row] for i, row in enumerate(chain.values.tolist())))
        paths.append(path)
    for n in _chain_numbers(outdir):
        if n > len(trace.chains):
            os.remove(os.path.join(outdir, f"chain_{n}.csv"))
    return paths


def _value_problem(field: str, values: np.ndarray) -> str | None:
    """What is wrong with trace values of one field read from a file, or None."""
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

    Chains are read from chain_1.csv to the highest chain_N.csv; a gap raises
    ConfigurationError.  Columns are found by header name, so their order does
    not matter and other columns are ignored.  A file that :func:`glmmselect.ioutil.read_csv`
    rejects, a missing column or a cell that is not a number raises
    DataError; a value that no sampler state can hold (non-finite, negative
    lam, non-positive kappa or family scale, an indicator other than 0/1)
    raises ConfigurationError naming the file and column.
    """
    dims = ModelDims.of(spec, data)
    layout = trace_layout(dims, spec.family)
    names = [name for *_, field_names in layout for name in field_names]
    fields = [field for field, _, _, field_names in layout for name in field_names]
    chains = []
    last = max(_chain_numbers(outdir), default=0)
    for ci in range(1, last + 1):
        path = os.path.join(outdir, f"chain_{ci}.csv")
        if not os.path.exists(path):
            raise ConfigurationError(f"{path} is missing, but chain_{last}.csv is there")
        values = parse_floats(path, *read_csv(path), names)
        for field, name, column in zip(fields, names, values.T):
            problem = _value_problem(field, column)
            if problem:
                raise ConfigurationError(f"{path}: column {name!r} {problem}")
        chains.append(ChainTrace(values, layout))
    if not chains:
        raise ConfigurationError(f"no chain CSVs found under {outdir}")
    return Trace(chains=chains, dims=dims)
