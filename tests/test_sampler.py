import csv
import json
import logging
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from glmmselect.cholesky import mask_factors
from glmmselect.cli import main
from glmmselect.dataio import load_dataset, parse_spec
from glmmselect.engine import GibbsEngine
from glmmselect.errors import ConfigurationError, DataError
from glmmselect.families import Family
from glmmselect.model import (
    BlockData,
    Dataset,
    MODES,
    Hyperparameters,
    ModelDims,
    ModelSpec,
    RandomBlock,
    SamplerSettings,
    linear_predictor_all,
)
from glmmselect.sampler import ChainTrace, Trace, load_trace, process_map, run_chains, save_trace, trace_layout


def small_problem(
    seed=0, kept=30, chains=2, thin=1, adapt=5, burnin=5, l=2, with_block=True, kind="poisson", mode="ssvs-full"
):
    rng = np.random.default_rng(seed)
    n, n_i = 6, 3
    n_obs = n * n_i
    X = rng.standard_normal((n_obs, l))
    X[:, 0] = 1.0
    groups = np.repeat(np.arange(n), n_i)
    blocks = (BlockData(Z=X[:, :1], groups=groups, n_groups=n),) if with_block else ()
    rblocks = (RandomBlock(group="g", columns=("1",)),) if with_block else ()
    y = rng.poisson(1.5, n_obs).astype(float)
    if kind == "bernoulli":
        y = np.minimum(y, 1.0)
    data = Dataset(y=y, X=X, blocks=blocks)
    spec = ModelSpec(
        family=Family(kind=kind),
        response="y",
        fixed_effects=tuple(["1"] + [f"x{i}" for i in range(2, l + 1)]),
        random_blocks=rblocks,
        hyper=Hyperparameters(v=1.0, nu=1.0),
        sampler=SamplerSettings(
            chains=chains, adapt=adapt, burnin=burnin, kept=kept, thin=thin, seed=seed
        ),
        mode=mode,
    )
    return spec, data


class TestRunChains:
    def test_recorded_counts(self):
        spec, data = small_problem(kept=30, chains=2)
        trace = run_chains(spec, data)
        assert trace.n_chains == 2
        assert all(c.n_recorded == 30 for c in trace.chains)
        assert trace.n_recorded == 60

    def test_thinning(self):
        spec, data = small_problem(kept=10, thin=3, chains=1)
        trace = run_chains(spec, data)
        assert trace.chains[0].n_recorded == 3

    def test_chain_log_line_reports_xi_acceptance(self, caplog):
        spec, data = small_problem(kept=10, chains=1, mode="no-selection")
        with caplog.at_level(logging.INFO, logger="glmmselect.sampler"):
            run_chains(spec, data)
        match = re.search(r"chain 0: (\d+) slice step-out fallbacks, xi acceptance ([0-9.]+)", caplog.text)
        assert match, caplog.text
        assert 0.0 < float(match.group(2)) <= 1.0  # the one random effect is in, so xi took steps

    @pytest.mark.parametrize("kept, thin", [(0, 1), (5, 10)])
    def test_settings_that_record_no_draw_are_rejected(self, kept, thin):
        with pytest.raises(ConfigurationError, match=rf"kept must be at least thin \({thin}\) to record a draw, got {kept}"):
            SamplerSettings(kept=kept, thin=thin)

    def test_same_seed_bit_identical(self):
        spec, data = small_problem(seed=5, kept=20)
        t1 = run_chains(spec, data)
        t2 = run_chains(spec, data)
        for c1, c2 in zip(t1.chains, t2.chains):
            np.testing.assert_array_equal(c1.beta, c2.beta)
            np.testing.assert_array_equal(c1.J, c2.J)
            np.testing.assert_array_equal(c1.lam[0], c2.lam[0])
            np.testing.assert_array_equal(c1.log_posterior, c2.log_posterior)

    def test_chain_subseeds_differ(self):
        spec, data = small_problem(seed=6, kept=20)
        trace = run_chains(spec, data)
        assert not np.array_equal(trace.chains[0].beta, trace.chains[1].beta)
        # chain c is seeded seed + c: chain 1 here is chain 0 of a run seeded 7
        spec7, _ = small_problem(seed=7, kept=20, chains=1)
        np.testing.assert_array_equal(run_chains(spec7, data).chains[0].values, trace.chains[1].values)

    def test_workers_do_not_change_results(self):
        spec, data = small_problem(seed=7, kept=15)
        t1 = run_chains(spec, data, workers=1)
        t2 = run_chains(spec, data, workers=2)
        for c1, c2 in zip(t1.chains, t2.chains):
            np.testing.assert_array_equal(c1.beta, c2.beta)
            np.testing.assert_array_equal(c1.xi[0], c2.xi[0])

    def test_exclusion_invariant_on_recorded_states(self):
        spec, data = small_problem(seed=8, kept=40)
        trace = run_chains(spec, data)
        for chain in trace.chains:
            for i in range(chain.n_recorded):
                for bi in range(len(trace.dims.blocks)):
                    lam_eff, gamma = mask_factors(chain.lam[bi][i], chain.r[bi][i], chain.include[bi][i])
                    lg = lam_eff[:, None] * gamma
                    omega = lg @ lg.T
                    for k in np.flatnonzero(chain.include[bi][i] == 0):
                        assert np.all(omega[k, :] == 0.0)
                        assert np.all(omega[:, k] == 0.0)

    def test_no_random_blocks(self):
        spec, data = small_problem(seed=9, kept=10, with_block=False)
        trace = run_chains(spec, data)
        assert trace.chains[0].lam == []
        assert trace.n_recorded == 20


class TestProcessMap:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_results_in_task_order(self, workers):
        tasks = [(7, 2), (9, 4), (5, 5)]
        assert process_map(divmod, tasks, workers) == [(3, 1), (2, 1), (1, 0)]


class TestTracePersistence:
    @pytest.mark.parametrize("kind", ["poisson", "negative_binomial", "gaussian", "bernoulli"])
    def test_roundtrip(self, tmp_path, kind):
        spec, data = small_problem(seed=10, kept=12, kind=kind)
        trace = run_chains(spec, data)
        save_trace(trace, str(tmp_path))
        back = load_trace(str(tmp_path), spec, data)
        names = trace.column_names()
        assert back.column_names() == names
        scale = {"negative_binomial": "dispersion", "gaussian": "sigma2"}.get(kind)
        assert (scale in names) if scale else not {"dispersion", "sigma2"} & set(names)
        for c1, c2 in zip(trace.chains, back.chains):
            np.testing.assert_allclose(c1.beta, c2.beta, rtol=0, atol=0)
            np.testing.assert_array_equal(c1.J, c2.J)
            np.testing.assert_allclose(c1.xi[0], c2.xi[0], rtol=0, atol=0)
            np.testing.assert_allclose(c1.log_posterior, c2.log_posterior, rtol=0, atol=0)
            np.testing.assert_array_equal(c1.values, c2.values)

    @pytest.mark.parametrize("kind", ["poisson", "negative_binomial", "gaussian", "bernoulli"])
    def test_empty_trace_roundtrip(self, tmp_path, kind):
        spec, data = small_problem(seed=10, kind=kind)
        layout = trace_layout(ModelDims.of(spec, data), spec.family)
        n_columns = sum(len(names) for *_, names in layout)
        chains = [ChainTrace(np.zeros((0, n_columns)), layout) for c in range(spec.sampler.chains)]
        trace = Trace(chains=chains, dims=ModelDims.of(spec, data))
        paths = save_trace(trace, str(tmp_path))
        assert all(len(Path(p).read_text().splitlines()) == 1 for p in paths)  # header only
        back = load_trace(str(tmp_path), spec, data)
        assert back.n_recorded == 0
        scale = {"negative_binomial": "dispersion", "gaussian": "sigma2"}.get(kind)
        for c1, c2 in zip(trace.chains, back.chains):
            assert c2.values.shape == c1.values.shape == (0, len(trace.column_names()))
            for name in ("beta", "J", "log_posterior") + ((scale,) if scale else ()):
                assert getattr(c2, name).shape == getattr(c1, name).shape, name
            for name in {"dispersion", "sigma2"} - {scale}:
                assert getattr(c1, name) is None and getattr(c2, name) is None, name
            for name in ("lam", "include", "r", "kappa", "xi"):
                assert [a.shape for a in getattr(c2, name)] == [a.shape for a in getattr(c1, name)], name
        assert back.chains[0].xi[0].shape == (0, 6, 1)

    def test_columns_are_found_by_name(self, tmp_path):
        spec, data = small_problem(seed=15, kept=5, kind="negative_binomial")
        trace = run_chains(spec, data)
        save_trace(trace, str(tmp_path))
        for path in tmp_path.glob("chain_*.csv"):
            rows = [line.split(",") for line in path.read_text().splitlines()]
            rows = [row[::-1] + [extra] for row, extra in zip(rows, ["note"] + ["text"] * len(rows))]
            path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        back = load_trace(str(tmp_path), spec, data)
        for c1, c2 in zip(trace.chains, back.chains):
            np.testing.assert_array_equal(c1.values, c2.values)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("lam1_1", "-0.5", "has negative values"),
            ("kappa1_1", "0.0", "has non-positive values"),
            ("J2", "0.5", "holds values other than 0/1"),
            ("I1_1", "2", "holds values other than 0/1"),
            ("beta1", "nan", "has non-finite values"),
            ("xi1_g1_1", "inf", "has non-finite values"),
            ("log_posterior", "-inf", "has non-finite values"),
            ("beta2", "abc", "has a missing or non-numeric value"),
        ],
    )
    def test_hand_edited_value_is_rejected(self, tmp_path, column, value, message):
        spec, data = small_problem(seed=13, kept=6)
        save_trace(run_chains(spec, data), str(tmp_path))
        path = tmp_path / "chain_2.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[3].split(",")
        cells[header.index(column)] = value
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        # a cell that is not a number is a CSV parse problem; a number no state can hold is not
        error = DataError if value == "abc" else ConfigurationError
        with pytest.raises(error, match=f"chain_2.csv: column '{column}' {message}"):
            load_trace(str(tmp_path), spec, data)

    def test_missing_cell_is_located(self, tmp_path):
        spec, data = small_problem(seed=13, kept=6)
        save_trace(run_chains(spec, data), str(tmp_path))
        path = tmp_path / "chain_1.csv"
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index("J1")] = ""
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="chain_1.csv: column 'J1' has a missing or non-numeric value '' in row 3"):
            load_trace(str(tmp_path), spec, data)

    def test_byte_identical_rewrites(self, tmp_path):
        spec, data = small_problem(seed=11, kept=12)
        trace = run_chains(spec, data)
        paths = save_trace(trace, str(tmp_path))
        first = [open(p, "rb").read() for p in paths]
        save_trace(trace, str(tmp_path))
        second = [open(p, "rb").read() for p in paths]
        assert first == second

    def test_fewer_chains_replace_an_earlier_trace(self, tmp_path):
        spec, data = small_problem(seed=14, kept=6, chains=3)
        save_trace(run_chains(spec, data), str(tmp_path))
        (tmp_path / "chain_5.csv").write_text("left by another run\n")  # past a gap in the numbering
        (tmp_path / "notes.csv").write_text("kept\n")
        spec1 = replace(spec, sampler=replace(spec.sampler, chains=1))
        trace = run_chains(spec1, data)
        save_trace(trace, str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain_1.csv", "notes.csv"]
        back = load_trace(str(tmp_path), spec1, data)
        assert back.n_chains == 1
        np.testing.assert_array_equal(back.chains[0].beta, trace.chains[0].beta)

    def test_gap_in_the_chain_files_is_rejected(self, tmp_path):
        # chain_1.csv and chain_3.csv without chain_2.csv: no trace is read from one chain
        spec, data = small_problem(seed=14, kept=6, chains=3)
        save_trace(run_chains(spec, data), str(tmp_path))
        (tmp_path / "chain_2.csv").unlink()
        missing = re.escape(str(tmp_path / "chain_2.csv"))
        with pytest.raises(ConfigurationError, match=f"{missing} is missing, but chain_3.csv is there"):
            load_trace(str(tmp_path), spec, data)

    def test_scalar_matrix_lookup(self):
        spec, data = small_problem(seed=12, kept=10)
        trace = run_chains(spec, data)
        mat = trace.scalar_matrix("beta1")
        assert mat.shape == (2, 10)
        mat = trace.scalar_matrix("lam1_1")
        assert mat.shape == (2, 10)
        with pytest.raises(Exception):
            trace.scalar_matrix("nope")


# a random (1, x) block per subject and a random intercept per site, crossed: 8 subjects of 3 visits, 3 sites
TWO_BLOCK_SPEC = {
    "family": {"kind": "poisson"},
    "response": "y",
    "fixed_effects": ["1", "x"],
    "random_blocks": [{"group": "subject", "columns": ["1", "x"]}, {"group": "site", "columns": ["1"]}],
    "sampler": {"chains": 2, "adapt": 3, "burnin": 2, "kept": 4, "seed": 3},
}


@pytest.fixture
def two_block_files(tmp_path):
    rng = np.random.default_rng(21)
    data_path, spec_path = tmp_path / "two_blocks.csv", tmp_path / "spec.json"
    with open(data_path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["y", "x", "subject", "site"])
        for i in range(24):
            out.writerow([int(rng.poisson(2.0)), f"{rng.standard_normal():.3f}", f"s{i // 3}", f"site{i % 3}"])
    spec_path.write_text(json.dumps(TWO_BLOCK_SPEC))
    return str(data_path), str(spec_path)


class TestTwoBlocks:
    @pytest.mark.parametrize("mode", MODES)
    def test_cache_is_the_linear_predictor_after_every_scan(self, two_block_files, mode):
        data_path, spec_path = two_block_files
        spec = replace(parse_spec(spec_path), mode=mode)
        data = load_dataset(data_path, spec)
        assert [(b.q, b.n_groups) for b in data.blocks] == [(2, 8), (1, 3)]
        for chain in range(spec.sampler.chains):
            engine = GibbsEngine(spec, data, rng=np.random.default_rng(spec.sampler.seed + chain))
            for _ in range(6):
                engine.scan()
                np.testing.assert_array_equal(engine._eta, linear_predictor_all(spec, engine.state, data))

    @pytest.mark.parametrize("mode", MODES)
    def test_fit_writes_and_reads_back_both_blocks(self, two_block_files, tmp_path, mode):
        data_path, spec_path = two_block_files
        fit_out = tmp_path / "fit"
        assert main(["fit", "--data", data_path, "--spec", spec_path, "--mode", mode, "--out", str(fit_out)]) == 0
        header = (fit_out / "chain_1.csv").read_text().splitlines()[0].split(",")
        for name in ("lam1_1", "lam1_2", "I1_2", "r1_2_1", "xi1_g8_2", "lam2_1", "I2_1", "kappa2_1"):
            assert name in header, name
        assert [name for name in header if name.startswith("xi2_")] == ["xi2_g1_1", "xi2_g2_1", "xi2_g3_1"]
        spec = replace(parse_spec(spec_path), mode=mode)
        data = load_dataset(data_path, spec)
        back = load_trace(str(fit_out), spec, data)
        assert back.n_chains == 2
        for chain, fitted in zip(back.chains, run_chains(spec, data).chains):
            np.testing.assert_array_equal(chain.values, fitted.values)
        save_trace(back, str(tmp_path / "again"))
        for name in ("chain_1.csv", "chain_2.csv"):
            assert (tmp_path / "again" / name).read_bytes() == (fit_out / name).read_bytes()
