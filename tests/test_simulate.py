from dataclasses import fields, replace

import numpy as np
import pytest

from glmmselect import simulate
from glmmselect.errors import ConfigurationError, SamplerError
from glmmselect.model import Hyperparameters, SamplerSettings
from glmmselect.simulate import (
    STUDY_COLUMNS,
    ReplicationResult,
    SimDesign,
    build_model_spec,
    full_scale_design,
    run_grid,
    run_replication,
    scaled_design,
    scaled_omega,
    section3_omega,
    simulate_dataset,
)


class TestOmega:
    def test_full_matrix_values(self):
        om = section3_omega()
        assert om.shape == (10, 10)
        assert om[0, 0] == 0.08
        assert om[0, 2] == 0.04
        assert om[0, 5] == 0.02
        assert om[2, 2] == 0.15
        assert om[2, 5] == 0.09
        assert om[5, 5] == 0.06
        assert om[1, 1] == 0.0
        assert np.array_equal(om, om.T)
        # active block is positive definite
        np.linalg.cholesky(om[np.ix_([0, 2, 5], [0, 2, 5])])

    def test_scaled_block(self):
        om = scaled_omega(6, (0, 2))
        assert om[0, 0] == 0.08
        assert om[0, 2] == 0.04
        assert om[2, 2] == 0.15
        assert om.sum() == pytest.approx(0.08 + 0.15 + 2 * 0.04)


class TestSimDesign:
    def test_eight_settings(self):
        names = [f.name for f in fields(SimDesign) if f.init]
        assert names == ["n", "n_i", "l", "q", "n_active_fixed", "omega", "case", "base_seed"]

    def test_active_random_follows_omega(self):
        d = SimDesign(l=6, q=6, omega=scaled_omega(6, (4, 1)))
        assert d.active_random == (1, 4)
        assert d.random_truth_mask().tolist() == [0, 1, 0, 0, 1, 0]
        assert replace(d, omega=np.diag([0.0, 0.0, 0.2, 0.0, 0.0, 0.0])).active_random == (2,)

    def test_active_random_is_not_a_setting(self):
        with pytest.raises(TypeError):
            SimDesign(active_random=(0, 2, 5))

    @pytest.mark.parametrize(
        "settings, message",
        [
            (dict(n=True), "n must be an integer, got True"),
            (dict(n=60.0), "n must be an integer, got 60.0"),
            (dict(n=0), "n must be at least 1, got 0"),
            (dict(n_i=-1), "n_i must be at least 1, got -1"),
            (dict(l=3, q=5, n_active_fixed=2, omega=np.zeros((5, 5))), r"q must be in \[1, l\]"),
            (dict(n_active_fixed=11), r"n_active_fixed must be in \[1, l\]"),
            (dict(case=True), "case must be an integer, got True"),
            (dict(case=3), "case must be 1 or 2"),
            (dict(base_seed=-1), "base_seed must be at least 0, got -1"),
            (dict(omega="x"), "omega must be a numeric matrix"),
            (dict(omega=np.eye(3)), r"omega shape must be \(q, q\)"),
        ],
    )
    def test_bad_setting_rejected(self, settings, message):
        with pytest.raises(ConfigurationError, match=message):
            SimDesign(**settings)


class TestSimulateDataset:
    def test_case1_inactive_exactly_zero(self):
        data, beta = simulate_dataset(full_scale_design(), 0)
        assert np.all(beta[6:] == 0.0)
        assert beta[0] == 2.0

    def test_case2_inactive_exactly_small(self):
        data, beta = simulate_dataset(replace(full_scale_design(), case=2), 0)
        assert np.all(beta[6:] == 0.01)

    def test_active_betas_in_range(self):
        _, beta = simulate_dataset(full_scale_design(), 3)
        assert np.all(np.abs(beta[1:6]) <= 0.4)

    def test_bit_reproducible(self):
        d = scaled_design()
        a1, b1 = simulate_dataset(d, 7)
        a2, b2 = simulate_dataset(d, 7)
        np.testing.assert_array_equal(a1.y, a2.y)
        np.testing.assert_array_equal(a1.X, a2.X)
        np.testing.assert_array_equal(b1, b2)

    def test_replicates_differ(self):
        d = scaled_design()
        a1, _ = simulate_dataset(d, 0)
        a2, _ = simulate_dataset(d, 1)
        assert not np.array_equal(a1.y, a2.y)

    def test_cases_share_design_given_seed(self):
        # same seeds: case 1 and case 2 differ only through the inactive betas' effect on y
        d1 = replace(scaled_design(), base_seed=9)
        d2 = replace(d1, case=2)
        a1, b1 = simulate_dataset(d1, 0)
        a2, b2 = simulate_dataset(d2, 0)
        np.testing.assert_array_equal(a1.X, a2.X)
        np.testing.assert_array_equal(b1[:4], b2[:4])
        assert np.all(b2[4:] == 0.01)

    def test_covariate_standardization(self):
        data, _ = simulate_dataset(SimDesign(n=400, n_i=5), 0)
        assert np.all(data.X[:, 0] == 1.0)
        means = data.X[:, 1:].mean(axis=0)
        stds = data.X[:, 1:].std(axis=0)
        assert np.all(np.abs(means) < 3.5 / np.sqrt(data.n_obs))
        assert np.all(np.abs(stds - 1.0) < 0.05)

    def test_random_effect_covariance_matches_omega(self):
        # regress the group effects implied by y? cheaper: large-n sample of the
        # factor path is already covered in cholesky tests; here check that
        # simulated counts carry the random intercept signal group-wise
        d = SimDesign(n=2000, n_i=2, l=3, q=3, n_active_fixed=1,
                      omega=scaled_omega(3, (0,)))
        data, beta = simulate_dataset(d, 0)
        # log of group means should have variance roughly omega[0,0] + noise
        gm = np.array([data.y[data.blocks[0].groups == i].mean() for i in range(d.n)])
        lv = np.log(np.maximum(gm, 0.25)) - np.log(np.exp(beta[0]))
        assert 0.02 < lv.var() < 0.4

    def test_group_layout(self):
        data, _ = simulate_dataset(scaled_design(), 0)
        b = data.blocks[0]
        assert b.n_groups == 60
        assert np.all(np.bincount(b.groups) == 10)


class TestReplication:
    def _quick_settings(self):
        return SamplerSettings(chains=1, adapt=30, burnin=40, kept=150, seed=0)

    def test_summary_is_the_study_columns(self):
        flags = [(True, True), (True, False), (False, False)]
        rows = [dict(ok=True, true_model=t, random_correct=r, rmse=0.1 * k) for k, (t, r) in enumerate(flags)]
        summ = ReplicationResult(rows + [dict(ok=False, error="stopped")]).summary()
        assert tuple(summ) == STUDY_COLUMNS
        assert list(summ.values()) == [100.0 * 2 / 3, 100.0 * 1 / 3, float(np.mean([0.0, 0.1, 0.2])), 3, 1]

    def test_summary_without_a_finished_replicate_is_nan(self):
        summ = ReplicationResult([dict(ok=False, error="stopped")] * 2).summary()
        assert tuple(summ) == STUDY_COLUMNS
        assert all(np.isnan(summ[key]) for key in STUDY_COLUMNS[:3])
        assert (summ["n_ok"], summ["n_failed"]) == (0, 2)
        assert ReplicationResult([dict(ok=False, error="stopped")] * 2).modal_models() == []

    def test_modal_models_rank_the_finished_replicates(self):
        # fixed bits are the first len(modal_fixed); failed replicates count in no row
        rows = [dict(ok=True, modal_fixed=(1, 0), modal_random=r) for r in ((0, 1, 1), (1, 0, 0), (0, 1, 1))]
        rows.append(dict(ok=False, error="stopped"))
        assert ReplicationResult(rows).modal_models() == [("1", "2,3", 2, 66.67), ("1", "1", 1, 33.33)]

    def test_zero_replicates(self):
        design = replace(scaled_design(), n=10, n_i=4)
        spec = build_model_spec(design, sampler=self._quick_settings())
        result = run_replication(design, spec, 0)
        assert result.rows == []

    def test_strong_signal_smoke(self):
        # one huge fixed effect and one strong random intercept, nothing else.  Over replicates 0-199
        # of this design, 196 modal models were the true one, 199 marginal random patterns were right,
        # and the per-replicate rmse had median 0.105 and mean 0.171, with a tail up to 1.25 from chains
        # that mix slowly.  The bounds below hold for 20 replicates drawn from those rates with
        # probability above 0.99: at most 4 misses each, and a median rmse of at most 0.26
        design = SimDesign(
            n=60, n_i=8, l=2, q=2, n_active_fixed=1,
            omega=np.diag([0.5, 0.0]), case=1, base_seed=1,
        )
        spec = build_model_spec(
            design,
            mode="ssvs-diagonal",
            hyper=Hyperparameters(v=1.0, nu=1.0),
            sampler=SamplerSettings(chains=1, adapt=60, burnin=60, kept=300, seed=0),
        )
        result = run_replication(design, spec, 20)
        summ = result.summary()
        assert summ["n_ok"] == 20
        assert summ["percent_true_model"] >= 80.0
        assert summ["percent_random_correct"] >= 80.0
        assert np.median([row["rmse"] for row in result.rows]) <= 0.26

    def _failing_fit(self, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(simulate, "run_chains", fail)
        design = replace(scaled_design(), n=10, n_i=4)
        return design, build_model_spec(design, sampler=self._quick_settings())

    def test_sampler_error_marks_replicate_failed(self, monkeypatch):
        design, spec = self._failing_fit(monkeypatch, SamplerError("no feasible start"))
        result = run_replication(design, spec, 2)
        assert [(r["ok"], r["error"]) for r in result.rows] == [(False, "no feasible start")] * 2
        assert result.summary()["n_failed"] == 2

    @pytest.mark.parametrize("mode", ["ssvs-full", "no-selection"])
    def test_fits_in_the_spec_mode(self, monkeypatch, mode):
        fitted = []

        def fail(spec, data):
            fitted.append(spec.mode)
            raise SamplerError("stop after recording the mode")

        monkeypatch.setattr(simulate, "run_chains", fail)
        design = replace(scaled_design(), n=10, n_i=4)
        spec = build_model_spec(design, mode=mode, sampler=self._quick_settings())
        result = run_replication(design, spec, 2)
        assert fitted == [mode, mode]
        assert [r["mode"] for r in result.rows] == [mode, mode]

    def test_programming_error_propagates(self, monkeypatch):
        design, spec = self._failing_fit(monkeypatch, RuntimeError("bug in the fit"))
        with pytest.raises(RuntimeError, match="bug in the fit"):
            run_replication(design, spec, 1)

    def test_parallel_matches_serial(self):
        design = SimDesign(
            n=20, n_i=4, l=2, q=1, n_active_fixed=2,
            omega=np.array([[0.3]]), case=1, base_seed=2,
        )
        spec = build_model_spec(
            design, mode="ssvs-diagonal", hyper=Hyperparameters(v=1.0, nu=1.0),
            sampler=SamplerSettings(chains=1, adapt=10, burnin=10, kept=50, seed=0),
        )
        r1 = run_replication(design, spec, 2, workers=1)
        r2 = run_replication(design, spec, 2, workers=2)
        k1 = sorted((r["replicate"], r["rmse"]) for r in r1.rows)
        k2 = sorted((r["replicate"], r["rmse"]) for r in r2.rows)
        assert k1 == k2


class TestGrid:
    def _tiny_study(self):
        design = SimDesign(
            n=15, n_i=3, l=2, q=1, n_active_fixed=2,
            omega=np.array([[0.3]]), case=1, base_seed=3,
        )
        spec = build_model_spec(
            design, mode="ssvs-diagonal", hyper=Hyperparameters(v=1.0, nu=1.0),
            sampler=SamplerSettings(chains=1, adapt=10, burnin=10, kept=60, seed=0),
        )
        return design, spec

    def test_each_cell_reduces_to_replication(self):
        design, spec = self._tiny_study()
        rows = run_grid(design, spec, [(1.0, 1.0), (0.1, 0.5)], 2)
        direct = [run_replication(design, replace(spec, hyper=Hyperparameters(v=v, nu=v, h=h)), 2).summary()
                  for v, h in ((0.1, 0.5), (1.0, 1.0))]
        assert [d["n_ok"] for d in direct] == [2, 2]
        assert rows == [(0.1, 0.5, *direct[0].values()), (1.0, 1.0, *direct[1].values())]

    def test_rows_come_back_in_h_then_v_order(self, monkeypatch):
        # the stand-in fit scores each cell's own (v, h), so a row shows whether it kept its cell's values
        def fit(design, specs, replicate):
            assert all(spec.hyper.nu == spec.hyper.v for spec in specs)
            return [dict(ok=True, true_model=True, random_correct=False, rmse=spec.hyper.v + 10 * spec.hyper.h)
                    for spec in specs]

        monkeypatch.setattr(simulate, "_fit_one_replicate", fit)
        design = scaled_design()
        pairs = [(v, h) for h in (1.0, 0.5) for v in (1.0, 0.1, 0.01)]
        rows = run_grid(design, build_model_spec(design), pairs, 1)
        assert [row[:2] for row in rows] == [(0.01, 0.5), (0.1, 0.5), (1.0, 0.5), (0.01, 1.0), (0.1, 1.0), (1.0, 1.0)]
        assert [row[2:] for row in rows] == [(100.0, 0.0, v + 10 * h, 1, 0) for v, h, *_ in rows]

    def test_each_replicate_is_simulated_once_for_all_cells(self, monkeypatch):
        simulated, fitted, pools = [], [], []
        real_simulate, real_map = simulate.simulate_dataset, simulate.process_map

        def counted(design, replicate):
            simulated.append(replicate)
            return real_simulate(design, replicate)

        def fail(spec, data):
            fitted.append((spec.hyper.v, spec.hyper.h))
            raise SamplerError("stop after counting the fit")

        def one_map(fn, tasks, workers):
            pools.append(len(tasks))
            return real_map(fn, tasks, workers)

        monkeypatch.setattr(simulate, "simulate_dataset", counted)
        monkeypatch.setattr(simulate, "run_chains", fail)
        monkeypatch.setattr(simulate, "process_map", one_map)
        design, spec = self._tiny_study()
        cells = [(1.0, 1.0), (0.1, 1.0), (1.0, 0.5)]
        rows = run_grid(design, spec, cells, 2)
        assert simulated == [0, 1]
        assert pools == [2]
        assert fitted == [(1.0, 0.5), (0.1, 1.0), (1.0, 1.0)] * 2
        assert [row[-2:] for row in rows] == [(0, 2)] * 3

    def test_sampler_error_fails_only_its_cell(self, monkeypatch):
        real_run_chains = simulate.run_chains

        def fit(spec, data):
            if spec.hyper.v == 0.1:
                raise SamplerError("no feasible start")
            return real_run_chains(spec, data)

        monkeypatch.setattr(simulate, "run_chains", fit)
        design, spec = self._tiny_study()
        rows = run_grid(design, spec, [(1.0, 1.0), (0.1, 1.0)], 2)
        assert [row[:2] + row[-2:] for row in rows] == [(0.1, 1.0, 0, 2), (1.0, 1.0, 2, 0)]
        assert all(np.isnan(value) for value in rows[0][2:5])

    def test_programming_error_propagates(self, monkeypatch):
        def fail(spec, data):
            raise RuntimeError("bug in the fit")

        monkeypatch.setattr(simulate, "run_chains", fail)
        design, spec = self._tiny_study()
        with pytest.raises(RuntimeError, match="bug in the fit"):
            run_grid(design, spec, [(1.0, 1.0), (0.1, 1.0)], 1)

    def test_paired_seeds_share_datasets(self):
        design = replace(scaled_design(), base_seed=11)
        d1, _ = simulate_dataset(design, 4)
        d2, _ = simulate_dataset(design, 4)
        assert hash(d1.y.tobytes()) == hash(d2.y.tobytes())
        assert hash(d1.X.tobytes()) == hash(d2.X.tobytes())
