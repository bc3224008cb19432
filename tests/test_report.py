from collections import Counter

import numpy as np
import pytest

from glmmselect.errors import ConfigurationError
from glmmselect.families import Family
from glmmselect.model import ModelDims
from glmmselect.report import (
    ModelLabel,
    fixed_effect_rmse,
    format_table,
    indicator_matrix,
    ranked_patterns,
    top_models,
)
from glmmselect.sampler import ChainTrace, Trace, trace_layout


def fabricate_trace(J_rows, I_rows, beta_rows=None, l=None, q=None):
    """Build a single-chain Trace directly from indicator/coefficient rows."""
    J = np.asarray(J_rows, dtype=np.int8)
    I = np.asarray(I_rows, dtype=np.int8)
    n, l = J.shape
    q = I.shape[1]
    beta = np.asarray(beta_rows, dtype=float) if beta_rows is not None else np.ones((n, l))
    dims = ModelDims(l=l, blocks=((q, 3),))
    layout = trace_layout(dims, Family("poisson"))
    fields = {
        "log_posterior": np.zeros(n),
        "beta": beta,
        "J": J,
        "lam": np.full((n, q), 0.5),
        "include": I,
        "r": np.zeros((n, q * (q - 1) // 2)),
        "kappa": np.ones((n, q)),
        "xi": np.zeros((n, 3 * q)),
    }
    values = np.hstack([fields[field].reshape(n, len(names)) for field, _, _, names in layout]).astype(float)
    return Trace(chains=[ChainTrace(values, layout)], dims=dims)


class TestLabelOf:
    def test_describe(self):
        lab = ModelLabel(fixed=(1, 0), random=((0, 1),))
        assert lab.describe() == "fixed[1] random[2]"

    def test_top_models_match_per_draw_reading(self):
        # two chains and two blocks, against a draw-by-draw reading of the indicator views
        rng = np.random.default_rng(3)
        dims = ModelDims(l=3, blocks=((2, 3), (3, 2)))
        layout = trace_layout(dims, Family("poisson"))
        chains = []
        for n in (7, 5):
            chain = ChainTrace(rng.random((n, sum(len(names) for *_, names in layout))), layout)
            for bits in [chain.J, *chain.include]:
                bits[:] = rng.integers(0, 2, bits.shape)  # writes into chain.values
            chains.append(chain)
        trace = Trace(chains=chains, dims=dims)
        expected = [
            ModelLabel(tuple(int(v) for v in c.J[i]), tuple(tuple(int(v) for v in inc[i]) for inc in c.include))
            for c in chains
            for i in range(c.n_recorded)
        ]
        counts = Counter(expected)
        rep = top_models(trace)
        assert [(lab, cnt) for lab, cnt, _ in rep.entries] == sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [pct for _, _, pct in rep.entries] == [100.0 * cnt / len(expected) for _, cnt, _ in rep.entries]
        assert rep.modal == rep.entries[0][0]
        np.testing.assert_array_equal(rep.inclusion_fixed, np.mean([lab.fixed for lab in expected], axis=0))
        for bi in range(2):
            np.testing.assert_array_equal(rep.inclusion_random[bi], np.mean([lab.random[bi] for lab in expected], axis=0))
        bits = indicator_matrix(trace)
        assert bits.dtype == np.int8 and bits.shape == (12, 3 + 2 + 3)
        for block, (a, b) in ((None, (3, 8)), (1, (5, 8))):
            patterns = [lab.random if block is None else lab.random[block] for lab in expected]
            modal = max(sorted(set(patterns)), key=patterns.count)  # most frequent, then smallest
            ranked, _ = ranked_patterns(bits[:, a:b])
            flat = sum(modal, ()) if block is None else modal
            assert tuple(ranked[0].tolist()) == flat


class TestRankedPatterns:
    @staticmethod
    def oracle(bits):
        counts = Counter(map(tuple, bits.tolist()))
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))

    @pytest.mark.parametrize("widths", [(4,), (2, 3), (3, 1, 2)])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_counter_oracle(self, widths, seed):
        # one block or several side by side; rows repeated a set number of times force ties
        rng = np.random.default_rng(seed)
        distinct = rng.integers(0, 2, (12, sum(widths)), dtype=np.int8)
        repeats = rng.choice([1, 2, 3], size=len(distinct))
        bits = rng.permutation(np.repeat(distinct, repeats, axis=0))
        patterns, counts = ranked_patterns(bits)
        assert list(zip(map(tuple, patterns.tolist()), counts.tolist())) == self.oracle(bits)

    def test_ties_keep_ascending_row_order(self):
        bits = np.array([[1, 1], [0, 1], [1, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int8)
        patterns, counts = ranked_patterns(bits)
        assert patterns.tolist() == [[0, 1], [1, 0], [1, 1]]
        assert counts.tolist() == [2, 2, 2]

    def test_no_rows_raises(self):
        with pytest.raises(ConfigurationError, match="empty trace"):
            ranked_patterns(np.zeros((0, 3), dtype=np.int8))


class TestTopModels:
    def test_single_repeated_label(self):
        trace = fabricate_trace([[1, 1]] * 10, [[1]] * 10)
        rep = top_models(trace)
        assert rep.entries[0][2] == pytest.approx(100.0)
        assert rep.modal == ModelLabel(fixed=(1, 1), random=((1,),))

    def test_uniform_over_two_labels(self):
        J = [[1, 1]] * 5 + [[1, 0]] * 5
        trace = fabricate_trace(J, [[1]] * 10)
        rep = top_models(trace)
        assert rep.entries[0][2] == pytest.approx(50.0)
        assert rep.entries[1][2] == pytest.approx(50.0)

    def test_counts_sum_to_trace_length(self):
        rng = np.random.default_rng(0)
        J = rng.integers(0, 2, (200, 3))
        I = rng.integers(0, 2, (200, 2))
        trace = fabricate_trace(J, I)
        rep = top_models(trace)
        assert sum(cnt for _, cnt, _ in rep.entries) == 200

    def test_tie_break_by_label_order(self):
        J = [[0, 1]] * 5 + [[1, 0]] * 5
        trace = fabricate_trace(J, [[1]] * 10)
        rep = top_models(trace)
        assert rep.entries[0][0].fixed == (0, 1)

    def test_every_distinct_pattern_listed_once(self):
        rng = np.random.default_rng(1)
        trace = fabricate_trace(rng.integers(0, 2, (100, 3)), rng.integers(0, 2, (100, 1)))
        rep = top_models(trace)
        labels = [lab for lab, _, _ in rep.entries]
        assert len(labels) == len(set(labels)) == len(np.unique(indicator_matrix(trace), axis=0))

    def test_empty_trace_raises(self):
        trace = fabricate_trace(np.zeros((0, 2)), np.zeros((0, 1)))
        with pytest.raises(ConfigurationError):
            top_models(trace)


class TestInclusion:
    def test_all_ones(self):
        trace = fabricate_trace([[1, 1]] * 8, [[1]] * 8)
        rep = top_models(trace)
        np.testing.assert_array_equal(rep.inclusion_fixed, [1.0, 1.0])
        np.testing.assert_array_equal(rep.inclusion_random[0], [1.0])

    def test_alternating_half(self):
        J = [[1, 0], [0, 1]] * 5
        trace = fabricate_trace(J, [[1]] * 10)
        np.testing.assert_allclose(top_models(trace).inclusion_fixed, [0.5, 0.5])

    def test_matches_label_weighted_marginal(self):
        rng = np.random.default_rng(2)
        J = rng.integers(0, 2, (300, 3))
        I = rng.integers(0, 2, (300, 2))
        trace = fabricate_trace(J, I)
        rep = top_models(trace)
        total = sum(cnt for _, cnt, _ in rep.entries)
        marg = np.zeros(3)
        for lab, cnt, _ in rep.entries:
            marg += np.array(lab.fixed) * cnt
        np.testing.assert_allclose(rep.inclusion_fixed, marg / total, atol=1e-12)

    def test_fraction_reporting_precision(self):
        # a 4349-in-9000 inclusion rate is reportable to 4 decimals
        J = np.zeros((9000, 1), dtype=np.int8)
        J[:4349] = 1
        trace = fabricate_trace(J, np.ones((9000, 1)))
        assert round(float(top_models(trace).inclusion_fixed[0]), 4) == round(4349 / 9000, 4)

    def test_modal_random_pattern(self):
        I = [[1, 0]] * 6 + [[0, 1]] * 4
        trace = fabricate_trace([[1, 1]] * 10, I)
        patterns, counts = ranked_patterns(indicator_matrix(trace)[:, 2:])
        assert patterns[0].tolist() == [1, 0] and counts.tolist() == [6, 4]


class TestRmse:
    def test_exact_recovery_is_zero(self):
        beta = np.tile([1.0, -0.5], (20, 1))
        trace = fabricate_trace([[1, 1]] * 20, [[1]] * 20, beta_rows=beta)
        assert fixed_effect_rmse(trace, [1.0, -0.5]) == 0.0

    def test_single_offset_coordinate(self):
        # one of ten coordinates off by 0.1: rmse = sqrt(0.01/10)
        beta = np.tile(np.zeros(10), (5, 1))
        truth = np.zeros(10)
        truth[3] = 0.1
        trace = fabricate_trace(np.ones((5, 10)), [[1]] * 5, beta_rows=beta)
        assert fixed_effect_rmse(trace, truth) == pytest.approx(np.sqrt(0.01 / 10))

    def test_single_draw(self):
        beta = np.array([[0.3, 0.7]])
        trace = fabricate_trace([[1, 1]], [[1]], beta_rows=beta)
        want = np.sqrt(np.mean((np.array([0.3, 0.7]) - np.array([0.0, 0.0])) ** 2))
        assert fixed_effect_rmse(trace, [0.0, 0.0]) == pytest.approx(want)

    def test_masked_coefficients_average_as_zero(self):
        beta = np.array([[5.0, 1.0]] * 4)
        J = np.array([[0, 1]] * 4)
        trace = fabricate_trace(J, [[1]] * 4, beta_rows=beta)
        assert fixed_effect_rmse(trace, [0.0, 1.0]) == 0.0

    def test_length_mismatch(self):
        trace = fabricate_trace([[1, 1]] * 3, [[1]] * 3)
        with pytest.raises(ConfigurationError):
            fixed_effect_rmse(trace, [1.0])


class TestFormatTable:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2), (30, 4)])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
