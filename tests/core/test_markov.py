"""Tests for adaptive quantization and Markov chains (Eq. 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.markov import (
    AdaptiveQuantizer,
    MarkovChain,
    MarkovChain2,
    product_chain,
)

value_lists = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    min_size=10,
    max_size=300,
)


class TestAdaptiveQuantizer:
    def test_paper_state_count_rule(self):
        """M = C_max / sigma, refined by the factor ~2 (Section 4)."""
        rng = np.random.default_rng(0)
        v = rng.normal(50, 10, 5000)
        m = v.max() / v.std()
        n = AdaptiveQuantizer.paper_state_count(v, states_factor=2.0, max_states=64)
        assert n == int(np.clip(round(2 * m), 2, 64))

    def test_constant_series_min_states(self):
        assert AdaptiveQuantizer.paper_state_count(np.full(100, 5.0)) == 2

    def test_equal_mass_intervals(self):
        """Each interval must hold ~ the same sample mass (Section 4)."""
        rng = np.random.default_rng(1)
        v = rng.exponential(10, 20_000)
        q = AdaptiveQuantizer.fit(v, n_states=8)
        states = q.states(v)
        counts = np.bincount(states, minlength=q.n_states)
        assert counts.min() > 0.8 * v.size / q.n_states
        assert counts.max() < 1.2 * v.size / q.n_states

    def test_equal_width_alternative(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(0, 80, 10_000)
        q = AdaptiveQuantizer.fit(v, n_states=8, equal_mass=False)
        widths = np.diff(np.concatenate([[v.min()], q.edges, [v.max()]]))
        assert np.allclose(widths, widths[0], rtol=0.05)

    def test_edges_sorted_centers_monotone(self):
        v = np.random.default_rng(3).normal(0, 1, 2000)
        q = AdaptiveQuantizer.fit(v, n_states=10)
        assert np.all(np.diff(q.edges) >= 0)
        assert np.all(np.diff(q.centers) >= 0)

    def test_state_center_round_trip(self):
        v = np.random.default_rng(4).normal(10, 2, 2000)
        q = AdaptiveQuantizer.fit(v, n_states=6)
        for x in (5.0, 10.0, 15.0):
            s = q.state(x)
            assert 0 <= s < q.n_states
            # The center of x's bin is the bin's training mean.
            assert q.edges.size == q.n_states - 1

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            AdaptiveQuantizer.fit([1.0])

    @given(value_lists)
    @settings(max_examples=40, deadline=None)
    def test_property_states_in_range(self, values):
        q = AdaptiveQuantizer.fit(values, n_states=5)
        states = q.states(values)
        assert np.all((0 <= states) & (states < q.n_states))


class TestMarkovChain:
    def test_eq2_transition_estimation(self):
        """P_ij = n_ij / sum_k n_ik on a hand-built series."""
        q = AdaptiveQuantizer(edges=np.array([0.5]), centers=np.array([0.0, 1.0]))
        # states 0,0,1,0,1,1 -> transitions: 00, 01, 10, 01, 11
        chain = MarkovChain.fit([np.array([0, 0, 1, 0, 1, 1.0])], quantizer=q)
        np.testing.assert_allclose(chain.transition[0], [1 / 3, 2 / 3])
        np.testing.assert_allclose(chain.transition[1], [0.5, 0.5])
        assert chain.counts.sum() == 5

    def test_rows_stochastic(self, traces):
        series = traces.task_series("CPLS_SEL")
        chain = MarkovChain.fit(series)
        np.testing.assert_allclose(chain.transition.sum(axis=1), 1.0, atol=1e-9)

    def test_series_boundaries_not_counted(self):
        q = AdaptiveQuantizer(edges=np.array([0.5]), centers=np.array([0.0, 1.0]))
        chain = MarkovChain.fit([np.array([0.0, 0.0]), np.array([1.0, 1.0])], quantizer=q)
        # No cross-series 0->1 transition.
        assert chain.counts[0, 1] == 0
        assert chain.counts[0, 0] == 1 and chain.counts[1, 1] == 1

    def test_prediction_in_value_hull(self):
        rng = np.random.default_rng(5)
        v = rng.normal(40, 5, 3000)
        chain = MarkovChain.fit([v])
        for x in (30.0, 40.0, 50.0):
            p = chain.predict_next(x)
            assert v.min() <= p <= v.max()

    def test_ar1_prediction_beats_mean(self):
        """On an AR(1) process the chain must beat the constant-mean
        predictor -- the reason the paper uses it."""
        rng = np.random.default_rng(6)
        phi, n = 0.9, 20_000
        x = np.empty(n)
        x[0] = 0
        for i in range(1, n):
            x[i] = phi * x[i - 1] + rng.normal()
        train, test = x[: n // 2], x[n // 2 :]
        chain = MarkovChain.fit([train])
        preds = np.array([chain.predict_next(v) for v in test[:-1]])
        err_markov = np.mean((preds - test[1:]) ** 2)
        err_mean = np.mean((train.mean() - test[1:]) ** 2)
        assert err_markov < 0.65 * err_mean

    def test_stationary_distribution(self):
        rng = np.random.default_rng(7)
        chain = MarkovChain.fit([rng.normal(0, 1, 5000)])
        pi = chain.stationary()
        np.testing.assert_allclose(pi.sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(pi @ chain.transition, pi, atol=1e-8)

    def test_sample_path_values_are_centers(self):
        rng = np.random.default_rng(8)
        chain = MarkovChain.fit([rng.normal(0, 1, 2000)])
        path = chain.sample_path(50, np.random.default_rng(0))
        assert all(v in chain.quantizer.centers for v in path)

    def test_online_observe_transition(self):
        q = AdaptiveQuantizer(edges=np.array([0.5]), centers=np.array([0.0, 1.0]))
        # Transitions 0->0 and 0->1 once each: P[0,1] starts at 0.5.
        chain = MarkovChain.fit([np.array([0.0, 0.0, 1.0])], quantizer=q)
        before = chain.transition[0, 1]
        for _ in range(20):
            chain.observe_transition(0.0, 1.0)
        assert chain.transition[0, 1] > before
        np.testing.assert_allclose(chain.transition.sum(axis=1), 1.0)

    def test_unseen_row_uniform(self):
        q = AdaptiveQuantizer(
            edges=np.array([1.0, 2.0]), centers=np.array([0.5, 1.5, 2.5])
        )
        chain = MarkovChain.fit([np.array([0.0, 0.0, 0.0])], quantizer=q)
        np.testing.assert_allclose(chain.transition[2], 1.0 / 3.0)

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            MarkovChain.fit([])


class TestMarkovChain2:
    def test_occupancy_sparser_than_order1(self):
        """The paper's argument against higher orders: sample counts
        per state collapse."""
        rng = np.random.default_rng(9)
        v = rng.normal(0, 1, 200)
        q = AdaptiveQuantizer.fit(v, n_states=12)
        chain1 = MarkovChain.fit([v], quantizer=q)
        chain2 = MarkovChain2.fit([v], quantizer=q)
        frac2, mean_samples2 = chain2.occupancy()
        rows1 = (chain1.counts.sum(axis=1) > 0).mean()
        mean_samples1 = chain1.counts.sum() / max(
            (chain1.counts.sum(axis=1) > 0).sum(), 1
        )
        assert frac2 < 1.0
        assert mean_samples2 < mean_samples1

    def test_prediction_finite(self):
        rng = np.random.default_rng(10)
        chain = MarkovChain2.fit([rng.normal(0, 1, 500)])
        assert np.isfinite(chain.predict_next(0.0, 0.5))


class TestVectorizedPrediction:
    def test_predict_next_many_matches_scalar(self):
        rng = np.random.default_rng(12)
        chain = MarkovChain.fit([rng.normal(10, 2, 3000)])
        values = rng.normal(10, 2, 500)
        batch = chain.predict_next_many(values)
        scalar = np.array([chain.predict_next(v) for v in values])
        np.testing.assert_array_equal(batch, scalar)

    def test_predict_next_online_matches_scalar_walk(self):
        rng = np.random.default_rng(16)
        chain = MarkovChain.fit([rng.normal(10, 2, 300)])
        values = rng.normal(11, 3, 400)
        counts = chain.counts.copy()
        transition = chain.transition.copy()
        walk = chain.predict_next_online(values)
        # The walk ran on copies and left the chain as it was.
        np.testing.assert_array_equal(chain.counts, counts)
        np.testing.assert_array_equal(chain.transition, transition)
        scalar = []
        for m, v in enumerate(values):
            if m:
                chain.observe_transition(values[m - 1], v)
            scalar.append(chain.predict_next(v))
        np.testing.assert_array_equal(walk, np.array(scalar))

    def test_predict_next_online_emits_nothing(self):
        rng = np.random.default_rng(17)
        chain = MarkovChain.fit([rng.normal(0, 1, 300)])
        with obs.observed() as o:
            chain.predict_next_online(rng.normal(0, 1, 50))
        assert not list(o.metrics.instruments())

    def test_predict_next_online_empty(self):
        chain = MarkovChain.fit([np.arange(10.0)])
        assert chain.predict_next_online(np.empty(0)).size == 0

    def test_expected_next_values_cached(self):
        rng = np.random.default_rng(13)
        chain = MarkovChain.fit([rng.normal(0, 1, 1000)])
        assert chain.expected_next_values() is chain.expected_next_values()

    def test_cache_invalidated_by_observe_transition(self):
        rng = np.random.default_rng(14)
        chain = MarkovChain.fit([rng.normal(0, 1, 1000)])
        before = chain.expected_next_values().copy()
        for _ in range(50):
            chain.observe_transition(-2.0, 2.0)
        after = chain.expected_next_values()
        assert not np.array_equal(before, after)
        # The cache must agree with a from-scratch evaluation.
        np.testing.assert_array_equal(
            after, chain.transition @ chain.quantizer.centers
        )

    def test_sample_path_deterministic_given_seed(self):
        rng = np.random.default_rng(15)
        chain = MarkovChain.fit([rng.normal(5, 1, 2000)])
        a = chain.sample_path(200, np.random.default_rng(3), start_state=0)
        b = chain.sample_path(200, np.random.default_rng(3), start_state=0)
        np.testing.assert_array_equal(a, b)

    def test_sample_path_visits_follow_transition_matrix(self):
        # A near-deterministic 2-state flip-flop chain must alternate.
        q = AdaptiveQuantizer(edges=np.array([0.5]), centers=np.array([0.0, 1.0]))
        t = np.array([[0.01, 0.99], [0.99, 0.01]])
        chain = MarkovChain(q, t)
        path = chain.sample_path(400, np.random.default_rng(4), start_state=0)
        flips = np.mean(path[1:] != path[:-1])
        assert flips > 0.9

    def test_chain2_expected_next_values_shape(self):
        rng = np.random.default_rng(16)
        chain2 = MarkovChain2.fit([rng.normal(0, 1, 2000)])
        n = chain2.quantizer.n_states
        expected = chain2.expected_next_values()
        assert expected.shape == (n, n)
        assert expected[1, 1] == pytest.approx(
            chain2.predict_next(
                chain2.quantizer.centers[1], chain2.quantizer.centers[1]
            )
        )


class TestLabeledChains:
    """Chains over labeled finite state spaces (scenario ids)."""

    def test_from_transition_states_are_integers(self):
        t = [[0.9, 0.1], [0.3, 0.7]]
        chain = MarkovChain.from_transition(t)
        assert chain.n_states == 2
        assert chain.quantizer.state(0.0) == 0
        assert chain.quantizer.state(1.0) == 1
        np.testing.assert_allclose(chain.transition, t)

    def test_from_transition_rejects_non_square(self):
        with pytest.raises(ValueError):
            MarkovChain.from_transition([[0.5, 0.5]])

    def test_two_state_stationary_closed_form(self):
        # stay probabilities (a, b): pi_on = (1-a) / ((1-a) + (1-b)).
        a, b = 0.9, 0.7
        chain = MarkovChain.from_transition(
            [[a, 1.0 - a], [1.0 - b, b]]
        )
        pi = chain.stationary()
        assert pi[1] == pytest.approx((1 - a) / ((1 - a) + (1 - b)))

    def test_product_chain_is_kronecker(self):
        ta = np.array([[0.9, 0.1], [0.3, 0.7]])
        tb = np.array([[0.5, 0.5], [0.2, 0.8]])
        joint = product_chain(
            [MarkovChain.from_transition(ta), MarkovChain.from_transition(tb)]
        )
        assert joint.n_states == 4
        np.testing.assert_allclose(joint.transition, np.kron(ta, tb))
        # First chain most significant: joint state 2 is (a=1, b=0).
        pa = MarkovChain.from_transition(ta).stationary()
        pb = MarkovChain.from_transition(tb).stationary()
        np.testing.assert_allclose(
            joint.stationary(), np.kron(pa, pb), atol=1e-9
        )

    def test_product_chain_single_is_identity(self):
        ta = np.array([[0.9, 0.1], [0.3, 0.7]])
        joint = product_chain([MarkovChain.from_transition(ta)])
        np.testing.assert_allclose(joint.transition, ta)

    def test_product_chain_rejects_empty(self):
        with pytest.raises(ValueError):
            product_chain([])
