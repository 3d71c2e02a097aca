"""Bit-identity of the scenario table's cached derived state.

``ScenarioTable`` keeps its row-stochastic transition matrix current
under ``observe`` and caches its stationary distribution.  Every
latency budget is the stationary-weighted training mean, so the
caches must reproduce the from-scratch arithmetic byte for byte: the
reference functions below are verbatim copies of the code that
recomputed both on every access.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import scenario as scenario_mod
from repro.core.markov import MarkovChain
from repro.core.scenario import N_SCENARIOS, ScenarioTable
from repro.core.serialize import load_model, save_model


def reference_transition(counts: np.ndarray) -> np.ndarray:
    sums = counts.sum(axis=1, keepdims=True)
    uniform = np.full((1, N_SCENARIOS), 1.0 / N_SCENARIOS)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(
            sums > 0, counts / np.where(sums > 0, sums, 1), uniform
        )


def reference_stationary(counts: np.ndarray) -> np.ndarray:
    t = reference_transition(counts)
    pi = np.full(N_SCENARIOS, 1.0 / N_SCENARIOS)
    for _ in range(10_000):
        nxt = pi @ t
        if np.abs(nxt - pi).max() < 1e-12:
            break
        pi = nxt
    return pi


_ids = st.integers(0, N_SCENARIOS - 1)
_integer_count = st.integers(0, 50).map(float)
_fractional_count = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def count_matrices(draw) -> np.ndarray:
    cell = draw(st.sampled_from([_integer_count, _fractional_count]))
    rows = []
    for _ in range(N_SCENARIOS):
        if draw(st.booleans()) and draw(st.booleans()):
            rows.append([0.0] * N_SCENARIOS)  # an unseen scenario
        else:
            rows.append(draw(st.lists(cell, min_size=8, max_size=8)))
    return np.array(rows, dtype=np.float64)


def _same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestCachedStateIsBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(
        counts=count_matrices(),
        steps=st.lists(st.tuples(_ids, _ids, st.booleans()), max_size=40),
    )
    def test_observe_sequences(self, counts, steps):
        table = ScenarioTable(counts)
        ref = counts.copy()
        _same_bytes(table.transition, reference_transition(ref))
        _same_bytes(table.stationary(), reference_stationary(ref))
        for prev, cur, solve in steps:
            table.observe(prev, cur)
            ref[prev, cur] += 1.0
            want = reference_transition(ref)
            _same_bytes(table.transition, want)
            _same_bytes(table.distribution(cur), want[cur])
            if solve:
                _same_bytes(table.stationary(), reference_stationary(ref))
        _same_bytes(table.counts, ref)
        _same_bytes(table.stationary(), reference_stationary(ref))

    @settings(max_examples=30, deadline=None)
    @given(chains=st.lists(st.lists(_ids, max_size=60), max_size=5))
    def test_fit(self, chains):
        table = ScenarioTable.fit([np.array(c, dtype=np.int64) for c in chains])
        counts = np.zeros((N_SCENARIOS, N_SCENARIOS))
        for c in chains:
            for a, b in zip(c, c[1:]):
                counts[a, b] += 1.0
        _same_bytes(table.transition, reference_transition(counts))
        _same_bytes(table.stationary(), reference_stationary(counts))


@pytest.fixture()
def solves(monkeypatch):
    """Count calls of the table's power-iteration solver."""
    calls: list[int] = []
    real = scenario_mod._power_iterate

    def counting(t):
        calls.append(1)
        return real(t)

    monkeypatch.setattr(scenario_mod, "_power_iterate", counting)
    return calls


class TestSolvedOncePerState:
    def test_deepcopy_of_fitted_model_does_not_solve(
        self, trained_model, solves
    ):
        want = trained_model.expected_frame_ms()
        replay = copy.deepcopy(trained_model)
        assert replay.expected_frame_ms() == want
        assert solves == []

    def test_fit_solves_once(self, traces, solves):
        table = ScenarioTable.fit(traces.scenario_chains())
        assert len(solves) == 1
        table.stationary()
        table.stationary()
        assert len(solves) == 1

    def test_observe_invalidates(self, trained_model, solves):
        table = copy.deepcopy(trained_model.scenarios)
        table.observe(3, 5)
        table.stationary()
        table.stationary()
        assert len(solves) == 1
        _same_bytes(
            table.stationary(), reference_stationary(np.array(table.counts))
        )

    def test_loaded_model_solves_lazily(
        self, trained_model, tmp_path, solves
    ):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        loaded = load_model(path)
        assert solves == []
        assert loaded.expected_frame_ms() == trained_model.expected_frame_ms()
        loaded.expected_frame_ms()
        assert len(solves) == 1


class TestCachesStayPrivate:
    def test_transition_and_counts_are_read_only(self, trained_model):
        table = copy.deepcopy(trained_model.scenarios)
        with pytest.raises(ValueError):
            table.transition[0, 0] = 1.0
        with pytest.raises(ValueError):
            table.counts[0, 0] = 1.0

    def test_stationary_returns_a_copy(self, trained_model):
        table = copy.deepcopy(trained_model.scenarios)
        pi = table.stationary()
        want = pi.copy()
        pi[:] = 0.0
        _same_bytes(table.stationary(), want)

    def test_constructor_copies_counts(self):
        counts = np.eye(N_SCENARIOS)
        table = ScenarioTable(counts)
        table.observe(0, 1)
        assert counts[0, 1] == 0.0

    def test_saved_bytes_carry_no_cache(self, trained_model, tmp_path):
        """Solving (or not) leaves the serialized model unchanged."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(trained_model, a)
        save_model(load_model(a), b)
        assert a.read_bytes() == b.read_bytes()
        assert b"stationary" not in a.read_bytes()


class TestPowerIterationReturnsPinned:
    """The table's solver returns the iterate *before* the converged
    step; ``MarkovChain.stationary`` returns the one after.  Unifying
    the two would move every latency budget."""

    def test_table_returns_pi_chain_returns_nxt(self, traces):
        table = ScenarioTable.fit(traces.scenario_chains())
        t = table.transition
        pi = table.stationary()
        chain = MarkovChain.from_transition(t).stationary()
        _same_bytes(chain, pi @ t)
        assert np.abs(chain - pi).max() < 1e-12
        assert chain.tobytes() != pi.tobytes()
