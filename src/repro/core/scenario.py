"""Scenario state table: switch prediction (Section 4).

"Data-dependent switch statements in the task graph are modeled with
state tables."  The table is a first-order Markov chain over the
eight scenario ids: trained from profiled scenario chains, it
predicts the most likely switch state of the next frame -- which
decides *which tasks* the computation model must price.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.imaging.pipeline import SwitchState

__all__ = ["ScenarioTable", "N_SCENARIOS"]

N_SCENARIOS: int = 8


def _power_iterate(t: NDArray[np.float64]) -> NDArray[np.float64]:
    """Stationary distribution of ``t`` by power iteration.

    Returns the last iterate *before* the converged step (``pi``, not
    ``nxt``); every latency budget is pinned to that choice.
    """
    pi = np.full(N_SCENARIOS, 1.0 / N_SCENARIOS)
    for _ in range(10_000):
        nxt = pi @ t
        if np.abs(nxt - pi).max() < 1e-12:
            break
        pi = nxt
    return pi


class ScenarioTable:
    """8x8 scenario transition table with online updating.

    The table keeps its derived state current instead of recomputing
    it per access: :meth:`observe` re-normalises only the touched row
    of the transition matrix and drops the cached stationary
    distribution, which the next :meth:`stationary` call re-solves.
    :meth:`fit` solves it up front, so copies of a fitted table (one
    per managed replay) start with it.  ``observe`` is the only
    mutator; ``counts`` and ``transition`` are read-only views.
    """

    def __init__(self, counts: NDArray[np.float64] | None = None) -> None:
        self._counts = (
            np.array(counts, dtype=np.float64)
            if counts is not None
            else np.zeros((N_SCENARIOS, N_SCENARIOS))
        )
        if self._counts.shape != (N_SCENARIOS, N_SCENARIOS):
            raise ValueError("counts must be 8x8")
        # Row-stochastic, uniform for unseen rows.
        sums = self._counts.sum(axis=1, keepdims=True)
        uniform = np.full((1, N_SCENARIOS), 1.0 / N_SCENARIOS)
        with np.errstate(invalid="ignore", divide="ignore"):
            self._transition = np.where(
                sums > 0, self._counts / np.where(sums > 0, sums, 1), uniform
            )
        self._stationary: NDArray[np.float64] | None = None

    @staticmethod
    def fit(chains: Sequence[NDArray[np.int64]]) -> "ScenarioTable":
        """Estimate from per-sequence scenario-id chains."""
        counts = np.zeros((N_SCENARIOS, N_SCENARIOS))
        for chain in chains:
            c = np.asarray(chain, dtype=np.int64)
            if c.size < 2:
                continue
            if c.min() < 0 or c.max() >= N_SCENARIOS:
                raise ValueError("scenario ids must be in [0, 8)")
            np.add.at(counts, (c[:-1], c[1:]), 1.0)
        table = ScenarioTable(counts)
        table.stationary()  # solved here, so deep copies inherit it
        return table

    @property
    def counts(self) -> NDArray[np.float64]:
        """Observed transition counts (read-only view)."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    @property
    def transition(self) -> NDArray[np.float64]:
        """Row-stochastic transition matrix (uniform for unseen rows),
        as a read-only view of the cached matrix."""
        view = self._transition.view()
        view.flags.writeable = False
        return view

    def predict_next(self, current: int) -> int:
        """Most likely next scenario id.

        Ties break toward *staying* in the current scenario (the
        empirically dominant behaviour of the application).
        """
        row = self._transition[int(current)]
        best = float(row.max())
        if row[int(current)] >= best - 1e-12:
            return int(current)
        return int(np.argmax(row))

    def predict_state(self, current: SwitchState) -> SwitchState:
        """Switch-state-typed convenience wrapper."""
        return SwitchState.from_scenario_id(self.predict_next(current.scenario_id))

    def distribution(self, current: int) -> NDArray[np.float64]:
        """Next-scenario distribution from ``current``."""
        return self._transition[int(current)].copy()

    def observe(self, previous: int, current: int) -> None:
        """Online update with one observed transition."""
        if not (0 <= previous < N_SCENARIOS and 0 <= current < N_SCENARIOS):
            raise ValueError("scenario ids must be in [0, 8)")
        self._counts[previous, current] += 1.0
        row = self._counts[previous]
        self._transition[previous] = row / row.sum()
        self._stationary = None

    def stationary(self) -> NDArray[np.float64]:
        """Stationary scenario distribution (power iteration), solved
        once per table state."""
        if self._stationary is None:
            self._stationary = _power_iterate(self._transition)
        return self._stationary.copy()
