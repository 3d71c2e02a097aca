"""Scenario-based Markov chains over adaptively quantized values.

Section 4 of the paper:

* "The number of states M is C_max / sigma_C, where C_max denotes the
  largest measured value and sigma_C the standard deviation.  We have
  experimentally evolved to a model with approximately 2M states to
  obtain sufficient accuracy."
* "The quantization intervals are adaptively chosen such that each
  interval contains on the average the same amount of samples."
* "The entries of the transition probability matrix {P_ij} are
  estimated by P_ij = n_ij / sum_k n_ik" (Eq. 2).

:class:`AdaptiveQuantizer` implements the state-space construction,
:class:`MarkovChain` the transition estimation and one-step
prediction.  A second-order variant (:class:`MarkovChain2`) exists to
reproduce the paper's argument for *rejecting* higher orders: the
state space grows exponentially and per-state sample counts collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

import repro.obs as obs

__all__ = ["AdaptiveQuantizer", "MarkovChain", "MarkovChain2", "product_chain"]


def _integer_quantizer(n_states: int) -> AdaptiveQuantizer:
    """Quantizer whose states *are* the integers ``0..n_states-1``.

    Used for chains over labeled finite state spaces (application
    scenarios, joint scenario tuples) rather than quantized
    measurement values: ``state(i) == i`` and ``center(i) == i``.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    centers = np.arange(n_states, dtype=np.float64)
    edges = centers[:-1] + 0.5
    return AdaptiveQuantizer(edges=edges, centers=centers)


@dataclass(frozen=True)
class AdaptiveQuantizer:
    """Equal-mass quantizer with the paper's state-count rule.

    Attributes
    ----------
    edges:
        Interior bin edges, ascending; values below ``edges[0]`` map
        to state 0, above ``edges[-1]`` to the last state.
    centers:
        Per-state representative value (mean of training samples in
        the bin), used to de-quantize predictions.
    """

    edges: NDArray[np.float64]
    centers: NDArray[np.float64]

    @property
    def n_states(self) -> int:
        return int(self.centers.size)

    @staticmethod
    def paper_state_count(
        values: NDArray[np.float64],
        states_factor: float = 2.0,
        min_states: int = 2,
        max_states: int = 32,
    ) -> int:
        """``round(states_factor * C_max / sigma_C)``, clipped.

        The clip bounds keep the estimator sane on degenerate data
        (constant series -> 2 states; ultra-spiky series would
        otherwise demand thousands of states that the sample count
        cannot support -- the very problem the paper notes for
        higher-order chains).
        """
        sigma = float(np.std(values))
        if sigma <= 0:
            return min_states
        m = float(np.max(values)) / sigma
        return int(np.clip(round(states_factor * m), min_states, max_states))

    @staticmethod
    def fit(
        values: ArrayLike,
        n_states: int | None = None,
        states_factor: float = 2.0,
        max_states: int = 32,
        equal_mass: bool = True,
    ) -> "AdaptiveQuantizer":
        """Build a quantizer from training samples.

        Parameters
        ----------
        values:
            Training samples (1-D).
        n_states:
            Explicit state count; derived from the paper rule when
            omitted.
        states_factor:
            The "approximately 2M" refinement factor.
        max_states:
            Upper clip of the state count.
        equal_mass:
            Equal-sample-mass intervals (the paper's choice) vs
            equal-width intervals (ablation baseline).
        """
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size < 2:
            raise ValueError("need at least 2 samples to fit a quantizer")
        if n_states is None:
            n_states = AdaptiveQuantizer.paper_state_count(
                v, states_factor=states_factor, max_states=max_states
            )
        n_states = max(2, int(n_states))

        if equal_mass:
            qs = np.linspace(0.0, 1.0, n_states + 1)[1:-1]
            edges = np.quantile(v, qs)
        else:
            edges = np.linspace(v.min(), v.max(), n_states + 1)[1:-1]
        # Collapse duplicate edges (heavily tied samples).
        edges = np.unique(edges)

        states = np.searchsorted(edges, v, side="right")
        n_eff = edges.size + 1
        centers = np.empty(n_eff, dtype=np.float64)
        for s in range(n_eff):
            sel = v[states == s]
            if sel.size:
                centers[s] = float(sel.mean())
            elif s > 0:
                centers[s] = centers[s - 1]
            else:
                centers[s] = float(v.mean())
        return AdaptiveQuantizer(edges=np.asarray(edges, dtype=np.float64), centers=centers)

    def state(self, value: float) -> int:
        """Quantize one value to its state index."""
        return int(np.searchsorted(self.edges, value, side="right"))

    def states(self, values: ArrayLike) -> NDArray[np.intp]:
        """Vectorized quantization."""
        return np.searchsorted(
            self.edges, np.asarray(values, dtype=np.float64), side="right"
        )

    def center(self, state: int) -> float:
        """Representative value of a state."""
        return float(self.centers[state])


class MarkovChain:
    """First-order Markov chain on quantized values (Eq. 2).

    Parameters
    ----------
    quantizer:
        The state space.
    transition:
        Row-stochastic ``(n, n)`` matrix.
    counts:
        Raw transition counts (kept for online updates and for the
        sample-sparsity diagnostics of the order ablation).
    """

    def __init__(
        self,
        quantizer: AdaptiveQuantizer,
        transition: NDArray[np.float64],
        counts: NDArray[np.float64] | None = None,
    ) -> None:
        n = quantizer.n_states
        transition = np.asarray(transition, dtype=np.float64)
        if transition.shape != (n, n):
            raise ValueError(f"transition must be ({n},{n})")
        if not np.allclose(transition.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("transition rows must sum to 1")
        self.quantizer = quantizer
        self.transition = transition
        self.counts = (
            np.asarray(counts, dtype=np.float64)
            if counts is not None
            else np.zeros((n, n))
        )
        self._expected_next: NDArray[np.float64] | None = None

    @property
    def n_states(self) -> int:
        return self.quantizer.n_states

    # -- estimation -------------------------------------------------------------

    @staticmethod
    def fit(
        series: Sequence[ArrayLike],
        quantizer: AdaptiveQuantizer | None = None,
        n_states: int | None = None,
        states_factor: float = 2.0,
        equal_mass: bool = True,
        smoothing: float = 0.0,
    ) -> "MarkovChain":
        """Estimate a chain from one or more value series.

        Transitions are only counted *within* a series (sequence
        boundaries and execution gaps break the Markov property).
        ``smoothing`` adds a small Laplace count to every cell; rows
        never observed fall back to the uniform distribution, so the
        chain stays usable on unseen states.
        """
        arrays = [np.asarray(s, dtype=np.float64).ravel() for s in series]
        arrays = [a for a in arrays if a.size > 0]
        if not arrays:
            raise ValueError("no training data")
        all_values = np.concatenate(arrays)
        if quantizer is None:
            quantizer = AdaptiveQuantizer.fit(
                all_values,
                n_states=n_states,
                states_factor=states_factor,
                equal_mass=equal_mass,
            )
        n = quantizer.n_states
        counts = np.full((n, n), float(smoothing))
        for a in arrays:
            if a.size < 2:
                continue
            st = quantizer.states(a)
            # Vectorized bigram count (Eq. 2 numerator n_ij).
            np.add.at(counts, (st[:-1], st[1:]), 1.0)
        transition = MarkovChain._normalize(counts)
        return MarkovChain(quantizer, transition, counts)

    @staticmethod
    def from_transition(transition: ArrayLike) -> "MarkovChain":
        """Chain over the integer states ``0..n-1`` of a row-stochastic
        matrix.

        The scenario-space model checker uses this for chains whose
        states are *labels* (scenario ids) rather than quantized
        measurements: ``predict`` semantics still hold (``centers[i] ==
        i``), and :meth:`stationary` / :meth:`next_distribution` work
        unchanged.
        """
        t = np.asarray(transition, dtype=np.float64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError(f"transition must be square, got {t.shape}")
        return MarkovChain(_integer_quantizer(t.shape[0]), t)

    @staticmethod
    def _normalize(counts: NDArray[np.float64]) -> NDArray[np.float64]:
        row_sums = counts.sum(axis=1, keepdims=True)
        n = counts.shape[0]
        uniform = np.full((1, n), 1.0 / n)
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(row_sums > 0, counts / np.where(row_sums > 0, row_sums, 1), uniform)
        return t

    # -- prediction ---------------------------------------------------------------

    def expected_next_values(self) -> NDArray[np.float64]:
        """Per-state expected next value, ``transition @ centers``.

        Cached: this is the inner product behind every one-step
        prediction, and batch prediction over a whole trace reuses it
        for all frames.  Invalidated by :meth:`observe_transition`.
        """
        if self._expected_next is None:
            self._expected_next = self.transition @ self.quantizer.centers
        return self._expected_next

    def predict_from_state(self, state: int) -> float:
        """Expected next value given the current state."""
        return float(self.expected_next_values()[state])

    def predict_next(self, value: float) -> float:
        """Expected next value given the current value."""
        state = self.quantizer.state(value)
        o = obs.get_obs()
        if o.enabled:
            # Quantizer-state occupancy: which bins the online stream
            # actually visits (vs the training-time equal-mass design).
            o.metrics.counter("markov_state_total", state=str(state)).inc()
        return self.predict_from_state(state)

    def predict_next_many(self, values: ArrayLike) -> NDArray[np.float64]:
        """Vectorized :meth:`predict_next` over an array of values."""
        states = self.quantizer.states(values)
        return self.expected_next_values()[states]

    def predict_next_online(self, values: ArrayLike) -> NDArray[np.float64]:
        """Walk-forward :meth:`predict_next` with online updating.

        ``out[m]`` is the prediction from ``values[m]`` after
        :meth:`observe_transition` has folded the transitions
        ``values[i] -> values[i + 1]`` for every ``i < m`` -- what an
        online-updating predictor reads after ``m + 1`` observations.
        The walk runs on copies of the counts and transition matrix
        and re-evaluates ``transition @ centers`` after every update,
        the ops the chain itself runs, so each entry is bit-identical
        to the scalar protocol's.  The chain is left untouched and no
        telemetry is emitted.
        """
        states = self.quantizer.states(values).tolist()
        out = np.empty(len(states), dtype=np.float64)
        if not states:
            return out
        counts = self.counts.copy(order="K")
        transition = self.transition.copy(order="K")
        centers = self.quantizer.centers
        out[0] = (transition @ centers)[states[0]]
        for m in range(1, len(states)):
            i, j = states[m - 1], states[m]
            counts[i, j] += 1.0
            row = counts[i]
            transition[i] = row / row.sum()
            out[m] = (transition @ centers)[j]
        return out

    def next_distribution(self, state: int) -> NDArray[np.float64]:
        """Transition row of ``state``."""
        return self.transition[state].copy()

    def stationary(self, tol: float = 1e-12, max_iter: int = 10_000) -> NDArray[np.float64]:
        """Stationary distribution by power iteration."""
        n = self.n_states
        pi = np.full(n, 1.0 / n)
        for _ in range(max_iter):
            nxt = pi @ self.transition
            if np.abs(nxt - pi).max() < tol:
                return nxt
            pi = nxt
        return pi

    def sample_path(
        self, n: int, rng: np.random.Generator, start_state: int | None = None
    ) -> NDArray[np.float64]:
        """Sample a synthetic value path (for model-based simulation)."""
        if n <= 0:
            return np.empty(0)
        state = (
            int(rng.choice(self.n_states, p=self.stationary()))
            if start_state is None
            else int(start_state)
        )
        # Inverse-CDF sampling against precomputed cumulative rows: one
        # uniform draw per step and a searchsorted, instead of a fresh
        # rng.choice() (which rebuilds its alias table every call).
        cum = np.cumsum(self.transition, axis=1)
        u = rng.random(n)
        last = self.n_states - 1
        states = np.empty(n, dtype=np.intp)
        for i in range(n):
            states[i] = state
            state = min(int(np.searchsorted(cum[state], u[i], side="right")), last)
        return self.quantizer.centers[states]

    # -- online update ---------------------------------------------------------------

    def observe_transition(self, prev_value: float, value: float) -> None:
        """Online model training (Section 6, "Profiling"): fold one
        observed transition into the counts and re-normalize its row."""
        i = self.quantizer.state(prev_value)
        j = self.quantizer.state(value)
        self.counts[i, j] += 1.0
        row = self.counts[i]
        self.transition[i] = row / row.sum()
        self._expected_next = None
        o = obs.get_obs()
        if o.enabled:
            o.metrics.counter("markov_online_transition_total").inc()


def product_chain(chains: Sequence[MarkovChain]) -> MarkovChain:
    """Compose independent chains into one over the product space.

    The joint state of ``k`` independent chains with ``n_1 .. n_k``
    states is mixed-radix encoded, *first chain most significant*::

        joint = ((s_1 * n_2) + s_2) * n_3 + ... + s_k

    which is exactly ``numpy.ravel_multi_index((s_1 .. s_k), dims)``.
    Because the components evolve independently, the joint transition
    matrix is the Kronecker product of the component matrices and the
    joint stationary distribution is the outer product of the component
    stationaries -- the schedulability checker relies on both to weight
    composite-workload scenarios by reachability.
    """
    if not chains:
        raise ValueError("need at least one component chain")
    transition = chains[0].transition
    for chain in chains[1:]:
        transition = np.kron(transition, chain.transition)
    return MarkovChain.from_transition(transition)


class MarkovChain2:
    """Second-order chain: state = (previous, current) value bins.

    Exists to reproduce the paper's *negative* result on higher-order
    modeling: "with an increasing order, the number of samples for
    each estimate is very small, even for long data sets".
    :meth:`occupancy` quantifies exactly that sparsity.
    """

    def __init__(self, quantizer: AdaptiveQuantizer, counts: NDArray[np.float64]) -> None:
        n = quantizer.n_states
        if counts.shape != (n, n, n):
            raise ValueError(f"counts must be ({n},{n},{n})")
        self.quantizer = quantizer
        self.counts = counts
        sums = counts.sum(axis=2, keepdims=True)
        uniform = np.full(n, 1.0 / n)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.transition = np.where(
                sums > 0, counts / np.where(sums > 0, sums, 1), uniform
            )

    @staticmethod
    def fit(
        series: Sequence[ArrayLike], quantizer: AdaptiveQuantizer | None = None
    ) -> "MarkovChain2":
        arrays = [np.asarray(s, dtype=np.float64).ravel() for s in series]
        arrays = [a for a in arrays if a.size > 0]
        if not arrays:
            raise ValueError("no training data")
        if quantizer is None:
            quantizer = AdaptiveQuantizer.fit(np.concatenate(arrays))
        n = quantizer.n_states
        counts = np.zeros((n, n, n))
        for a in arrays:
            if a.size < 3:
                continue
            st = quantizer.states(a)
            np.add.at(counts, (st[:-2], st[1:-1], st[2:]), 1.0)
        return MarkovChain2(quantizer, counts)

    def expected_next_values(self) -> NDArray[np.float64]:
        """``(n, n)`` matrix of expected next values per (i, j) state."""
        return self.transition @ self.quantizer.centers

    def predict_next(self, prev_value: float, value: float) -> float:
        i = self.quantizer.state(prev_value)
        j = self.quantizer.state(value)
        return float(self.transition[i, j] @ self.quantizer.centers)

    def occupancy(self) -> tuple[float, float]:
        """(fraction of (i,j) rows ever observed, mean samples/row).

        The sparsity diagnostic behind the paper's rejection of
        higher-order chains.
        """
        row_totals = self.counts.sum(axis=2)
        observed = row_totals > 0
        frac = float(observed.mean())
        mean_samples = float(row_totals[observed].mean()) if observed.any() else 0.0
        return frac, mean_samples
