"""Exponentially Weighted Moving Average filtering (paper Eq. 1).

The paper separates *long-term structural* fluctuations in task
computation time from *short-term stochastic* ones by low-pass
filtering the measured series with an EWMA (an order-1 IIR filter):

    y(t_k) = (1 - alpha) * y(t_{k-1}) + alpha * x(t_k)        (Eq. 1)

The low-pass output models the long-term trend; the residual
(high-pass part) is what the Markov chain of ``repro.core.markov``
models.  ``high_low_split`` performs exactly the decomposition shown
in Fig. 3 ("LPF (Ridge detection)" / "HPF (Ridge detection)").
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = ["EwmaFilter", "ewma", "high_low_split"]


class EwmaFilter:
    """Stateful streaming EWMA filter.

    Parameters
    ----------
    alpha:
        Smoothing factor in ``(0, 1]``.  Larger values weight recent
        samples more heavily (faster adaptation, less smoothing).
    initial:
        Optional initial state.  When omitted, the first observed
        sample initializes the state (avoiding a startup transient
        toward zero).

    Examples
    --------
    >>> f = EwmaFilter(alpha=0.5)
    >>> f.update(10.0)
    10.0
    >>> f.update(20.0)
    15.0
    """

    __slots__ = ("alpha", "_state")

    def __init__(self, alpha: float, initial: float | None = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = float(alpha)
        self._state: float | None = None if initial is None else float(initial)

    @property
    def value(self) -> float | None:
        """Current filter state (``None`` before the first update)."""
        return self._state

    def update(self, x: float) -> float:
        """Feed one sample and return the new filtered value."""
        if self._state is None:
            self._state = float(x)
        else:
            self._state = (1.0 - self.alpha) * self._state + self.alpha * float(x)
        return self._state

    def peek(self) -> float:
        """Return the filter state, raising if never updated.

        The EWMA state *is* the one-step-ahead long-term prediction:
        the filter is used in predict-then-observe loops where
        ``peek()`` supplies the prediction for frame ``k`` before
        ``update()`` ingests the measurement of frame ``k``.
        """
        if self._state is None:
            raise RuntimeError("EwmaFilter.peek() before any update()")
        return self._state

    def reset(self, initial: float | None = None) -> None:
        """Clear (or re-seed) the filter state."""
        self._state = None if initial is None else float(initial)


def ewma(x: ArrayLike, alpha: float, initial: float | None = None) -> NDArray[np.float64]:
    """Vectorized batch EWMA of a 1-D series.

    *Bit-identical* to feeding ``x`` sample-by-sample through
    :class:`EwmaFilter`: the recurrence ``y_k = a x_k + (1-a) y_{k-1}``
    is an order-1 IIR filter evaluated by :func:`scipy.signal.lfilter`
    with the same double-precision multiply-add per step, just in C.
    Exactness matters downstream -- batch predictors quantize the
    filter residuals, and a last-ulp discrepancy at a bin edge would
    flip the Markov state the streaming path selects.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("ewma expects a 1-D series")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    n = x.size
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out

    decay = 1.0 - alpha
    if decay == 0.0:
        out[:] = x  # alpha == 1 ignores history entirely
        return out

    # Deferred: importing scipy.signal costs about a second, and most
    # ``import repro`` callers never filter a batch series.
    from scipy.signal import lfilter

    b = np.array([alpha])
    a = np.array([1.0, -decay])
    if initial is None:
        # First sample seeds the filter exactly (y_0 = x_0).
        out[0] = x[0]
        if n > 1:
            out[1:], _ = lfilter(b, a, x[1:], zi=np.array([decay * x[0]]))
    else:
        out[:], _ = lfilter(b, a, x, zi=np.array([decay * float(initial)]))
    return out


def high_low_split(
    x: ArrayLike, alpha: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Split a series into (high-pass, low-pass) parts, as in Fig. 3.

    Returns
    -------
    (hpf, lpf):
        ``lpf`` is the EWMA of ``x``; ``hpf = x - lpf`` is the
        short-term fluctuation the Markov chain models.
    """
    x = np.asarray(x, dtype=np.float64)
    lpf = ewma(x, alpha)
    return x - lpf, lpf
