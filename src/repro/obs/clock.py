"""The injectable time source of the observability layer.

Everything in ``repro.obs`` that needs a timestamp receives a
:class:`Clock`, so (a) span timing is monotonic and immune to NTP
steps, (b) tests drive time by hand with :class:`ManualClock`, and
(c) code outside ``repro/obs/`` and ``repro/bench/`` times through
:func:`monotonic_s` rather than calling ``time.monotonic()`` /
``time.perf_counter()`` itself.  This module is the one sanctioned
stopwatch outside the bench harness.
"""

from __future__ import annotations

import time
from typing import Protocol

__all__ = [
    "Clock",
    "MonotonicClock",
    "ManualClock",
    "ZeroClock",
    "default_clock",
    "monotonic_s",
]


class Clock(Protocol):
    """Time source: milliseconds since an arbitrary, fixed origin."""

    def now_ms(self) -> float:
        """Current monotonic time in milliseconds."""


class MonotonicClock:
    """The real monotonic clock (``time.perf_counter`` based).

    ``perf_counter`` is preferred over ``monotonic`` for its higher
    resolution; both share the properties spans need (never goes
    backwards, unaffected by wall-clock adjustments).
    """

    def now_ms(self) -> float:
        return time.perf_counter() * 1e3


class ManualClock:
    """A hand-driven clock for deterministic tests."""

    def __init__(self, start_ms: float = 0.0) -> None:
        self._now = float(start_ms)

    def now_ms(self) -> float:
        return self._now

    def advance(self, ms: float) -> float:
        """Move time forward; returns the new now."""
        if ms < 0:
            raise ValueError("time cannot go backwards")
        self._now += float(ms)
        return self._now


class ZeroClock:
    """The disabled-path clock: never touches the OS, always 0.

    The null observability singleton carries this so that code running
    with observability off performs no time syscalls at all.
    """

    def now_ms(self) -> float:
        return 0.0


_DEFAULT = MonotonicClock()


def default_clock() -> Clock:
    """The process-wide real clock instance."""
    return _DEFAULT


def monotonic_s() -> float:
    """Monotonic seconds -- the sanctioned stopwatch for non-bench code.

    Callers outside ``repro/obs`` and ``repro/bench`` that need a
    coarse duration (e.g. the experiment driver's per-experiment
    timing) route through this helper instead of calling ``time``
    directly.
    """
    return _DEFAULT.now_ms() / 1e3
