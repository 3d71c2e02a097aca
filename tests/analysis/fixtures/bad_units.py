"""Fixture: unit-discipline violations the dataflow pass must catch.

Each function seeds exactly one class of violation; the tests assert
rule ids and line numbers against this file, so keep the layout
stable (append new cases at the bottom).
"""

from __future__ import annotations

from repro.util.quantity import KBytes, Milliseconds


def frame_budget(latency_ms: Milliseconds, payload_kb: KBytes) -> float:
    # The canonical seeded bug: milliseconds + binary kilobytes.
    return latency_ms + payload_kb


def annotated_return(latency_ms: Milliseconds) -> KBytes:
    return latency_ms


def misnamed(buffer_kb: KBytes) -> None:
    total_ms = buffer_kb
    del total_ms


def consume_kb(payload: KBytes) -> float:
    return payload * 2.0


def caller(latency_ms: Milliseconds) -> None:
    consume_kb(latency_ms)


def drops_unit(latency_ms: Milliseconds):  # clean: no unit conflict
    return latency_ms * 2.0


def compares(latency_ms: Milliseconds, payload_kb: KBytes) -> bool:
    return latency_ms > payload_kb


def accumulates(latency_ms: Milliseconds, payload_kb: KBytes) -> float:
    total = latency_ms
    total += payload_kb
    return total
