"""Unit-inference pass: dimension algebra + the seeded bad_units fixture."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.dataflow import build_symbol_table, check_units
from repro.analysis.dataflow.dims import (
    DIMENSIONLESS,
    dim_div,
    dim_mul,
    dim_str,
    dims_conflict,
    is_canonical,
    parse_dim,
)
from repro.analysis.findings import Severity

FIXTURES = Path(__file__).resolve().parent / "fixtures"
BAD_UNITS = FIXTURES / "bad_units.py"


def _findings(path: Path):
    return check_units(build_symbol_table([path]))


class TestDimAlgebra:
    def test_parse_roundtrip(self):
        assert dim_str(parse_dim("MB/s")) == "MB/s"
        assert dim_str(parse_dim("1/s")) == "1/s"
        assert dim_str(parse_dim("1")) == "1"
        assert parse_dim("1") == DIMENSIONLESS

    def test_conversion_constant_cancels(self):
        # KiB count times the KIB constant (B/KiB) is bytes.
        kib = parse_dim("KiB")
        factor = parse_dim("B/KiB")
        assert dim_mul(kib, factor) == parse_dim("B")

    def test_seconds_times_ms_per_s_is_ms(self):
        assert dim_mul(parse_dim("s"), parse_dim("ms/s")) == parse_dim("ms")

    def test_bytes_over_bandwidth_is_seconds(self):
        assert dim_div(parse_dim("B"), parse_dim("B/s")) == parse_dim("s")

    def test_residual_compounds_never_conflict(self):
        # 72 * GB where 72 is a bare count leaves B/GB -- not canonical,
        # so it cannot conflict with anything.
        residual = parse_dim("B/GB")
        assert not is_canonical(residual)
        assert not dims_conflict(residual, parse_dim("B/s"))

    def test_canonical_dims_conflict(self):
        assert dims_conflict(parse_dim("ms"), parse_dim("KiB"))
        assert dims_conflict(parse_dim("ms"), parse_dim("s"))
        assert not dims_conflict(parse_dim("ms"), parse_dim("ms"))
        assert not dims_conflict(parse_dim("ms"), DIMENSIONLESS)
        assert not dims_conflict(parse_dim("ms"), None)


class TestSeededFixture:
    def test_catches_every_seeded_violation(self):
        findings = _findings(BAD_UNITS)
        got = {(f.rule, int(f.location.rsplit(":", 1)[1])) for f in findings}
        assert got == {
            ("dataflow/unit-mix", 15),       # ms + KiB addition
            ("dataflow/unit-return", 19),    # returns ms, annotated KiB
            ("dataflow/unit-assign", 23),    # KiB into *_ms name
            ("dataflow/unit-arg", 32),       # ms into KiB parameter
            ("dataflow/unit-mix", 40),       # ms vs KiB comparison
            ("dataflow/unit-mix", 45),       # KiB += into ms accumulator
        }

    def test_severities(self):
        findings = _findings(BAD_UNITS)
        by_rule = {f.rule: f.severity for f in findings}
        assert by_rule["dataflow/unit-mix"] == Severity.ERROR
        assert by_rule["dataflow/unit-arg"] == Severity.ERROR
        assert by_rule["dataflow/unit-return"] == Severity.ERROR
        assert by_rule["dataflow/unit-assign"] == Severity.ERROR


class TestInterprocedural:
    def _check_source(self, tmp_path: Path, source: str):
        f = tmp_path / "mod.py"
        f.write_text(source)
        return check_units(build_symbol_table([f]))

    def test_return_dim_propagates_through_calls(self, tmp_path):
        findings = self._check_source(
            tmp_path,
            "from repro.util.quantity import Milliseconds, KBytes\n"
            "def cost() -> Milliseconds:\n"
            "    return 2.5\n"
            "def use(buffer_kb: KBytes) -> float:\n"
            "    return cost() + buffer_kb\n",
        )
        assert [f.rule for f in findings] == ["dataflow/unit-mix"]

    def test_inferred_return_reaches_callers(self, tmp_path):
        # No annotation on helper(): its ms return is *inferred* from
        # the annotated parameter, then flagged at the call site.
        findings = self._check_source(
            tmp_path,
            "from repro.util.quantity import Milliseconds, KBytes\n"
            "def helper(latency_ms: Milliseconds):\n"
            "    return latency_ms\n"
            "def use(buffer_kb: KBytes) -> None:\n"
            "    bad_kb = helper(1.0)\n",
        )
        assert ("dataflow/unit-assign" in {f.rule for f in findings})

    def test_conversion_helpers_are_sanctioned(self, tmp_path):
        findings = self._check_source(
            tmp_path,
            "from repro.util.quantity import Bytes, KBytes\n"
            "from repro.util.units import table_kb_to_bytes\n"
            "def total(payload_kb: KBytes, header_bytes: float) -> Bytes:\n"
            "    return table_kb_to_bytes(payload_kb) + header_bytes\n",
        )
        assert findings == []

    def test_ms_per_s_constant_converts(self, tmp_path):
        findings = self._check_source(
            tmp_path,
            "from repro.util.quantity import BytesPerSecond\n"
            "from repro.util.units import MS_PER_S\n"
            "def stall(n_bytes: float, link_bw: BytesPerSecond) -> None:\n"
            "    stall_ms = n_bytes / link_bw * MS_PER_S\n"
            "    del stall_ms\n",
        )
        assert findings == []

    def test_bare_1e3_conversion_is_flagged(self, tmp_path):
        findings = self._check_source(
            tmp_path,
            "from repro.util.quantity import BytesPerSecond, Bytes\n"
            "def stall(nb_bytes: Bytes, link_bw: BytesPerSecond) -> None:\n"
            "    stall_ms = nb_bytes / link_bw * 1e3\n"
            "    del stall_ms\n",
        )
        assert [f.rule for f in findings] == ["dataflow/unit-assign"]

    def test_real_repo_is_unit_clean(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        findings = check_units(build_symbol_table([src]))
        assert findings == [], [f.render() for f in findings]
