"""Tests for the AST lint framework and the project rules."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.astlint import LintContext, LintRule, lint_paths, lint_source
from repro.analysis.findings import Severity
from repro.analysis.rules import default_rules

FIXTURES = Path(__file__).parent / "fixtures"


def lint(source: str, path: str = "src/repro/somewhere/mod.py", rules=None):
    return lint_source(source, path, rules if rules is not None else default_rules())


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


class TestFramework:
    def test_alias_resolution(self):
        src = "import numpy as np\nfrom numpy import random as nr\n"
        ctx = LintContext("m.py", ast.parse(src))
        np_random = ast.parse("np.random.default_rng", mode="eval").body
        assert ctx.dotted_name(np_random) == "numpy.random.default_rng"
        nr_call = ast.parse("nr.rand", mode="eval").body
        assert ctx.dotted_name(nr_call) == "numpy.random.rand"

    def test_unresolvable_expression(self):
        ctx = LintContext("m.py", ast.parse(""))
        call_result = ast.parse("f().attr", mode="eval").body
        assert ctx.dotted_name(call_result) is None

    def test_syntax_error_becomes_finding(self):
        findings = lint("def broken(:\n")
        assert rules_of(findings) == {"lint/syntax-error"}
        assert findings[0].severity is Severity.ERROR

    def test_rule_path_filter(self):
        class Everywhere(LintRule):
            rule_id = "lint/test-everywhere"

            def on_module(self, ctx, node):
                ctx.report(self.rule_id, Severity.INFO, node, "saw module")

        class Nowhere(Everywhere):
            rule_id = "lint/test-nowhere"

            def applies_to(self, path: str) -> bool:
                return False

        findings = lint("x = 1\n", rules=[Everywhere(), Nowhere()])
        assert rules_of(findings) == {"lint/test-everywhere"}


class TestBannedRandom:
    def test_numpy_random_call_flagged(self):
        findings = lint("import numpy as np\nnp.random.rand(3)\n")
        assert rules_of(findings) == {"lint/banned-random"}

    def test_from_import_alias_flagged(self):
        src = "from numpy.random import default_rng\ndefault_rng(0)\n"
        assert rules_of(lint(src)) == {"lint/banned-random"}

    def test_stdlib_random_flagged(self):
        findings = lint("import random\nrandom.choice([1, 2])\n")
        assert rules_of(findings) == {"lint/banned-random"}

    def test_util_rng_is_exempt(self):
        src = "import numpy as np\nnp.random.default_rng(0)\n"
        assert lint(src, path="src/repro/util/rng.py") == []

    def test_generator_annotation_is_fine(self):
        src = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> float:\n"
            "    return float(rng.uniform())\n"
        )
        assert lint(src) == []


class TestUnitMix:
    def test_mixed_expression_flagged(self):
        findings = lint("bw = kb * KIB * 30.0 / MB\n")
        assert rules_of(findings) == {"lint/unit-mix"}
        assert "['MB']" in findings[0].message and "['KIB']" in findings[0].message

    def test_attribute_form_flagged(self):
        src = "from repro.util import units\nx = q * units.GB + r * units.MIB\n"
        assert rules_of(lint(src)) == {"lint/unit-mix"}

    def test_outermost_expression_reported_once(self):
        findings = lint("y = (a * KB + b * KB) / (c * KIB + d * GIB)\n")
        assert len(findings) == 1

    def test_separate_expressions_are_fine(self):
        src = "a = n * KB\nb = m * KIB\n"
        assert lint(src) == []

    def test_units_module_is_exempt(self):
        src = "x = 5 * KIB / MB\n"
        assert lint(src, path="src/repro/util/units.py") == []


class TestAppHardcode:
    def test_module_import_flagged(self):
        findings = lint("import repro.graph.stentboost\n")
        assert rules_of(findings) == {"lint/app-hardcode"}

    def test_symbol_import_flagged(self):
        src = "from repro.graph import build_stentboost_graph\n"
        assert rules_of(lint(src)) == {"lint/app-hardcode"}

    def test_from_module_import_flagged(self):
        src = "from repro.graph.stentboost import TABLE1_ROWS\n"
        assert rules_of(lint(src)) == {"lint/app-hardcode"}

    def test_graph_package_exempt(self):
        src = "from repro.graph.stentboost import build_stentboost_graph\n"
        assert lint(src, path="src/repro/graph/__init__.py") == []

    def test_workloads_package_exempt(self):
        src = "from repro.graph.stentboost import build_stentboost_graph\n"
        assert lint(src, path="src/repro/workloads/stentboost.py") == []

    def test_registry_resolution_is_fine(self):
        src = (
            "from repro.workloads import get_workload\n"
            "graph = get_workload('stentboost').build_graph()\n"
        )
        assert lint(src) == []


class TestFixtureFiles:
    def test_bad_rng_fixture(self):
        findings = lint_paths([FIXTURES / "bad_rng.py"], default_rules())
        assert rules_of(findings) == {"lint/banned-random"}

    def test_app_hardcoded_fixture(self):
        findings = lint_paths([FIXTURES / "app_hardcoded.py"], default_rules())
        assert rules_of(findings) == {"lint/app-hardcode"}
        assert len(findings) == 1

    def test_fixture_directory_walk(self):
        findings = lint_paths([FIXTURES], default_rules())
        assert {"lint/banned-random", "lint/app-hardcode"} <= rules_of(findings)


class TestRepoIsClean:
    def test_repro_package_passes_its_own_lint(self):
        """Tier-2 self-check: the lint pass is clean over src/repro."""
        import repro

        pkg = Path(repro.__file__).resolve().parent
        findings = lint_paths([pkg], default_rules())
        assert findings == []
