"""Tests for repro.devtools.lint (the repo-specific AST linter).

Each rule is exercised twice: against a known-bad fixture file under
``tests/fixtures/lint/repro/`` (through the real file/scoping pipeline)
and against inline snippets (unit-level edge cases).  The suite also
pins the gate property the linter exists for: the shipped ``src/repro``
tree lints clean.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import (
    ALL_CODES,
    Finding,
    lint_file,
    lint_paths,
    lint_source,
    main,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint" / "repro"
SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"


def codes_in(findings) -> set:
    return {f.code for f in findings}


class TestFixtureFiles:
    """The known-bad fixtures fire exactly their intended rule."""

    @pytest.mark.parametrize(
        "fixture, code, count",
        [
            ("bgp/bad_float_eq.py", "RPR001", 3),
            ("bgp/bad_mutation.py", "RPR002", 4),
            ("core/bad_set_iter.py", "RPR003", 3),
            ("bgp/bad_random.py", "RPR004", 5),
            ("bgp/bad_wallclock.py", "RPR005", 3),
            ("routing/bad_graph_copy.py", "RPR006", 3),
            ("routing/bad_shim_import.py", "RPR011", 2),
        ],
    )
    def test_fixture_fires_rule(self, fixture, code, count):
        findings = lint_file(FIXTURES / fixture)
        assert codes_in(findings) == {code}
        assert len(findings) == count

    def test_fixture_relpath_is_package_relative(self):
        findings = lint_file(FIXTURES / "bgp" / "bad_float_eq.py")
        assert findings[0].path == "bgp/bad_float_eq.py"

    def test_suppressed_fixture_is_clean(self):
        assert lint_file(FIXTURES / "bgp" / "suppressed.py") == []

    def test_lint_paths_walks_directories(self):
        findings = lint_paths([FIXTURES])
        assert codes_in(findings) == set(ALL_CODES)

    def test_select_restricts_codes(self):
        findings = lint_paths([FIXTURES], select=["RPR004"])
        assert codes_in(findings) == {"RPR004"}


class TestRule001FloatEquality:
    def test_cost_identifier_comparison(self):
        findings = lint_source("ok = a_cost == b_cost\n", "mechanism/x.py")
        assert codes_in(findings) == {"RPR001"}

    def test_float_literal_comparison(self):
        findings = lint_source("flag = value == 0.0\n", "mechanism/x.py")
        assert codes_in(findings) == {"RPR001"}

    def test_attribute_chain_is_cost_like(self):
        findings = lint_source("flag = entry.cost != other.cost\n", "bgp/x.py")
        assert codes_in(findings) == {"RPR001"}

    def test_non_cost_identifiers_pass(self):
        assert lint_source("flag = left == right\n", "bgp/x.py") == []

    def test_integer_literals_pass(self):
        assert lint_source("flag = hops == 2\n", "bgp/x.py") == []

    def test_ordering_comparisons_pass(self):
        assert lint_source("flag = cost < other_cost\n", "bgp/x.py") == []

    def test_tiebreak_module_is_exempt(self):
        assert lint_source("flag = cost == other_cost\n", "routing/tiebreak.py") == []


class TestRule002Mutation:
    def test_graph_subscript_assignment(self):
        findings = lint_source("graph.node_costs[1] = 2.0\n", "core/x.py")
        assert codes_in(findings) == {"RPR002"}

    def test_path_mutator_call(self):
        findings = lint_source("path.append(3)\n", "bgp/x.py")
        assert codes_in(findings) == {"RPR002"}

    def test_graph_reached_mutator_call(self):
        findings = lint_source("self.graph.adjacency.clear()\n", "bgp/x.py")
        assert codes_in(findings) == {"RPR002"}

    def test_outside_protocol_scope_passes(self):
        assert lint_source("graph.node_costs[1] = 2.0\n", "graphs/x.py") == []

    def test_rebinding_a_graph_name_passes(self):
        # rebinding the *name* is fine; only mutation through the object
        # is flagged.
        assert lint_source("graph = graph.with_cost(1, 2.0)\n", "core/x.py") == []


class TestRule003SetIteration:
    def test_annotated_parameter(self):
        source = "def f(nodes: Set[int]):\n    for n in nodes:\n        pass\n"
        assert codes_in(lint_source(source, "routing/x.py")) == {"RPR003"}

    def test_inferred_local_set(self):
        source = "seen = set()\nfor n in seen:\n    pass\n"
        assert codes_in(lint_source(source, "bgp/x.py")) == {"RPR003"}

    def test_set_operation_expression(self):
        source = "for n in set(a) - set(b):\n    pass\n"
        assert codes_in(lint_source(source, "mechanism/x.py")) == {"RPR003"}

    def test_comprehension_over_set(self):
        source = "xs = [n for n in {1, 2, 3}]\n"
        assert codes_in(lint_source(source, "core/x.py")) == {"RPR003"}

    def test_sorted_iteration_passes(self):
        assert lint_source("for n in sorted(set(xs)):\n    pass\n", "bgp/x.py") == []

    def test_rebound_to_list_passes(self):
        source = "xs = set()\nxs = sorted(xs)\nfor n in xs:\n    pass\n"
        assert lint_source(source, "bgp/x.py") == []

    def test_outside_hot_paths_passes(self):
        assert lint_source("for n in set(xs):\n    pass\n", "graphs/x.py") == []


class TestRule004Randomness:
    def test_global_random_call(self):
        source = "import random\nx = random.random()\n"
        assert codes_in(lint_source(source, "graphs/x.py")) == {"RPR004"}

    def test_unseeded_random_instance(self):
        source = "import random\nrng = random.Random()\n"
        assert codes_in(lint_source(source, "graphs/x.py")) == {"RPR004"}

    def test_seeded_random_instance_passes(self):
        source = "import random\nrng = random.Random(7)\n"
        assert lint_source(source, "graphs/x.py") == []

    def test_from_import_global_function(self):
        source = "from random import shuffle\nshuffle(xs)\n"
        assert codes_in(lint_source(source, "bgp/x.py")) == {"RPR004"}

    def test_numpy_legacy_global(self):
        source = "import numpy as np\nx = np.random.uniform()\n"
        assert codes_in(lint_source(source, "traffic/x.py")) == {"RPR004"}

    def test_unseeded_default_rng(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes_in(lint_source(source, "traffic/x.py")) == {"RPR004"}

    def test_seeded_default_rng_passes(self):
        source = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert lint_source(source, "traffic/x.py") == []

    def test_generators_module_numpy_exempt(self):
        source = "import numpy as np\nx = np.random.uniform()\n"
        assert lint_source(source, "graphs/generators.py") == []

    def test_generators_module_global_random_still_flagged(self):
        source = "import random\nx = random.random()\n"
        assert codes_in(lint_source(source, "graphs/generators.py")) == {"RPR004"}


class TestRule005WallClock:
    def test_time_time_in_protocol_code(self):
        source = "import time\nt = time.time()\n"
        assert codes_in(lint_source(source, "bgp/x.py")) == {"RPR005"}

    def test_time_ns_in_engine_code(self):
        source = "import time\nt = time.time_ns()\n"
        assert codes_in(lint_source(source, "routing/engines/x.py")) == {"RPR005"}

    def test_from_import_alias(self):
        source = "from time import time as now\nt = now()\n"
        assert codes_in(lint_source(source, "obs/x.py")) == {"RPR005"}

    def test_perf_counter_passes(self):
        source = "import time\nt = time.perf_counter()\n"
        assert lint_source(source, "bgp/x.py") == []

    def test_monotonic_passes(self):
        source = "import time\nt = time.monotonic()\n"
        assert lint_source(source, "obs/x.py") == []

    def test_sleep_passes(self):
        source = "import time\ntime.sleep(0.1)\n"
        assert lint_source(source, "core/x.py") == []

    def test_outside_protocol_scope_passes(self):
        source = "import time\nt = time.time()\n"
        assert lint_source(source, "experiments/x.py") == []


class TestRule006GraphCopies:
    def test_without_node_in_routing(self):
        source = "tree = route_tree(graph.without_node(k), j)\n"
        assert codes_in(lint_source(source, "routing/avoiding.py")) == {"RPR006"}

    def test_without_node_in_engine_code(self):
        source = "g = self._graph.without_node(k)\n"
        assert codes_in(lint_source(source, "routing/engines/x.py")) == {"RPR006"}

    def test_masked_view_passes(self):
        source = "tree = route_tree(graph.masked_without_node(k), j)\n"
        assert lint_source(source, "routing/avoiding.py") == []

    def test_outside_routing_passes(self):
        # The copying constructor is the point where a true independent
        # graph is needed (biconnectivity probes, experiments, tests).
        source = "sides = components(current.without_node(cut))\n"
        assert lint_source(source, "graphs/biconnectivity.py") == []

    def test_suppression_applies(self):
        source = "g = graph.without_node(k)  # repro-lint: ok(RPR006)\n"
        assert lint_source(source, "routing/x.py") == []


class TestRule011DeprecatedShims:
    def test_plain_import(self):
        source = "import repro.routing.scipy_engine\n"
        assert codes_in(lint_source(source, "experiments/x.py")) == {"RPR011"}

    def test_from_import(self):
        source = "from repro.routing.scipy_engine import all_pairs_costs\n"
        assert codes_in(lint_source(source, "mechanism/x.py")) == {"RPR011"}

    def test_fires_everywhere_in_tree(self):
        # Unlike the hot-path rules, shim imports are banned tree-wide:
        # there is no legitimate in-tree caller of a deprecation shim.
        source = "import repro.routing.scipy_engine\n"
        assert codes_in(lint_source(source, "graphs/x.py")) == {"RPR011"}

    def test_replacement_module_passes(self):
        source = "from repro.routing.engines import get_engine\n"
        assert lint_source(source, "experiments/x.py") == []

    def test_suppression_applies(self):
        source = (
            "import repro.routing.scipy_engine  # repro-lint: ok(RPR011)\n"
        )
        assert lint_source(source, "experiments/x.py") == []


class TestSuppression:
    def test_bare_pragma_suppresses_all(self):
        source = "x = cost == 0.0  # repro-lint: ok\n"
        assert lint_source(source, "bgp/x.py") == []

    def test_scoped_pragma_suppresses_named_code(self):
        source = "x = cost == 0.0  # repro-lint: ok(RPR001)\n"
        assert lint_source(source, "bgp/x.py") == []

    def test_scoped_pragma_keeps_other_codes(self):
        source = "import random\nx = random.random()  # repro-lint: ok(RPR001)\n"
        assert codes_in(lint_source(source, "bgp/x.py")) == {"RPR004"}


class TestGate:
    def test_shipped_tree_is_clean(self):
        findings = lint_paths([SRC_REPRO])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_main_exit_zero_on_clean_tree(self, capsys):
        assert main([str(SRC_REPRO)]) == 0
        assert capsys.readouterr().out == ""

    def test_main_exit_one_on_findings(self, capsys):
        assert main([str(FIXTURES / "bgp" / "bad_float_eq.py")]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out

    def test_main_select_option(self, capsys):
        exit_code = main(
            ["--select", "RPR002", str(FIXTURES / "bgp" / "bad_float_eq.py")]
        )
        assert exit_code == 0

    def test_main_rejects_missing_path(self, capsys):
        assert main(["does/not/exist.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_main_rejects_unknown_select_code(self, capsys):
        assert main(["--select", "RPR01", str(SRC_REPRO / "types.py")]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_unparsable_file_reported_not_crash(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = lint_paths([bad])
        assert [f.code for f in findings] == ["PARSE"]
        # parse errors always surface, even under --select filtering
        findings = lint_paths([bad], select=["RPR001"])
        assert [f.code for f in findings] == ["PARSE"]

    def test_finding_str_is_grep_friendly(self):
        finding = Finding(path="bgp/x.py", line=3, col=5, code="RPR001", message="msg")
        assert str(finding) == "bgp/x.py:3:5: RPR001 msg"
