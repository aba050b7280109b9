"""Tests for repro.devtools.flow (the interprocedural analyzer).

Four layers:

* fixture trees (one violating + one clean per rule RPR007-RPR010);
* seeded-corruption tests: copy the real ``src/repro`` tree, inject a
  defect the differential tests would need a lucky run to expose, and
  assert the analyzer pins it statically;
* determinism: analyzer output must be identical across repeated runs
  and across arbitrary input file orderings (Hypothesis);
* the baseline / suppression / CLI plumbing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.devtools.flow import (
    FLOW_CODES,
    analyze_paths,
    check_suppressions,
    default_baseline_path,
    load_baseline,
    main,
    split_baseline,
    write_baseline,
)

FIXTURES = Path(__file__).parent / "fixtures" / "flow"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"


def fixture_root(case: str) -> Path:
    return FIXTURES / case / "repro"


def codes_of(result) -> list:
    return [finding.code for finding in result.findings]


# ----------------------------------------------------------------------
# Fixture trees
# ----------------------------------------------------------------------
class TestFixtures:
    @pytest.mark.parametrize("code", [c.lower() for c in FLOW_CODES])
    def test_violation_fixture_flags_exactly_its_rule(self, code):
        result = analyze_paths([fixture_root(f"{code}_violation")])
        assert codes_of(result), f"{code}_violation produced no findings"
        assert set(codes_of(result)) == {code.upper()}

    @pytest.mark.parametrize("code", [c.lower() for c in FLOW_CODES])
    def test_clean_fixture_is_clean(self, code):
        result = analyze_paths([fixture_root(f"{code}_clean")])
        assert codes_of(result) == []

    def test_rpr007_witness_chain_names_the_origin(self):
        result = analyze_paths([fixture_root("rpr007_violation")])
        [finding] = result.findings
        assert "all_pairs_lcp" in finding.message
        assert "_route" in finding.message
        assert "_tie_break" in finding.message
        assert "random.random()" in finding.message

    def test_rpr008_catches_the_alias_write_too(self):
        result = analyze_paths([fixture_root("rpr008_violation")])
        lines = sorted(finding.line for finding in result.findings)
        assert len(lines) == 2  # direct write and `cache = self._avoiding`

    def test_rpr009_names_both_signatures(self):
        result = analyze_paths([fixture_root("rpr009_violation")])
        [finding] = result.findings
        assert "(self, graph, *, obs=None)" in finding.message
        assert "(self, graph, obs=None)" in finding.message

    def test_summaries_cover_every_function(self):
        result = analyze_paths([fixture_root("rpr007_violation")])
        assert "routing/allpairs.py::all_pairs_lcp" in result.summaries
        summary = result.summaries["routing/allpairs.py::all_pairs_lcp"]
        assert "reads-rng" in summary["effects"]

    def test_finding_keys_are_line_free(self):
        result = analyze_paths([fixture_root("rpr008_violation")])
        for finding in result.findings:
            assert str(finding.line) not in finding.key.split(":")


# ----------------------------------------------------------------------
# Seeded corruption of the real tree
# ----------------------------------------------------------------------
@pytest.fixture()
def corrupt_tree(tmp_path):
    """A private copy of ``src/repro`` to corrupt, plus the analyzer."""
    target = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, target)

    def run(relpath: str, transform):
        path = target / relpath
        path.write_text(transform(path.read_text(encoding="utf-8")))
        return analyze_paths([target], apply_suppressions=False)

    return run


class TestSeededCorruption:
    def test_clean_tree_is_clean(self):
        result = analyze_paths([SRC_REPRO])
        new, _ = split_baseline(result.findings, load_baseline(default_baseline_path()))
        assert new == []

    def test_rpr007_unseeded_rng_below_engine_entry(self, corrupt_tree):
        def inject(src):
            src = src.replace("import heapq", "import heapq\nimport random", 1)
            anchor = "def route_tree("
            i = src.index(anchor)
            end_doc = src.index('"""', src.index('"""', i) + 3) + 3
            return (
                src[:end_doc]
                + "\n    _jitter = random.random()  # injected defect"
                + src[end_doc:]
            )

        result = corrupt_tree("routing/dijkstra.py", inject)
        rpr007 = [f for f in result.findings if f.code == "RPR007"]
        assert rpr007, "injected RNG two+ calls below the entries not caught"
        # The defect surfaces at *every* engine entry that reaches Dijkstra.
        flagged = {finding.function for finding in rpr007}
        assert "all_pairs_lcp" in flagged
        assert any("FlatEngine" in name for name in flagged)
        assert all("route_tree" in finding.message for finding in rpr007)

    def test_rpr008_cache_write_outside_commit_path(self, corrupt_tree):
        def inject(src):
            return src + (
                "\n    def warm_poke(self) -> None:\n"
                "        self._trees.clear()\n"
            )

        result = corrupt_tree("routing/engines/incremental.py", inject)
        rpr008 = [f for f in result.findings if f.code == "RPR008"]
        assert len(rpr008) == 1
        assert "_trees" in rpr008[0].message
        assert "warm_poke" in rpr008[0].message

    def test_rpr009_drifted_engine_signature(self, corrupt_tree):
        def inject(src):
            old = (
                "def all_pairs(\n"
                "        self,\n"
                "        graph: ASGraph,\n"
                "        *,\n"
                "        obs: Optional[obs_mod.Obs] = None,\n"
                "    )"
            )
            new = (
                "def all_pairs(\n"
                "        self,\n"
                "        graph: ASGraph,\n"
                "        obs: Optional[obs_mod.Obs] = None,\n"
                "    )"
            )
            assert old in src
            return src.replace(old, new, 1)

        result = corrupt_tree("routing/engines/incremental.py", inject)
        rpr009 = [f for f in result.findings if f.code == "RPR009"]
        assert len(rpr009) == 1
        assert "incremental" in rpr009[0].message

    def test_rpr010_unclosed_span(self, corrupt_tree):
        def inject(src):
            return src + (
                "\n\ndef _leaky_probe(observer):\n"
                '    span = observer.span("leak")\n'
                "    span.__enter__()\n"
                "    return 1\n"
            )

        result = corrupt_tree("core/protocol.py", inject)
        rpr010 = [f for f in result.findings if f.code == "RPR010"]
        assert len(rpr010) == 1
        assert rpr010[0].function == "_leaky_probe"


# ----------------------------------------------------------------------
# Determinism of the analyzer itself
# ----------------------------------------------------------------------
def _fixture_files(case: str) -> list:
    return sorted(fixture_root(case).rglob("*.py"))


class TestDeterminism:
    def test_repeated_runs_identical_on_real_tree(self):
        first = analyze_paths([SRC_REPRO])
        second = analyze_paths([SRC_REPRO])
        assert first.findings == second.findings
        assert first.summaries == second.summaries

    @given(order=st.permutations(_fixture_files("rpr009_violation")))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_summaries_independent_of_file_order(self, order):
        baseline = analyze_paths(_fixture_files("rpr009_violation"))
        shuffled = analyze_paths(order)
        assert shuffled.findings == baseline.findings
        assert shuffled.summaries == baseline.summaries

    @given(order=st.permutations(_fixture_files("rpr007_violation")))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_witness_chains_independent_of_file_order(self, order):
        baseline = analyze_paths(_fixture_files("rpr007_violation"))
        shuffled = analyze_paths(order)
        assert [f.message for f in shuffled.findings] == [
            f.message for f in baseline.findings
        ]


# ----------------------------------------------------------------------
# Suppressions and baseline
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_flow_finding_suppressed_by_lint_comment(self, tmp_path):
        root = fixture_root("rpr010_violation")
        target = tmp_path / "repro"
        shutil.copytree(root, target)
        path = target / "bgp" / "runner.py"
        src = path.read_text()
        src = src.replace(
            'span = observer.span("stage")',
            'span = observer.span("stage")  # repro-lint: ok(RPR010)',
        )
        path.write_text(src)
        assert codes_of(analyze_paths([target])) == []
        assert codes_of(analyze_paths([target], apply_suppressions=False)) == [
            "RPR010"
        ]

    def test_in_tree_suppressions_are_all_live(self):
        assert check_suppressions([SRC_REPRO]) == []

    def test_stale_suppression_flagged(self, tmp_path):
        root = fixture_root("rpr010_clean")
        target = tmp_path / "repro"
        shutil.copytree(root, target)
        path = target / "bgp" / "runner.py"
        src = path.read_text().replace(
            "with observer.span(\"stage\"):",
            "with observer.span(\"stage\"):  # repro-lint: ok(RPR010)",
        )
        path.write_text(src)
        stale = check_suppressions([target])
        assert len(stale) == 1
        assert stale[0].path == "bgp/runner.py"
        assert "RPR010" in stale[0].message

    def test_docstring_mention_of_grammar_is_not_a_suppression(self, tmp_path):
        target = tmp_path / "repro"
        target.mkdir()
        (target / "doc.py").write_text(
            '"""Explains the `# repro-lint: ok(RPR001)` comment grammar."""\n'
        )
        assert check_suppressions([target]) == []


class TestBaseline:
    def test_checked_in_baseline_is_empty(self):
        assert load_baseline(default_baseline_path()) == set()

    def test_write_and_split_roundtrip(self, tmp_path):
        result = analyze_paths([fixture_root("rpr009_violation")])
        assert result.findings
        baseline_path = tmp_path / "baseline.json"
        write_baseline(result.findings, baseline_path)
        baseline = load_baseline(baseline_path)
        new, grandfathered = split_baseline(result.findings, baseline)
        assert new == []
        assert grandfathered == result.findings

    def test_missing_baseline_grandfathers_nothing(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == set()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestMain:
    def test_clean_fixture_exit_zero(self, capsys):
        assert main([str(fixture_root("rpr007_clean")), "--no-baseline"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exit_one_and_json_payload(self, capsys):
        code = main(
            [str(fixture_root("rpr008_violation")), "--no-baseline", "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["RPR008"] == 2
        assert payload["grandfathered"] == 0
        assert all(f["code"] == "RPR008" for f in payload["findings"])

    def test_baseline_file_grandfathers(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        root = str(fixture_root("rpr009_violation"))
        assert main([root, "--write-baseline", "--baseline", str(baseline_path)]) == 0
        capsys.readouterr()
        assert main([root, "--baseline", str(baseline_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grandfathered"] == 1
        assert payload["findings"] == []

    def test_check_suppressions_mode(self, capsys):
        assert main([str(SRC_REPRO), "--check-suppressions"]) == 0
        assert "0 stale suppression(s)" in capsys.readouterr().out

    def test_missing_path_exit_two(self, capsys):
        assert main(["/nonexistent/path/xyz"]) == 2

    def test_module_invocation_matches_acceptance_command(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.flow", str(SRC_REPRO), "--json"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC_REPRO.parent), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []

    def test_cli_analyze_subcommand_delegates(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["analyze", str(fixture_root("rpr007_clean")), "--no-baseline"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_analyze_accepts_leading_option(self, capsys):
        # a flag directly after the subcommand must be forwarded, not
        # rejected by the repro-cli parser
        from repro.cli import main as cli_main

        argv = ["analyze", "--json", "--no-baseline", str(fixture_root("rpr007_clean"))]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
