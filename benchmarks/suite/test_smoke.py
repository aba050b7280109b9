"""Smoke test of the benchmark suite: every workload at toy size.

Runs each workload untraced and traced through the same driver code the
benchmark uses (one instance, n <= 40, 10 reprice events), then checks
the declarations in ``BENCHMARK.json``, the metric names, the output
checks, the trace coverage and ``compare`` on the records.  Collected by
``make bench`` (``pytest benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

import copy
import json
import re

import run as suite

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _check_declarations(declarations):
    assert set(declarations) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in declarations["workloads"]]
    metrics = declarations["end_to_end"] + declarations["per_layer"]
    for name in names + [m["name"] for m in metrics]:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in declarations["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_suite_smoke(benchmark, tmp_path):
    declarations = suite.load_declarations()
    _check_declarations(declarations)

    def run_all():
        return [
            suite.run_workload(w["name"], 0, 0, trace, toy=True, declarations=declarations)
            for w in declarations["workloads"]
            for trace in (False, True)
        ]

    records = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for record in records:
        assert record["correct"], record["failures"]
        assert record["attempted"] >= 1 and record["failed"] == 0
        declared = declarations["per_layer" if record["trace"] else "end_to_end"]
        assert list(record["metrics"]) == [m["name"] for m in declared]
        if record["trace"]:
            assert record["metrics"]["trace.coverage"]["value"] >= 0.95, record["workload"]
        else:
            assert all(m["value"] > 0 for m in record["metrics"].values()), record["workload"]

    base = tmp_path / "base.json"
    base.write_text(json.dumps({"host": {}, "records": records}))
    assert suite.compare([str(base)], [str(base)]) == 0

    changed = copy.deepcopy(records)
    traced = next(r for r in changed if r["trace"] and r["workload"].startswith("converge"))
    traced["metrics"]["bgp.messages"]["value"] += 1
    head = tmp_path / "head.json"
    head.write_text(json.dumps({"host": {}, "records": changed}))
    assert suite.compare([str(base)], [str(head)]) == 1

    traced["fingerprint"] = "0" * 64
    head.write_text(json.dumps({"host": {}, "records": changed}))
    assert suite.compare([str(base)], [str(head)]) == 2
