"""Protocol-scaling benchmark: full-table vs delta transport (BENCH_protocol.json).

Measures the BGP substrate's cost-to-convergence as the instance grows,
under both transports of the staged engine's one step:

* ``full``  -- Sect. 5's accounting: whole routing tables on every
  transmission;
* ``delta`` -- per-destination diff advertisements.

Both run the same senders, receivers and dirty-set decisions, so the
rows sent differ and the model does not.  For each (family, workload,
n) the script runs both transports, checks that every model-level
measure (stages, messages, entries) is identical, and records the
transport-level difference: rows actually transmitted and wall-clock.
``speedup`` thus compares whole-table receipt with delta receipt alone
and sits near 1x; it read 1.5--3.6x while ``full`` still decided every
node every stage.  Each transport runs ``REPEATS`` times per
configuration, full and delta alternating: ``wall_s`` is the median
run, ``wall_s_min`` / ``wall_s_max`` the range, ``speedup`` the ratio
of the medians, and every count must be identical across the repeats.
The document's ``host`` block (CPU count, Python and numpy versions)
says which machine the wall times belong to; the counts do not depend
on it.  Output goes to ``BENCH_protocol.json``
(``make bench-protocol`` writes it at the repo root), so the perf
trajectory of the substrate is tracked in-repo.

Run directly::

    python benchmarks/bench_protocol_scaling.py --quick --out BENCH_protocol.json

or via pytest (``make bench``), where the quick configuration doubles
as a regression assertion on the delta transport's savings.

This module must stay importable with the baseline toolchain only (in
particular: no scipy) -- `repro.devtools.check` enforces that for the
whole benchmarks/ directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.bgp.engine import SynchronousEngine
from repro.bgp.policy import SelectionPolicy
from repro.core.price_node import PriceComputingNode
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import grid_graph, integer_costs, isp_like_graph
from repro.types import Cost, NodeId

from host_facts import host_facts

#: (rows, cols) grid shapes: high-diameter instances where full-table
#: rebroadcast is at its worst.  n = rows * cols.
_GRID_SHAPES: Dict[int, Tuple[int, int]] = {
    16: (4, 4),
    36: (6, 6),
    64: (8, 8),
    100: (10, 10),
    144: (12, 12),
    200: (10, 20),
}

QUICK_SIZES: Tuple[int, ...] = (16, 36, 64)
FULL_SIZES: Tuple[int, ...] = (16, 36, 64, 100, 144, 200)

WORKLOADS: Tuple[str, ...] = ("plain", "price")
FAMILIES: Tuple[str, ...] = ("isp", "grid")

#: Runs of each transport per configuration.  One run takes 5-500 ms,
#: so a single sample let host noise set ``speedup``.
REPEATS = 5


def _price_factory(node_id: NodeId, cost: Cost, policy: SelectionPolicy):
    return PriceComputingNode(node_id, cost, policy)


def _make_graph(family: str, n: int, seed: int) -> ASGraph:
    if family == "grid":
        rows, cols = _GRID_SHAPES[n]
        return grid_graph(rows, cols, seed=seed, cost_sampler=integer_costs(1, 6))
    return isp_like_graph(n, seed=seed, cost_sampler=integer_costs(1, 6))


def _run_once(graph: ASGraph, workload: str, incremental: bool) -> Dict[str, Any]:
    kwargs: Dict[str, Any] = {"incremental": incremental}
    if workload == "price":
        kwargs["node_factory"] = _price_factory
    engine = SynchronousEngine(graph, **kwargs)
    engine.initialize()
    started = time.perf_counter()
    report = engine.run()
    elapsed = time.perf_counter() - started
    return {
        "transport": "delta" if incremental else "full",
        "stages": report.stages,
        "messages": report.total_messages,
        "entries_sent": report.total_entries_sent,
        "rows_sent": report.total_rows_sent,
        "rows_suppressed": report.total_rows_suppressed,
        "wall_s": round(elapsed, 6),
    }


def _median_run(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One transport's record over its repeats: the counts, which must
    not differ between runs, and the median wall time with its range."""
    counts = [{key: value for key, value in run.items() if key != "wall_s"} for run in runs]
    if any(other != counts[0] for other in counts[1:]):
        raise RuntimeError(f"counts differ across repeats: {counts}")
    walls = sorted(run["wall_s"] for run in runs)
    return {
        **counts[0],
        "wall_s": statistics.median(walls),
        "wall_s_min": walls[0],
        "wall_s_max": walls[-1],
    }


def run_config(family: str, workload: str, n: int, seed: int = 0) -> Dict[str, Any]:
    """Run both transports ``REPEATS`` times each, alternating, on one
    configuration; returns the record."""
    graph = _make_graph(family, n, seed)
    runs: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
    for _ in range(REPEATS):
        for incremental in (False, True):
            runs[incremental].append(_run_once(graph, workload, incremental))
    full = _median_run(runs[False])
    delta = _median_run(runs[True])
    model_identical = all(
        full[key] == delta[key] for key in ("stages", "messages", "entries_sent")
    )
    rows_ratio = (
        full["rows_sent"] / delta["rows_sent"] if delta["rows_sent"] else float("inf")
    )
    return {
        "family": family,
        "workload": workload,
        "n": n,
        "seed": seed,
        "full": full,
        "delta": delta,
        "model_identical": model_identical,
        "rows_ratio": round(rows_ratio, 3),
        "speedup": round(full["wall_s"] / delta["wall_s"], 3)
        if delta["wall_s"]
        else float("inf"),
    }


def run_suite(quick: bool = True, seed: int = 0) -> Dict[str, Any]:
    """Run the whole grid of configurations; returns the JSON document."""
    sizes = QUICK_SIZES if quick else FULL_SIZES
    results: List[Dict[str, Any]] = []
    for family in FAMILIES:
        for workload in WORKLOADS:
            for n in sizes:
                if workload == "price" and n > 100:
                    # All-pairs price rows at n > 100 make the full
                    # transport minutes-slow; the plain workload already
                    # covers those sizes.
                    continue
                results.append(run_config(family, workload, n, seed=seed))
    return {
        "benchmark": "protocol_scaling",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "repeats": REPEATS,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": host_facts(),
        "results": results,
        "all_model_identical": all(r["model_identical"] for r in results),
        "min_rows_ratio": min((r["rows_ratio"] for r in results), default=0.0),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"small sizes only {QUICK_SIZES} (CI mode; full: {FULL_SIZES})",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_protocol.json",
        help="output path (default: BENCH_protocol.json)",
    )
    args = parser.parse_args(argv)
    document = run_suite(quick=args.quick, seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    for record in document["results"]:
        print(
            "%(family)s/%(workload)s n=%(n)d: rows %(ratio).1fx, "
            "wall %(fw).2fs -> %(dw).2fs, model identical: %(ident)s"
            % {
                "family": record["family"],
                "workload": record["workload"],
                "n": record["n"],
                "ratio": record["rows_ratio"],
                "fw": record["full"]["wall_s"],
                "dw": record["delta"]["wall_s"],
                "ident": record["model_identical"],
            }
        )
    print(f"wrote {args.out}")
    return 0 if document["all_model_identical"] else 1


# ----------------------------------------------------------------------
# pytest integration: the quick configuration as a tracked benchmark.
# ----------------------------------------------------------------------
def test_bench_protocol_delta_transport(benchmark):
    graph = _make_graph("grid", 64, seed=0)

    def run_delta():
        return _run_once(graph, "plain", incremental=True)

    delta = benchmark(run_delta)
    full = _run_once(graph, "plain", incremental=False)
    for key in ("stages", "messages", "entries_sent"):
        assert full[key] == delta[key]
    assert full["rows_sent"] >= 2 * delta["rows_sent"]
    assert delta["rows_suppressed"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
