"""Timed-substrate benchmark: delays & MRAI vs the sync bound (BENCH_timed.json).

Runs the FPSS protocol (routes + prices) on the discrete-event timed
substrate (:mod:`repro.bgp.timed`) across a grid of delay distributions
and MRAI configurations, next to the synchronous Sect. 5 baseline.  For
every configuration the script

* asserts *model identity*: the converged routes and prices match the
  centralized Theorem 1 reference exactly
  (:func:`~repro.core.protocol.verify_against_centralized`; any
  mismatch gates the exit code),
* records virtual convergence time, deliveries, and transported rows
  next to the synchronous run's stages (vs the Theorem 2 ``max(d, d')``
  bound) and rows.

The document's ``host`` block (CPU count, Python and numpy versions)
says which machine the wall times belong to; the counts do not depend
on it.  Output goes to ``BENCH_timed.json`` (``make bench-timed``
writes it at the repo root).

Run directly::

    python benchmarks/bench_timed_protocol.py --quick --out BENCH_timed.json

This module must stay importable with the baseline toolchain only (in
particular: no scipy) -- `repro.devtools.check` enforces that for the
whole benchmarks/ directory.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.bgp.delays import ConstantDelay, DelayModel, LogNormalDelay, UniformDelay
from repro.bgp.timed import MRAI_PEER, MRAI_PREFIX, MRAIConfig
from repro.core.convergence import convergence_bound
from repro.core.protocol import (
    distributed_mechanism,
    timed_mechanism,
    verify_against_centralized,
)
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import grid_graph, integer_costs, isp_like_graph

from host_facts import host_facts

#: (rows, cols) grid shapes, n = rows * cols (see bench_protocol_scaling).
_GRID_SHAPES: Dict[int, Tuple[int, int]] = {
    16: (4, 4),
    36: (6, 6),
    64: (8, 8),
}

QUICK_SIZES: Tuple[int, ...] = (16, 36)
FULL_SIZES: Tuple[int, ...] = (16, 36, 64)

FAMILIES: Tuple[str, ...] = ("isp", "grid")

#: The delay/MRAI grid (>= 3 settings, per the acceptance criteria).
SETTINGS: Tuple[Tuple[str, DelayModel, Optional[MRAIConfig]], ...] = (
    ("zero-delay", ConstantDelay(0.0), None),
    ("uniform-jitter", UniformDelay(0.1, 1.0), None),
    (
        "peer-mrai",
        UniformDelay(0.1, 1.0),
        MRAIConfig(1.0, MRAI_PEER, jitter=0.25),
    ),
    (
        "lognormal-prefix-mrai",
        LogNormalDelay(-2.0, 0.8),
        MRAIConfig(1.0, MRAI_PREFIX),
    ),
)


def _make_graph(family: str, n: int, seed: int) -> ASGraph:
    if family == "grid":
        rows, cols = _GRID_SHAPES[n]
        return grid_graph(rows, cols, seed=seed, cost_sampler=integer_costs(1, 6))
    return isp_like_graph(n, seed=seed, cost_sampler=integer_costs(1, 6))


def _run_timed_once(
    graph: ASGraph,
    setting: str,
    delay: DelayModel,
    mrai: Optional[MRAIConfig],
    seed: int,
) -> Dict[str, Any]:
    started = time.perf_counter()
    result = timed_mechanism(graph, seed=seed, delay=delay, mrai=mrai)
    elapsed = time.perf_counter() - started
    verification = verify_against_centralized(result)
    report = result.report
    return {
        "setting": setting,
        "delay": delay.describe(),
        "mrai": mrai.describe() if mrai is not None else "off",
        "deliveries": report.deliveries,
        "convergence_time": round(report.convergence_time, 6),
        "rows_sent": report.rows_sent,
        "rows_suppressed": report.rows_suppressed,
        "mrai_deferrals": report.mrai_deferrals,
        "mrai_rows_coalesced": report.mrai_rows_coalesced,
        "model_identical": verification.ok,
        "wall_s": round(elapsed, 6),
    }


def run_config(family: str, n: int, seed: int = 0) -> Dict[str, Any]:
    """Run the sync baseline plus every timed setting on one instance."""
    graph = _make_graph(family, n, seed)
    bound = convergence_bound(graph)
    started = time.perf_counter()
    sync = distributed_mechanism(graph)
    sync_wall = time.perf_counter() - started
    sync_ok = verify_against_centralized(sync).ok
    timed = [
        _run_timed_once(graph, setting, delay, mrai, seed)
        for setting, delay, mrai in SETTINGS
    ]
    return {
        "family": family,
        "n": n,
        "seed": seed,
        "sync": {
            "stages": sync.stages,
            "bound": bound.stages,
            "within_bound": sync.stages <= bound.stages,
            "rows_sent": sync.report.total_rows_sent,
            "model_identical": sync_ok,
            "wall_s": round(sync_wall, 6),
        },
        "timed": timed,
        "model_identical": sync_ok and all(t["model_identical"] for t in timed),
    }


def run_suite(quick: bool = True, seed: int = 0) -> Dict[str, Any]:
    """Run the whole grid of configurations; returns the JSON document."""
    sizes = QUICK_SIZES if quick else FULL_SIZES
    results: List[Dict[str, Any]] = []
    for family in FAMILIES:
        for n in sizes:
            results.append(run_config(family, n, seed=seed))
    return {
        "benchmark": "timed_protocol",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "settings": [setting for setting, _delay, _mrai in SETTINGS],
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": host_facts(),
        "results": results,
        "all_model_identical": all(r["model_identical"] for r in results),
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
        default="BENCH_timed.json",
        help="output path (default: BENCH_timed.json)",
    )
    args = parser.parse_args(argv)
    document = run_suite(quick=args.quick, seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    for record in document["results"]:
        sync = record["sync"]
        print(
            f"{record['family']} n={record['n']}: sync stages "
            f"{sync['stages']}/{sync['bound']} rows {sync['rows_sent']}"
        )
        for timed in record["timed"]:
            print(
                "  %(setting)-22s deliveries=%(deliveries)-6d "
                "conv_t=%(ct)-8.3f rows=%(rows)-6d coalesced=%(co)-5d "
                "identical=%(ok)s"
                % {
                    "setting": timed["setting"],
                    "deliveries": timed["deliveries"],
                    "ct": timed["convergence_time"],
                    "rows": timed["rows_sent"],
                    "co": timed["mrai_rows_coalesced"],
                    "ok": timed["model_identical"],
                }
            )
    print(f"wrote {args.out}")
    return 0 if document["all_model_identical"] else 1


# ----------------------------------------------------------------------
# pytest integration: the quick configuration as a tracked benchmark.
# ----------------------------------------------------------------------
def test_bench_timed_mrai(benchmark):
    graph = _make_graph("isp", 16, seed=0)
    _setting, delay, mrai = SETTINGS[2]  # peer-based MRAI over jitter

    def run_once():
        return timed_mechanism(graph, seed=0, delay=delay, mrai=mrai)

    result = benchmark(run_once)
    assert verify_against_centralized(result).ok
    baseline = timed_mechanism(graph, seed=0, delay=UniformDelay(0.1, 1.0))
    # MRAI trades virtual latency for fewer deliveries.
    assert result.report.deliveries < baseline.report.deliveries
    assert result.report.convergence_time > 0.0


if __name__ == "__main__":
    raise SystemExit(main())
