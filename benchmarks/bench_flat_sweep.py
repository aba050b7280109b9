"""Flat-sweep benchmark: the batched k-avoiding price core (BENCH_flat.json).

The ``flat`` engine is the scaling backend for the Theorem 1 price
sweep: one-shot CSR build, O(deg(k)) in-place masking for ``G - k``,
vectorized route inversion, demand-restricted and symmetry-oriented
Dijkstra batches, array-native price evaluation.  This benchmark pins
the claims that justify it, and fails (non-zero exit) if any
regresses:

1. **Identity** (phase ``identity``).  At n <= 200 the flat table must
   match the reference engine (n = 128) and the legacy k-major sweep
   frozen below (n = 200): identical ``(pair, transit)`` key sets,
   every price within ``costs_close``.

2. **Speed** (phase ``speedup``).  At n = 500 the flat sweep must
   price the table at least ``SPEEDUP_FLOOR`` (5x) faster than the
   legacy ``vcg_price_rows`` sweep, with the canonical routes
   precomputed and shared so only the avoiding sweeps are compared.

3. **Memory** (phase ``memory``).  At n = 1000 (ISP-like scaling
   preset) ``FlatEngine().price_table`` -- the engine path, canonical
   routes held as forest rows -- must complete with a tracemalloc peak
   under a bound derived from the array path's own accounting: the
   presets' bound plus the rows the routes hold.  The phase also
   records the bytes the canonical routes hold once built
   (``routes_held_bytes``).

4. **Preset scaling** (phase ``presets``).  Every scaling preset is
   priced end-to-end on the array-native path (``demand_from_routes``
   over ``canonical_routes``, which reads the forest rows, + inline
   sweep), recording wall-clock, peak tracemalloc gated against a
   bound derived from the preset's own demand accounting, and peak
   RSS.  By default the phase covers n <= 2000;
   ``--full-presets`` extends it to n = 5000 and n = 10000 (the
   internet-scale floor -- minutes of wall-clock, run to refresh the
   committed artifact rather than per-CI).

The memory preset and every scaling preset are priced in a spawned
child process of their own, one at a time, and record that child's
peak RSS.  Their timings are taken untraced; the tracemalloc peak comes
from a separate pass, after the RSS is read.

``--phases`` selects a comma-separated subset; the output document
*merges* into an existing ``BENCH_flat.json`` (phases of ``ALL_PHASES``
not re-run keep their previous records), so a partial run such as the
CI gate ``--phases identity,speedup`` does not discard the committed
full-preset rows; the printed summary covers only the phases this run
measured.  The document's ``host`` block records the CPU count and the
Python, numpy and scipy versions of the run.  Run directly::

    python benchmarks/bench_flat_sweep.py --quick --out BENCH_flat.json
    python benchmarks/bench_flat_sweep.py --phases identity,speedup
    python benchmarks/bench_flat_sweep.py --phases presets --full-presets

(``--quick`` shrinks the speedup instance and skips the memory/presets
phases; quick runs record but do not gate.)  Under pytest
(``make bench``) a small configuration doubles as a regression
assertion on identity and the demand accounting.

This module must stay importable with the baseline toolchain only (in
particular: no module-level scipy or numpy) -- ``repro.devtools.check``
enforces that for the whole benchmarks/ directory; the engine imports
and the frozen legacy sweep below pull them in lazily at call time
instead.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import EngineError, MechanismError, NotBiconnectedError
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import (
    SCALING_PRESETS,
    integer_costs,
    isp_like_graph,
    scaling_graph,
)
from repro.types import Cost, NodeId, costs_close

from host_facts import host_facts

if TYPE_CHECKING:  # annotations only; numpy/scipy load at call time
    import numpy as np
    from scipy.sparse import csr_matrix

    from repro.mechanism.vcg import PriceRow
    from repro.routing.allpairs import AllPairsRoutes
    from repro.routing.flatsweep import FlatSweepStats

#: The acceptance bar: flat sweep vs the legacy k-major sweep at n = 500.
SPEEDUP_FLOOR = 5.0

IDENTITY_REFERENCE_N = 128
IDENTITY_LEGACY_N = 200
SPEEDUP_N = 500
SPEEDUP_QUICK_N = 200
MEMORY_PRESET = "isp-like-1000"

#: Bytes per (destination, node) slot that canonical routes hold: an
#: int32 parent and an int32 hop count next to a float64 cost.
HELD_ROW_BYTES = 16

#: Preset sizes covered by the default ``presets`` phase vs by
#: ``--full-presets`` (the n >= 5000 rows take minutes; they are
#: refreshed explicitly, not per-CI).
PRESET_GATE_SIZES = (1000, 2000)
PRESET_FULL_SIZES = (1000, 2000, 5000, 10000)

ALL_PHASES = ("identity", "speedup", "memory", "presets")


def _tables_agree(expected, actual) -> List[str]:
    """Differences between two ``(pair) -> {k: price}`` mappings."""
    problems: List[str] = []
    if set(expected) != set(actual):
        problems.append(
            f"pair sets differ: {len(expected)} expected vs {len(actual)} actual"
        )
        return problems
    for pair in expected:
        if set(expected[pair]) != set(actual[pair]):
            problems.append(f"transit keys differ at {pair}")
            continue
        for k, price in expected[pair].items():
            if not costs_close(price, actual[pair][k]):
                problems.append(
                    f"price p^{k}_{pair}: {price} vs {actual[pair][k]}"
                )
    return problems


def _peak_rss_bytes() -> int:
    """Peak RSS of this process's own address space (Linux ``VmHWM``).

    Not ``ru_maxrss``: Linux carries the spawning process's high-water
    mark across ``execve``, so a preset child started after the memory
    phase would report that phase's peak.  Falls back to ``ru_maxrss``
    (KiB on Linux) where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _in_child(function: Callable[..., Dict[str, Any]], *args: Any) -> Dict[str, Any]:
    """Run *function* in a freshly spawned child process of its own,
    so the peak RSS it records is its own."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as child:
        return child.submit(function, *args).result()


def _traced_peak(run: Callable[[], Any]) -> int:
    """Peak tracemalloc bytes of one call of *run*."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _array_path_bound(graph: ASGraph, stats: "FlatSweepStats") -> int:
    """The array path's tracemalloc bound, from its own accounting.

    No dict assembly term: one forest block (per-edge candidate arrays,
    ~17B per directed-edge slot; the distance, parent, cost and hop
    rows plus the level-wise accumulation transients, ~80B per node
    slot), the demand arrays (two orders plus pre-gathered solve
    columns, ~56B/entry with concatenation transients), and a few live
    distance blocks.
    """
    from repro.routing.forest import _BLOCK_ELEMENTS

    n = graph.num_nodes
    block_bytes = 8 * n * stats.max_block_rows
    forest_rows = max(1, _BLOCK_ELEMENTS // (2 * graph.num_edges))
    forest_bytes = forest_rows * (17 * 2 * graph.num_edges + 80 * n)
    return 64_000_000 + 4 * block_bytes + 2 * forest_bytes + 96 * stats.entries


# ----------------------------------------------------------------------
# Frozen baseline: the legacy k-major vectorized sweep.  One all-sources
# csgraph Dijkstra on a freshly built ``G - k`` CSR matrix per distinct
# transit node, dense detour matrices, per-entry Python stamping.  Kept
# verbatim (numpy/scipy imported at call time) as the reference point
# of the identity and >= 5x speedup gates; nothing in the library calls
# it.
# ----------------------------------------------------------------------
def _directed_weight_matrix(
    graph: ASGraph,
    skip: Optional[NodeId] = None,
) -> Tuple[csr_matrix, np.ndarray, Dict[NodeId, int]]:
    """The ``w(u -> v) = c_v`` reduction as a CSR matrix.

    Zero node costs become *stored* zeros, which ``csgraph`` routines
    honor as zero-weight edges for sparse input; the construction is
    guarded so that a dropped zero (e.g. a future scipy calling
    ``eliminate_zeros`` internally) raises :class:`EngineError` instead
    of silently reporting the edge as absent.  *skip* omits one node
    entirely, implementing ``G - k``.
    """
    import numpy as np
    from scipy.sparse import csr_matrix

    index = graph.index_of()
    n = graph.num_nodes
    costs = np.empty(n, dtype=float)
    for node, i in index.items():
        costs[i] = graph.cost(node)
    rows: List[int] = []
    cols: List[int] = []
    data: List[Cost] = []
    for u, v in graph.edges:
        if skip is not None and skip in (u, v):
            continue
        ui, vi = index[u], index[v]
        rows.append(ui)
        cols.append(vi)
        data.append(costs[vi])
        rows.append(vi)
        cols.append(ui)
        data.append(costs[ui])
    matrix = csr_matrix((data, (rows, cols)), shape=(n, n))
    if matrix.nnz != len(data):
        raise EngineError(
            "CSR construction dropped stored entries "
            f"({matrix.nnz} kept of {len(data)}); zero-cost nodes would "
            "no longer round-trip exactly"
        )
    return matrix, costs, index


def avoiding_costs_matrix(graph: ASGraph, k: NodeId) -> Tuple[np.ndarray, Dict[NodeId, int]]:
    """Transit-cost matrix of ``G - k`` (``inf`` where disconnected).

    Row/column of ``k`` itself are ``inf`` (excluding the diagonal).
    """
    import numpy as np
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

    pruned, costs, index = _directed_weight_matrix(graph, skip=k)
    ki = index[k]
    dist = _csgraph_dijkstra(pruned, directed=True, return_predecessors=False)
    transit = dist - costs[np.newaxis, :]
    np.fill_diagonal(transit, 0.0)
    transit[ki, :] = np.inf
    transit[:, ki] = np.inf
    return transit, index


def vcg_price_rows(
    graph: ASGraph,
    routes: Optional["AllPairsRoutes"] = None,
) -> Dict[Tuple[NodeId, NodeId], "PriceRow"]:
    """Theorem 1 price rows with the k-avoiding sweep vectorized.

    Path *selection* (which ``k`` is transit on which selected LCP)
    still comes from the canonical tie-broken routes -- prices are only
    defined relative to them -- but both cost terms of
    ``p^k_ij = c_k + Cost(P_{-k}(c; i, j)) - Cost(P(c; i, j))`` are read
    from ``csgraph`` distance matrices: one all-sources Dijkstra on
    ``G - k`` per *distinct* transit node ``k`` replaces the
    per-(destination, k) pure-Python sweep.  Returns the same
    ``(source, destination) -> {k: price}`` mapping that
    :func:`repro.mechanism.vcg.compute_price_table` stores (direct-link
    pairs omitted).

    The sweep runs **k-major**: the canonical routes are first inverted
    into the demanded entries per transit node, then each distinct
    ``k``'s dense detour matrix is computed *once*, consumed, and
    dropped.  Earlier revisions cached every matrix for the lifetime of
    the call -- 8 n^2 bytes each times hundreds of distinct transit
    nodes, O(n^3) memory, ~8 GB at n = 1000 -- whereas at most one
    detour matrix is alive here.  Violations are checked per entry and
    the earliest one *in the reference sweep's iteration order*
    (destination ascending, source ascending, transit position along
    the path) is raised with the reference's exact message, so error
    semantics are unchanged even though the computation order is not.
    """
    import numpy as np

    from repro.routing.allpairs import all_pairs_lcp

    routes = routes if routes is not None else all_pairs_lcp(graph)
    index = graph.index_of()
    # Reference-order scan: stamp every demanded (i, j, k) entry with a
    # global sequence number and bucket it under its transit node.  The
    # LCP cost term comes from the routes (``tree.cost``), exactly as
    # the reference sweep reads it.
    pairs: List[Tuple[NodeId, NodeId, Tuple[NodeId, ...]]] = []
    demand: Dict[NodeId, List[Tuple[int, int, int, Cost]]] = {}
    sequence = 0
    for destination in graph.nodes:
        tree = routes.tree(destination)
        dj = index[destination]
        for source in tree.sources():
            path = tree.path(source)
            if len(path) == 2:
                continue  # direct link: no transit nodes, no prices
            si = index[source]
            lcp_cost = tree.cost(source)
            transit = path[1:-1]
            pairs.append((source, destination, transit))
            for k in transit:
                demand.setdefault(k, []).append((sequence, si, dj, lcp_cost))
                sequence += 1

    prices = np.empty(sequence, dtype=np.float64)
    #: (sequence, kind, k, source, destination, price); kind 0 =
    #: infinite detour, 1 = negative price.  The minimum sequence is
    #: the witness the reference sweep raises first.
    first_violation: Optional[Tuple[int, int, NodeId, NodeId, NodeId, float]] = None
    node_ids = graph.nodes
    for k in sorted(demand):
        detours, _ = avoiding_costs_matrix(graph, k)
        entries = np.asarray([e[:3] for e in demand[k]], dtype=np.int64)
        lcp = np.asarray([e[3] for e in demand[k]], dtype=np.float64)
        seq, si, dj = entries[:, 0], entries[:, 1], entries[:, 2]
        detour = detours[si, dj]
        entry_prices = graph.cost(k) + detour - lcp
        prices[seq] = entry_prices
        infinite = ~np.isfinite(detour)
        negative = ~infinite & (entry_prices < -1e-9)
        if infinite.any() or negative.any():
            bad = np.flatnonzero(infinite | negative)
            at = bad[np.argmin(seq[bad])]
            candidate = (
                int(seq[at]),
                0 if infinite[at] else 1,
                k,
                node_ids[int(si[at])],
                node_ids[int(dj[at])],
                float(entry_prices[at]),
            )
            if first_violation is None or candidate[0] < first_violation[0]:
                first_violation = candidate

    if first_violation is not None:
        _sequence, kind, k, source, destination, price = first_violation
        if kind == 0:
            raise NotBiconnectedError(
                message=(
                    f"price p^{k}_{{{source},{destination}}} undefined: "
                    f"no {k}-avoiding path (graph not biconnected)"
                )
            )
        raise MechanismError(
            f"negative VCG price {price} for k={k}, pair "
            f"({source}, {destination}); avoiding cost below LCP cost"
        )

    rows: Dict[Tuple[NodeId, NodeId], Dict[NodeId, Cost]] = {}
    position = 0
    for source, destination, transit in pairs:
        row: Dict[NodeId, Cost] = {}
        for offset, k in enumerate(transit):
            row[k] = float(prices[position + offset])
        position += len(transit)
        rows[(source, destination)] = row
    return rows


def run_identity_phase() -> Dict[str, Any]:
    from repro.routing.allpairs import all_pairs_lcp
    from repro.routing.engines import get_engine
    from repro.routing.flatsweep import flat_price_arrays

    problems: List[str] = []

    reference_graph = isp_like_graph(
        IDENTITY_REFERENCE_N, seed=1, cost_sampler=integer_costs(1, 6)
    )
    reference_table = get_engine("reference").price_table(reference_graph)
    flat_table = get_engine("flat").price_table(
        reference_graph, routes=reference_table.routes
    )
    problems += [
        f"reference n={IDENTITY_REFERENCE_N}: {p}"
        for p in _tables_agree(reference_table.rows, flat_table.rows)
    ]

    legacy_graph = isp_like_graph(
        IDENTITY_LEGACY_N, seed=2, cost_sampler=integer_costs(1, 6)
    )
    routes = all_pairs_lcp(legacy_graph)
    legacy_rows = vcg_price_rows(legacy_graph, routes)
    flat_rows = flat_price_arrays(legacy_graph, routes).to_rows()
    problems += [
        f"legacy n={IDENTITY_LEGACY_N}: {p}"
        for p in _tables_agree(legacy_rows, flat_rows)
    ]

    return {
        "reference_n": IDENTITY_REFERENCE_N,
        "legacy_n": IDENTITY_LEGACY_N,
        "pairs_compared": len(reference_table.rows) + len(legacy_rows),
        "identical_keys": not problems,
        "problems": problems,
    }


def run_speedup_phase(n: int) -> Dict[str, Any]:
    from repro.routing.allpairs import all_pairs_lcp
    from repro.routing.flatsweep import FlatSweepStats, flat_price_arrays

    graph = isp_like_graph(n, seed=0, cost_sampler=integer_costs(1, 6))
    # Shared, precomputed routes: path selection is identical work for
    # both backends, so only the avoiding sweeps are timed.
    routes_start = time.perf_counter()
    routes = all_pairs_lcp(graph)
    routes_seconds = time.perf_counter() - routes_start

    legacy_start = time.perf_counter()
    legacy_rows = vcg_price_rows(graph, routes)
    legacy_seconds = time.perf_counter() - legacy_start

    stats = FlatSweepStats()
    flat_start = time.perf_counter()
    flat_rows = flat_price_arrays(graph, routes, stats=stats).to_rows()
    flat_seconds = time.perf_counter() - flat_start

    problems = _tables_agree(legacy_rows, flat_rows)
    speedup = legacy_seconds / flat_seconds if flat_seconds > 0 else float("inf")
    return {
        "n": n,
        "edges": graph.num_edges,
        "routes_seconds": round(routes_seconds, 4),
        "legacy_seconds": round(legacy_seconds, 4),
        "flat_seconds": round(flat_seconds, 4),
        "speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "sweep_stats": stats.__dict__.copy(),
        "problems": problems,
    }


def _price_memory_preset() -> Dict[str, Any]:
    """Price the memory preset through ``FlatEngine().price_table``.

    Called in a child process of its own (:func:`run_memory_phase`).
    The timings come from the engine's own spans, untraced, and the
    peak RSS is read right after that pass; the accounting and the
    tracemalloc peak come from separate passes.
    """
    import repro.obs as obs
    from repro.routing.engines import FlatEngine
    from repro.routing.flatsweep import FlatSweepStats, flat_price_arrays
    from repro.routing.forest import canonical_routes

    graph = scaling_graph(MEMORY_PRESET)
    n = graph.num_nodes
    observer = obs.Obs()
    table = FlatEngine().price_table(graph, obs=observer)
    rss_peak_bytes = _peak_rss_bytes()
    # The bound's accounting: the sweep's own stats over the same routes.
    stats = FlatSweepStats()
    flat_price_arrays(graph, table.routes, stats=stats)
    pairs_priced = table.num_pairs
    del table

    # What the canonical routes keep alive once built -- the forest's
    # rows -- read while the routes are still referenced.
    tracemalloc.start()
    held_routes = canonical_routes(graph)
    routes_held_bytes, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del held_routes

    peak = _traced_peak(lambda: FlatEngine().price_table(graph))
    demand_bound = _array_path_bound(graph, stats) + HELD_ROW_BYTES * n * n
    # What the alternatives would have held alive at minimum:
    dense_cache_bytes = stats.solves * 8 * n * n  # one matrix per k
    cubic_bytes = 8 * n * n * n  # the O(n^3) strawman
    return {
        "preset": MEMORY_PRESET,
        "n": n,
        "edges": graph.num_edges,
        "pairs_priced": pairs_priced,
        "routes_seconds": round(
            observer.span_stats(obs.names.SPAN_ENGINE_ALL_PAIRS)[1], 4
        ),
        "price_seconds": round(
            observer.span_stats(obs.names.SPAN_ENGINE_PRICE_TABLE)[1], 4
        ),
        "routes_held_bytes": routes_held_bytes,
        "sweep_stats": stats.__dict__.copy(),
        "tracemalloc_peak_bytes": peak,
        "demand_bound_bytes": demand_bound,
        "dense_cache_bytes": dense_cache_bytes,
        "cubic_bytes": cubic_bytes,
        "rss_peak_bytes": rss_peak_bytes,
        "within_bound": peak < demand_bound,
        "note": (
            "price_seconds (routes included) from the engine's spans, "
            "untraced; tracemalloc peak from a separate pass; rss_peak_bytes "
            "is the peak RSS of the child process, read before the traced pass"
        ),
    }


def run_memory_phase() -> Dict[str, Any]:
    return _in_child(_price_memory_preset)


def _price_preset(preset: str) -> Dict[str, Any]:
    """Price one scaling preset end-to-end on the array-native path.

    Demand comes from :func:`~repro.routing.flatsweep.demand_from_routes`
    over :func:`~repro.routing.forest.canonical_routes`, which reads the
    forest rows the routes hold -- exact canonical routes, with no
    ``RouteTree`` objects -- the sweep runs inline, and nothing
    materializes per-entry Python objects; this is the large-instance
    configuration the ROADMAP's internet-scale item needs.  Called in a
    child process of its own: the timed pass runs untraced and the peak
    RSS is read after it, then a second pass takes the tracemalloc
    peak, gated against a bound derived from the preset's own demand
    accounting.
    """
    from repro.routing.flatgraph import build_flat_graph
    from repro.routing.flatsweep import (
        FlatSweepStats,
        demand_from_routes,
        sweep_demand,
    )
    from repro.routing.forest import canonical_routes

    graph = scaling_graph(preset)
    flat = build_flat_graph(graph)

    def build_demand() -> Any:
        return demand_from_routes(graph, canonical_routes(graph, flat), flat)

    stats = FlatSweepStats()
    demand_start = time.perf_counter()
    demand = build_demand()
    demand_seconds = time.perf_counter() - demand_start
    sweep_start = time.perf_counter()
    arrays = sweep_demand(demand, stats=stats)
    sweep_seconds = time.perf_counter() - sweep_start
    rss_peak_bytes = _peak_rss_bytes()
    pairs_priced = arrays.num_pairs
    del demand, arrays

    peak = _traced_peak(lambda: sweep_demand(build_demand()))
    demand_bound = _array_path_bound(graph, stats)
    return {
        "n": graph.num_nodes,
        "edges": graph.num_edges,
        "pairs_priced": pairs_priced,
        "demand_seconds": round(demand_seconds, 4),
        "sweep_seconds": round(sweep_seconds, 4),
        "sweep_stats": stats.__dict__.copy(),
        "tracemalloc_peak_bytes": peak,
        "demand_bound_bytes": demand_bound,
        "rss_peak_bytes": rss_peak_bytes,
        "within_bound": peak < demand_bound,
    }


def run_presets_phase(sizes: Sequence[int]) -> Dict[str, Any]:
    """Price every scaling preset of *sizes* (see :func:`_price_preset`),
    each in a freshly spawned child process, one at a time."""
    presets = [
        f"{family}-{n}"
        for n in sorted(sizes)
        for family in ("barabasi-albert", "isp-like")
        if f"{family}-{n}" in SCALING_PRESETS
    ]
    return {
        "sizes": sorted(sizes),
        "demand": "demand_from_routes over canonical_routes (forest rows, exact canonical routes)",
        "rows": {preset: _in_child(_price_preset, preset) for preset in presets},
        "note": (
            "timed untraced; tracemalloc peak from a separate pass; "
            "rss_peak_bytes is the peak RSS of the child process that "
            "priced the preset, read before the traced pass"
        ),
    }


def run_suite(
    quick: bool = False,
    phases_selected: Optional[Sequence[str]] = None,
    full_presets: bool = False,
) -> Dict[str, Any]:
    if phases_selected is None:
        phases_selected = ALL_PHASES
    phases: Dict[str, Any] = {}
    if "identity" in phases_selected:
        phases["identity"] = run_identity_phase()
    if "speedup" in phases_selected:
        phases["speedup"] = run_speedup_phase(SPEEDUP_QUICK_N if quick else SPEEDUP_N)
    if "memory" in phases_selected and not quick:
        phases["memory"] = run_memory_phase()
    if "presets" in phases_selected and not quick:
        phases["presets"] = run_presets_phase(
            PRESET_FULL_SIZES if full_presets else PRESET_GATE_SIZES
        )

    failures: List[str] = []
    if "identity" in phases and not phases["identity"]["identical_keys"]:
        failures.append("identity: flat table disagrees")
    if "speedup" in phases:
        if phases["speedup"]["problems"]:
            failures.append("speedup: flat table disagrees with legacy sweep")
        # the 5x bar is calibrated at n = 500; quick runs record but don't gate
        if not quick and phases["speedup"]["speedup"] < SPEEDUP_FLOOR:
            failures.append(
                f"speedup {phases['speedup']['speedup']}x below the "
                f"{SPEEDUP_FLOOR}x floor at n={phases['speedup']['n']}"
            )
    if "memory" in phases and not phases["memory"]["within_bound"]:
        failures.append(
            f"memory: peak {phases['memory']['tracemalloc_peak_bytes']} "
            f"over bound {phases['memory']['demand_bound_bytes']}"
        )
    if "presets" in phases:
        for preset, row in phases["presets"]["rows"].items():
            if not row["within_bound"]:
                failures.append(
                    f"presets: {preset} peak {row['tracemalloc_peak_bytes']} "
                    f"over bound {row['demand_bound_bytes']}"
                )
    return {
        "benchmark": "flat_sweep",
        "quick": quick,
        "host": host_facts(("numpy", "scipy")),
        "phases": phases,
        "failures": failures,
        "passed": not failures,
    }


def _merge_into_existing(path: str, document: Dict[str, Any]) -> Dict[str, Any]:
    """Merge this run's phases into an existing output document.

    Phases of ``ALL_PHASES`` not re-run keep their previous records (so
    a ``--phases identity,speedup`` CI gate does not discard the
    committed full-preset rows); a phase no longer in ``ALL_PHASES`` is
    dropped.  ``host``, ``failures`` and ``passed`` always describe the
    current run only.
    """
    if not os.path.exists(path):
        return document
    try:
        with open(path, "r", encoding="utf-8") as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        return document
    if previous.get("benchmark") != document["benchmark"]:
        return document
    merged_phases = {
        phase: record
        for phase, record in previous.get("phases", {}).items()
        if phase in ALL_PHASES
    }
    merged_phases.update(document["phases"])
    document = dict(document)
    document["phases"] = merged_phases
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller speedup instance, skip memory/presets phases",
    )
    parser.add_argument(
        "--phases",
        default=None,
        help=f"comma-separated subset of {', '.join(ALL_PHASES)} (default: all)",
    )
    parser.add_argument(
        "--full-presets",
        action="store_true",
        help="extend the presets phase to n=5000 and n=10000 (minutes)",
    )
    parser.add_argument("--out", default="BENCH_flat.json", help="output path")
    args = parser.parse_args(argv)

    selected: Optional[List[str]] = None
    if args.phases:
        selected = [phase.strip() for phase in args.phases.split(",") if phase.strip()]
        unknown = [phase for phase in selected if phase not in ALL_PHASES]
        if unknown:
            parser.error(f"unknown phases: {', '.join(unknown)}")

    document = run_suite(
        quick=args.quick, phases_selected=selected, full_presets=args.full_presets
    )
    phases = document["phases"]  # this run's phases only, before the merge
    document = _merge_into_existing(args.out, document)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")

    if "speedup" in phases:
        speed = phases["speedup"]
        print(
            f"flat sweep n={speed['n']}: legacy {speed['legacy_seconds']}s, "
            f"flat {speed['flat_seconds']}s ({speed['speedup']}x)"
        )
    if "memory" in phases:
        memory = phases["memory"]
        print(
            f"n={memory['n']}: canonical routes hold "
            f"{memory['routes_held_bytes'] / 2**20:.1f} MiB; "
            f"price_table {memory['price_seconds']}s (routes "
            f"{memory['routes_seconds']}s), peak "
            f"{memory['tracemalloc_peak_bytes'] / 1e6:.0f} MB "
            f"(bound {memory['demand_bound_bytes'] / 1e6:.0f} MB, dense cache "
            f"would hold {memory['dense_cache_bytes'] / 1e9:.1f} GB), "
            f"rss {memory['rss_peak_bytes'] / 1e6:.0f} MB"
        )
    if "presets" in phases:
        for preset, row in phases["presets"]["rows"].items():
            print(
                f"{preset}: demand {row['demand_seconds']}s + sweep "
                f"{row['sweep_seconds']}s, peak "
                f"{row['tracemalloc_peak_bytes'] / 1e6:.0f} MB "
                f"(bound {row['demand_bound_bytes'] / 1e6:.0f} MB), "
                f"rss {row['rss_peak_bytes'] / 1e6:.0f} MB"
            )
    for failure in document["failures"]:
        print(f"FAIL: {failure}")
    print("PASS" if document["passed"] else "FAIL", f"-> {args.out}")
    return 0 if document["passed"] else 1


# ----------------------------------------------------------------------
# pytest integration: a small configuration as a tracked benchmark.
# ----------------------------------------------------------------------
def test_bench_flat_sweep(benchmark):
    from repro.routing.allpairs import all_pairs_lcp
    from repro.routing.flatsweep import FlatSweepStats, flat_price_arrays

    graph = isp_like_graph(96, seed=0, cost_sampler=integer_costs(1, 6))
    routes = all_pairs_lcp(graph)

    flat_rows = benchmark(lambda: flat_price_arrays(graph, routes).to_rows())

    assert not _tables_agree(vcg_price_rows(graph, routes), flat_rows)
    stats = FlatSweepStats()
    flat_price_arrays(graph, routes, stats=stats)
    # demand restriction + symmetric orientation must actually engage
    assert stats.rows < stats.solves * graph.num_nodes
    assert stats.max_block_rows < graph.num_nodes


if __name__ == "__main__":
    raise SystemExit(main())
