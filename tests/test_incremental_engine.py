"""Differential tests for the incremental warm-start engine.

The contract is the repo's strongest one: after *every* epoch of an
arbitrary event sequence the incremental engine must return
bit-identical routes and prices to a cold reference run on the mutated
graph -- including raising the same errors in the same cases (error
parity).  Hypothesis drives randomized event scripts; deterministic
cases pin the invalidation edge cases (biconnectivity break and
re-establishment, improving vs worsening changes, cache accounting).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs_mod
from repro.exceptions import (
    DisconnectedGraphError,
    MechanismError,
    NotBiconnectedError,
)
from repro.graphs.asgraph import ASGraph
from repro.mechanism.vcg import compute_price_table
from repro.obs import names as metric_names
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.dijkstra import route_tree
from repro.routing.engines import IncrementalEngine, get_engine
from repro.routing.engines.incremental import _subtree

_MECHANISM_ERRORS = (NotBiconnectedError, MechanismError, DisconnectedGraphError)


def _outcome(compute):
    """Run *compute*; normalize result-or-mechanism-error for parity checks."""
    try:
        return ("ok", compute())
    except _MECHANISM_ERRORS as exc:
        return ("err", (type(exc).__name__, str(exc)))


def assert_epoch_identical(engine: IncrementalEngine, graph: ASGraph) -> None:
    """Bit-identity (or error parity) of the warm engine vs a cold reference."""
    warm_routes = _outcome(lambda: engine.all_pairs(graph))
    cold_routes = _outcome(lambda: all_pairs_lcp(graph))
    assert warm_routes[0] == cold_routes[0], (warm_routes, cold_routes)
    if warm_routes[0] == "ok":
        assert warm_routes[1].paths == cold_routes[1].paths
        for destination in graph.nodes:
            warm = warm_routes[1].tree(destination)
            cold = cold_routes[1].tree(destination)
            assert warm.parents == cold.parents
            for source in cold.sources():
                # == on purpose: costs must be bit-identical, not close
                assert warm.cost(source) == cold.cost(source)  # repro-lint: ok(RPR001)
    else:
        assert warm_routes[1] == cold_routes[1]

    warm_table = _outcome(lambda: engine.price_table(graph))
    cold_table = _outcome(lambda: compute_price_table(graph))
    assert warm_table[0] == cold_table[0], (warm_table, cold_table)
    if warm_table[0] == "ok":
        # dict == compares every price bit-for-bit, which is the contract
        assert warm_table[1].rows == cold_table[1].rows  # repro-lint: ok(RPR001)
        assert_avoiding_trees_identical(engine, graph)
    else:
        assert warm_table[1] == cold_table[1]


def assert_avoiding_trees_identical(engine: IncrementalEngine, graph: ASGraph) -> None:
    """Every cached ``G - k`` tree equals a cold one, parents and costs.

    Repair waves rewrite these trees on most events, and a wrong parent
    with a right cost would not show in this epoch's prices.
    """
    for destination, cache in engine._avoiding.items():
        for k, tree in cache.items():
            cold = route_tree(graph.masked_without_node(k), destination)
            assert tree.parents == cold.parents, (destination, k)
            assert tree.costs == cold.costs, (destination, k)


@st.composite
def event_scripts(draw, min_nodes=4, max_nodes=9, max_events=10):
    """A biconnected seed graph plus a random mutation script.

    Events: cost increases and decreases (quantized: exact ties are
    where invalidation bugs live), link failures (connectivity is
    preserved, biconnectivity deliberately is NOT), and link recoveries
    (re-adding previously failed links or fresh chords).
    """
    n = draw(st.integers(min_nodes, max_nodes))
    costs = draw(
        st.lists(
            st.integers(0, 8).map(lambda v: v / 2.0),
            min_size=n,
            max_size=n,
        )
    )
    chord_pool = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]
    chords = (
        draw(st.lists(st.sampled_from(chord_pool), unique=True, max_size=6))
        if chord_pool
        else []
    )
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    graph = ASGraph(nodes=list(enumerate(costs)), edges=edges)
    events = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("cost"),
                    st.integers(0, n - 1),
                    st.integers(0, 8).map(lambda v: v / 2.0),
                ),
                st.tuples(st.just("fail"), st.integers(0, 200), st.just(None)),
                st.tuples(st.just("recover"), st.integers(0, 200), st.just(None)),
            ),
            max_size=max_events,
        )
    )
    return graph, events


def _apply_script_step(graph, step, failed):
    """Apply one drawn event; returns the new graph (or None to skip)."""
    kind, arg, value = step
    if kind == "cost":
        return graph.with_cost(arg, value), failed
    if kind == "fail":
        edges = list(graph.edges)
        u, v = edges[arg % len(edges)]
        candidate = graph.without_edge(u, v)
        if not candidate.is_connected():
            return None, failed  # keep route trees comparable
        return candidate, failed + [(u, v)]
    # recover: prefer re-adding a failed link, else do nothing
    if failed:
        u, v = failed[arg % len(failed)]
        if not graph.has_edge(u, v):
            remaining = [e for e in failed if e != (u, v)]
            return graph.with_edge(u, v), remaining
    return None, failed


class TestDifferentialEpochs:
    @settings(max_examples=30, deadline=None)
    @given(event_scripts())
    def test_every_epoch_bit_identical_to_reference(self, script):
        graph, events = script
        engine = IncrementalEngine()
        assert_epoch_identical(engine, graph)
        failed: list = []
        for step in events:
            mutated, failed = _apply_script_step(graph, step, failed)
            if mutated is None:
                continue
            graph = mutated
            assert_epoch_identical(engine, graph)

    @settings(max_examples=15, deadline=None)
    @given(event_scripts(max_events=6))
    def test_warm_engine_equals_fresh_engine_per_epoch(self, script):
        # The cache must be invisible: a warm engine and a brand-new one
        # agree on every epoch (catches stale-state bugs the reference
        # comparison alone would also catch, but with a sharper message).
        graph, events = script
        warm = IncrementalEngine()
        failed: list = []
        for step in [("cost", 0, 1.0)] + events:
            mutated, failed = _apply_script_step(graph, step, failed)
            if mutated is None:
                continue
            graph = mutated
            warm_rows = _outcome(lambda: warm.price_table(graph).rows)
            cold_rows = _outcome(lambda: IncrementalEngine().price_table(graph).rows)
            assert warm_rows == cold_rows


class TestBiconnectivityBreakAndRecovery:
    def test_break_raises_identically_then_recovers(self):
        # A 5-cycle is biconnected; removing any edge leaves a path
        # (connected but not biconnected) -> NotBiconnectedError from
        # the price sweep; re-adding the edge must fully recover.
        graph = ASGraph(
            nodes=[(i, float(i % 3)) for i in range(5)],
            edges=[(i, (i + 1) % 5) for i in range(5)],
        )
        engine = IncrementalEngine()
        assert_epoch_identical(engine, graph)

        broken = graph.without_edge(0, 4)
        with pytest.raises(NotBiconnectedError) as warm_err:
            engine.price_table(broken)
        with pytest.raises(NotBiconnectedError) as cold_err:
            compute_price_table(broken)
        assert str(warm_err.value) == str(cold_err.value)

        # Routes still exist on the path graph and must stay identical.
        assert_epoch_identical(engine, broken)
        # Recovery: the avoiding caches that went incomplete must not
        # be trusted -- full bit-identity on the healed graph.
        assert_epoch_identical(engine, graph.with_cost(2, 9.0))

    def test_disconnection_error_parity(self):
        graph = ASGraph(
            nodes=[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
        )
        engine = IncrementalEngine()
        assert_epoch_identical(engine, graph)
        # 3 keeps only one incident edge; removing it disconnects.
        lonely = graph.without_edge(2, 3).without_edge(0, 3)
        with pytest.raises(DisconnectedGraphError) as warm_err:
            engine.all_pairs(lonely)
        with pytest.raises(DisconnectedGraphError) as cold_err:
            all_pairs_lcp(lonely)
        assert str(warm_err.value) == str(cold_err.value)

    def test_failed_cold_rebuild_keeps_the_previous_epoch(self):
        # A new node forces a cold rebuild; an isolated one makes it
        # raise.  The error must match the reference and leave every
        # cache, and the invalidation count, as the warm epoch had them.
        graph = ASGraph(
            nodes=[(i, float(i % 3)) for i in range(5)],
            edges=[(i, (i + 1) % 5) for i in range(5)] + [(0, 2)],
        )
        engine = IncrementalEngine()
        assert_epoch_identical(engine, graph)
        grown = ASGraph(
            nodes=[(i, float(i % 3)) for i in range(6)], edges=graph.edges
        )
        invalidations = engine.stats.invalidations
        with pytest.raises(DisconnectedGraphError) as warm_err:
            engine.all_pairs(grown)
        with pytest.raises(DisconnectedGraphError) as cold_err:
            all_pairs_lcp(grown)
        assert str(warm_err.value) == str(cold_err.value)
        assert engine.cached_destinations == graph.num_nodes
        assert engine.stats.invalidations == invalidations
        runs = engine.stats.dijkstra_runs
        assert_epoch_identical(engine, graph)
        assert engine.stats.dijkstra_runs == runs


def _cone(tree, x):
    """The definition: *x* plus every source whose path transits *x*."""
    return {x} | {source for source in tree.parents if tree.on_path(x, source)}


class TestConeWalk:
    """The orphaned cone, walked over the adjacency, is its definition.

    The walk keeps the neighbors whose parent is the node being walked;
    it must find exactly the sources routing through the root, in route
    trees and ``G - k`` trees alike, and still after a tree edge left
    the adjacency (the removal case, where the root is the edge's
    downstream endpoint).
    """

    @settings(max_examples=40, deadline=None)
    @given(event_scripts(max_events=4))
    def test_cone_matches_on_path_definition(self, script):
        graph, events = script
        failed: list = []
        for step in events:
            mutated, failed = _apply_script_step(graph, step, failed)
            if mutated is not None:
                graph = mutated
        adjacency = {node: list(graph.neighbors(node)) for node in graph.nodes}
        for destination in graph.nodes:
            trees = [route_tree(graph, destination)] + [
                route_tree(graph.masked_without_node(k), destination)
                for k in graph.nodes
                if k != destination
            ]
            for tree in trees:
                for x in graph.nodes:
                    if x != destination:
                        assert _subtree(tree, x, adjacency) == _cone(tree, x)
                for child, parent in tree.parents.items():
                    cut = dict(adjacency)
                    cut[child] = [w for w in adjacency[child] if w != parent]
                    cut[parent] = [w for w in adjacency[parent] if w != child]
                    assert _subtree(tree, child, cut) == _cone(tree, child)


class TestCacheAccounting:
    def test_cold_start_is_all_misses(self, fig1):
        engine = IncrementalEngine()
        engine.all_pairs(fig1)
        assert engine.stats.hits == 0
        assert engine.stats.misses == fig1.num_nodes
        assert engine.stats.invalidations == 0

    def test_same_graph_object_is_free(self, fig1):
        engine = IncrementalEngine()
        engine.price_table(fig1)
        runs = engine.stats.dijkstra_runs
        engine.price_table(fig1)
        engine.all_pairs(fig1)
        assert engine.stats.dijkstra_runs == runs

    def test_equal_graph_new_object_is_free(self, fig1):
        engine = IncrementalEngine()
        engine.all_pairs(fig1)
        runs = engine.stats.dijkstra_runs
        clone = ASGraph(
            nodes=[(node, fig1.cost(node)) for node in fig1.nodes],
            edges=list(fig1.edges),
        )
        engine.all_pairs(clone)
        assert engine.stats.dijkstra_runs == runs

    def test_cost_change_reuses_unaffected_trees(self, fig1):
        engine = IncrementalEngine()
        engine.price_table(fig1)
        before = engine.stats.snapshot()
        # A strict increase at one node: only trees transiting it recompute.
        engine.price_table(fig1.with_cost(0, fig1.cost(0) + 10.0))
        after = engine.stats.snapshot()
        hits, misses, invalidations = (after[i] - before[i] for i in range(3))
        assert hits > 0  # unaffected trees were reused
        assert invalidations > 0  # something was event-scoped out
        # Far fewer Dijkstras than a cold rebuild of trees + avoiding sweep.
        assert misses < before[1]

    def test_reset_forgets_everything(self, fig1):
        engine = IncrementalEngine()
        engine.price_table(fig1)
        engine.reset()
        assert engine.cached_destinations == 0
        before = engine.stats.snapshot()
        engine.all_pairs(fig1)
        assert engine.stats.hits == before[0]  # cold again: no hits

    def test_counters_emitted_under_observer(self, fig1):
        engine = IncrementalEngine()
        with obs_mod.observed() as observer:
            engine.price_table(fig1)
            engine.price_table(fig1.with_cost(0, 99.0))
        assert observer.counter_total(
            metric_names.CACHE_MISSES, engine="incremental"
        ) == engine.stats.misses
        assert observer.counter_total(
            metric_names.CACHE_HITS, engine="incremental"
        ) == engine.stats.hits
        assert observer.counter_total(
            metric_names.CACHE_INVALIDATIONS, engine="incremental"
        ) == engine.stats.invalidations


_STAT_NAMES = (
    "hits",
    "misses",
    "invalidations",
    "dijkstras",
    "relaxed",
    "detached",
    "reanchored",
)


def _stat_delta(engine, before):
    after = engine.stats.snapshot()
    return {name: after[i] - before[i] for i, name in enumerate(_STAT_NAMES)}


def _assert_repaired_epoch(engine, graph):
    """One warm epoch: repairs only (zero from-scratch Dijkstras at the
    sync point), then full bit-identity including prices.  Returns the
    repair-counter delta of the sync.  (price_table afterwards may
    still lazily build avoiding trees for newly transiting (j, k)
    pairs; that is population, not invalidation, so the no-Dijkstra
    claim is measured around the tree sync.)"""
    before = engine.stats.snapshot()
    engine.all_pairs(graph)
    delta = _stat_delta(engine, before)
    assert delta["dijkstras"] == 0
    assert_epoch_identical(engine, graph)
    return delta


def _repair_graph():
    """An 8-cycle with chords: biconnected, chord-rich enough that
    failing a chord leaves a biconnected graph and repairs are
    non-trivial (multiple trees route through every chord)."""
    return ASGraph(
        nodes=[(i, float((i * 3) % 5)) for i in range(8)],
        edges=[(i, (i + 1) % 8) for i in range(8)]
        + [(0, 2), (1, 4), (3, 6), (5, 7)],
    )


class TestRepairPaths:
    """The dynamic-SSSP repair path: no full Dijkstra once warm.

    Every scenario here previously either rebuilt whole trees (single
    worsening/improving events) or fell back to a full rebuild
    (multiple improving changes in one diff).  With in-place repair the
    `dijkstras` counter must stay flat across every warm epoch while
    bit-identity to the cold reference still holds.
    """

    def test_recovery_storm_repairs_without_dijkstra(self):
        graph = _repair_graph()
        engine = IncrementalEngine()
        assert_epoch_identical(engine, graph)

        storm = [(0, 2), (1, 4), (3, 6)]
        current = graph
        for u, v in storm:  # fail one chord per epoch
            current = current.without_edge(u, v)
            delta = _assert_repaired_epoch(engine, current)
            assert delta["detached"] > 0 and delta["reanchored"] > 0

        for u, v in storm:  # then recover one per epoch
            current = current.with_edge(u, v)
            delta = _assert_repaired_epoch(engine, current)
            assert delta["relaxed"] > 0  # improve waves, no detach cone
            assert delta["detached"] == 0

    def test_alternating_improve_worsen_bursts(self):
        graph = _repair_graph()
        engine = IncrementalEngine()
        assert_epoch_identical(engine, graph)
        current = graph
        repaired = 0
        for node in (1, 4, 6):
            original = current.cost(node)
            for new_cost in (original + 6.0, original):  # worsen, restore
                current = current.with_cost(node, new_cost)
                delta = _assert_repaired_epoch(engine, current)
                repaired += (
                    delta["relaxed"] + delta["detached"] + delta["reanchored"]
                )
        assert repaired > 0  # the bursts exercised real repair waves

    def test_multi_improving_changes_in_one_epoch(self):
        # Two decreases in ONE diff: the case that used to trigger the
        # full-rebuild fallback.  Now both must ride sequential improve
        # waves with zero from-scratch Dijkstras.
        graph = _repair_graph().with_cost(2, 9.0).with_cost(5, 8.0)
        engine = IncrementalEngine()
        assert_epoch_identical(engine, graph)
        improved = graph.with_cost(2, 0.5).with_cost(5, 0.0)
        delta = _assert_repaired_epoch(engine, improved)
        assert delta["relaxed"] > 0
        assert delta["invalidations"] > 0  # repairs are counted as touches

    def test_mixed_compound_epoch(self):
        # Removal + addition + improving and worsening cost changes in a
        # single diff; elementary events compose sequentially, each
        # against the intermediate graph, still without any rebuild.
        graph = _repair_graph()
        engine = IncrementalEngine()
        assert_epoch_identical(engine, graph)
        mutated = (
            graph.without_edge(1, 4)
            .with_edge(2, 6)
            .with_cost(3, 0.0)
            .with_cost(7, 9.5)
        )
        delta = _assert_repaired_epoch(engine, mutated)
        assert delta["detached"] > 0 and delta["relaxed"] > 0

    def test_equal_cost_shorter_route_reaches_descendants_neighbors(self):
        # All costs zero, so hops decide.  The new link 3-0 shortens 3's
        # route at equal cost; its child 4 must settle too (its hops
        # fell), or 4's neighbor 5 never sees that 5-4-3-0 now beats
        # 5-6-7-8-0.  Incumbent hops must come from the tree as it was
        # before the wave, not through the wave's new labels.
        graph = ASGraph(
            nodes=[(i, 0.0) for i in range(9)],
            edges=[(3, 1), (1, 2), (2, 0), (4, 3), (5, 4), (5, 6), (6, 7), (7, 8), (8, 0)],
        )
        engine = IncrementalEngine()
        assert_epoch_identical(engine, graph)
        assert engine.all_pairs(graph).path(5, 0) == (5, 6, 7, 8, 0)
        shortcut = graph.with_edge(3, 0)
        delta = _assert_repaired_epoch(engine, shortcut)
        assert engine.all_pairs(shortcut).path(5, 0) == (5, 4, 3, 0)
        assert delta["relaxed"] > 0

    def test_repair_counters_emitted_under_observer(self, fig1):
        engine = IncrementalEngine()
        obs_mod.reset_default()  # totals must be this test's alone
        with obs_mod.observed() as observer:
            engine.price_table(fig1)
            engine.price_table(fig1.with_cost(0, 99.0))
            engine.price_table(fig1.with_cost(0, 0.25))
        for metric, total in (
            (metric_names.REPAIR_RELAXED, engine.stats.relaxed),
            (metric_names.REPAIR_DETACHED, engine.stats.detached),
            (metric_names.REPAIR_REANCHORED, engine.stats.reanchored),
        ):
            assert observer.counter_total(metric, engine="incremental") == total
        assert engine.stats.detached > 0  # the increase orphaned a cone
        assert engine.stats.relaxed > 0  # the decrease ran improve waves

    @settings(max_examples=20, deadline=None)
    @given(event_scripts(max_events=8))
    def test_no_tree_dijkstras_while_node_set_is_stable(self, script):
        # Property form: whatever the script does (costs, failures,
        # recoveries -- the node set never changes), route trees are
        # only ever repaired, never rebuilt: the from-scratch Dijkstra
        # counter stays flat after the initial build.  (price_table may
        # still build avoiding trees for *newly transiting* (j, k)
        # pairs, which is lazy population, not invalidation -- hence
        # the all_pairs surface here.)
        graph, events = script
        engine = IncrementalEngine()
        _outcome(lambda: engine.all_pairs(graph))
        baseline = engine.stats.snapshot()
        failed: list = []
        for step in events:
            mutated, failed = _apply_script_step(graph, step, failed)
            if mutated is None:
                continue
            graph = mutated
            _outcome(lambda: engine.all_pairs(graph))
        assert engine.stats.dijkstra_runs == baseline[3]


class TestDynamicsComposition:
    def test_incremental_engine_with_delta_protocol_matches_reference(self):
        # Composition: the stateful verification engine rides along the
        # delta-transport BGP network and must change nothing observable.
        from repro.bgp.events import CostChange, LinkFailure, LinkRecovery
        from repro.core.dynamics import dynamic_scenario
        from repro.graphs.generators import fig1_graph

        graph = fig1_graph()
        # (2, 3) is fig1's only edge whose removal stays biconnected.
        events = [
            LinkFailure(2, 3),
            CostChange(3, 7.0),
            LinkRecovery(2, 3),
            CostChange(3, 1.0),
        ]
        baseline = dynamic_scenario(graph, events)
        combo = dynamic_scenario(
            graph, events, engine="incremental", protocol="delta"
        )
        full = dynamic_scenario(
            graph, events, engine="incremental", protocol="full"
        )
        for run in (baseline, combo, full):
            assert run.all_ok and run.all_within_bound
        for base_epoch, combo_epoch, full_epoch in zip(
            baseline.epochs, combo.epochs, full.epochs
        ):
            assert base_epoch.stages == combo_epoch.stages == full_epoch.stages
            assert (
                base_epoch.verification.prices_checked
                == combo_epoch.verification.prices_checked
                == full_epoch.verification.prices_checked
            )

    def test_engine_instance_is_reused_across_epochs(self):
        from repro.bgp.events import CostChange
        from repro.core.dynamics import dynamic_scenario
        from repro.graphs.generators import fig1_graph

        graph = fig1_graph()
        engine = get_engine("incremental")
        dynamic_scenario(graph, [CostChange(3, 7.0)], engine=engine)
        assert isinstance(engine, IncrementalEngine)
        # Two epochs were verified with ONE engine: the second was warm.
        assert engine.stats.hits > 0
