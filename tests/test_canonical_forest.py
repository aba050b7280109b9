"""Differential tests of the canonical forest builder and the label kernel.

:mod:`repro.routing.forest` must rebuild the reference's tie-broken
route trees *exactly*: the same parents, the same paths, the same cost
floats (compared by ``repr``) and the same dict insertion order, or the
same :class:`DisconnectedGraphError` with the same message.  Hypothesis
draws graphs under cost families chosen to stress the candidate filter:
continuous draws (ties have measure zero), small integers and explicit
zeros (ties everywhere), log-uniform magnitudes across 18 decades
(rounding far from 1.0), near-ties one ulp-scale step apart, and
decimal fractions whose sums depend on the summation order
(``0.1 + 0.2 != 0.3``), which only the filter's tolerance keeps exact.

The routes hold the forest's dense rows and build a tree only when
asked (:class:`~repro.routing.forest.ForestTrees`); the demand
inversion reads those rows, so pricing builds no tree and densifies
none.  The integer-label :func:`~repro.routing.dijkstra.route_tree` is
itself pinned against a frozen copy of the path-tuple search it
replaced.
"""

from __future__ import annotations

import heapq
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.obs as obs
from repro.devtools import sanitize
from repro.exceptions import DisconnectedGraphError
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import (
    barabasi_albert_graph,
    integer_costs,
    isp_like_graph,
    uniform_costs,
)
from repro.routing import flatsweep, forest
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.dijkstra import RouteTree, route_tree
from repro.routing.engines import FlatEngine, get_engine
from repro.routing.flatsweep import demand_from_routes, flat_price_arrays
from repro.routing.forest import ForestStats, canonical_routes
from repro.types import costs_close

COST_FAMILIES = {
    "continuous": st.floats(0.5, 10.0),
    "integer": st.integers(0, 3).map(float),
    "zeros": st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    "log-uniform": st.floats(-9.0, 9.0).map(lambda e: 10.0**e),
    "near-tie": st.integers(0, 4).map(lambda k: 1.0 + k * 2.0**-50),
    "decimal": st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 1e16]),
}


@st.composite
def graphs(draw, family: str, connected: bool = True):
    """A random graph with non-dense node ids and *family* costs.

    Connected draws grow a random spanning tree and add chords; a
    disconnected draw splits the nodes into two such components.
    """
    n = draw(st.integers(2, 13))
    costs = draw(st.lists(COST_FAMILIES[family], min_size=n, max_size=n))
    rng = random.Random(draw(st.integers(0, 2**16)))
    ids = [3 * i + 1 for i in range(n)]
    split = n if connected else draw(st.integers(1, n - 1))
    edges = set()
    for part in (ids[:split], ids[split:]):
        for position in range(1, len(part)):
            edges.add(tuple(sorted((part[position], rng.choice(part[:position])))))
        for _ in range(draw(st.integers(0, 2 * len(part)))):
            if len(part) > 1:
                u, v = rng.sample(part, 2)
                edges.add((min(u, v), max(u, v)))
    return ASGraph(nodes=zip(ids, costs), edges=sorted(edges))


def _tree_state(tree):
    return (
        tree.destination,
        list(tree.parents.items()),
        [(node, tree.path(node)) for node in tree.parents],
        [(node, repr(cost)) for node, cost in tree.costs.items()],
    )


def _routes_state(routes):
    return [(d, _tree_state(tree)) for d, tree in routes.trees.items()]


def _outcome(build):
    try:
        return _routes_state(build())
    except DisconnectedGraphError as exc:
        return (type(exc), str(exc))


def _block_sizes(graph):
    return sorted({1, 5, graph.num_nodes})


def _with_block_size(graph, size, build):
    """Run *build* with blocks of *size* destinations: the budget is a
    module constant over the 2m directed edges, so scale it to match."""
    with mock.patch.object(forest, "_BLOCK_ELEMENTS", size * 2 * graph.num_edges):
        return build()


class TestForestMatchesReference:
    @pytest.mark.parametrize("family", sorted(COST_FAMILIES))
    @given(data=st.data())
    def test_connected(self, family, data):
        graph = data.draw(graphs(family))
        expected = _routes_state(all_pairs_lcp(graph))
        for size in _block_sizes(graph):
            routes = _with_block_size(graph, size, lambda: canonical_routes(graph))
            assert _routes_state(routes) == expected

    @pytest.mark.parametrize("family", ["continuous", "integer"])
    @given(data=st.data())
    def test_disconnected_error_matches(self, family, data):
        graph = data.draw(graphs(family, connected=False))
        expected = _outcome(lambda: all_pairs_lcp(graph))
        assert expected[0] is DisconnectedGraphError
        for size in _block_sizes(graph):
            outcome = _with_block_size(
                graph, size, lambda: _outcome(lambda: canonical_routes(graph))
            )
            assert outcome == expected

    def test_engines_return_builder_routes(self):
        graph = isp_like_graph(40, seed=7, cost_sampler=integer_costs(0, 6))
        routes = FlatEngine().all_pairs(graph)
        assert _routes_state(routes) == _routes_state(all_pairs_lcp(graph))

    def test_single_node(self):
        graph = ASGraph(nodes=[(5, 1.0)])
        assert _routes_state(canonical_routes(graph)) == _routes_state(
            all_pairs_lcp(graph)
        )


class TestFallbacks:
    def test_ties_force_the_kernel(self):
        stats = ForestStats()
        graph = isp_like_graph(40, seed=1, cost_sampler=integer_costs(0, 3))
        routes = _with_block_size(
            graph, 7, lambda: canonical_routes(graph, stats=stats)
        )
        assert stats.fallbacks > 0
        assert stats.blocks == 6
        assert _routes_state(routes) == _routes_state(all_pairs_lcp(graph))

    @pytest.mark.parametrize("seed", range(4))
    def test_order_dependent_rounding(self, seed):
        rng = random.Random(seed)
        graph = barabasi_albert_graph(
            60, seed=seed, cost_sampler=lambda _: rng.choice([0.1, 0.2, 0.3, 0.7, 1e16])
        )
        assert _routes_state(canonical_routes(graph)) == _routes_state(
            all_pairs_lcp(graph)
        )

    def test_continuous_isp_resolves_without_fallback(self):
        stats = ForestStats()
        graph = isp_like_graph(150, seed=0, cost_sampler=uniform_costs(1.0, 6.0))
        routes = canonical_routes(graph, stats=stats)
        assert stats.fallbacks == 0
        assert _routes_state(routes) == _routes_state(all_pairs_lcp(graph))


class TestForestTreesView:
    def test_mapping_surface(self):
        graph = isp_like_graph(30, seed=3, cost_sampler=integer_costs(0, 3))
        trees = canonical_routes(graph).trees
        assert list(trees) == list(graph.nodes)
        assert len(trees) == graph.num_nodes
        assert graph.nodes[0] in trees and -1 not in trees
        with pytest.raises(KeyError):
            trees[-1]
        with pytest.raises(TypeError):
            trees[graph.nodes[0]] = trees[graph.nodes[1]]
        with pytest.raises(TypeError):
            del trees[graph.nodes[0]]

    def test_repr_builds_nothing(self):
        graph = isp_like_graph(30, seed=3, cost_sampler=uniform_costs(1.0, 6.0))
        with mock.patch.object(forest, "RouteTree", wraps=RouteTree) as built:
            routes = canonical_routes(graph)
            text = repr(routes.trees)
            repr(routes)
        assert built.call_count == 0
        assert text == "<ForestTrees: 30 destinations, 0 built>"

    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize(
        "cost_sampler", [integer_costs(0, 3), uniform_costs(1.0, 6.0)]
    )
    def test_equals_reference_in_any_access_order(self, size, cost_sampler):
        graph = isp_like_graph(40, seed=1, cost_sampler=cost_sampler)
        expected = all_pairs_lcp(graph)
        routes = _with_block_size(graph, size, lambda: canonical_routes(graph))
        # Rows are built one at a time, in whatever order they are asked for.
        for destination in reversed(graph.nodes):
            assert _tree_state(routes.tree(destination)) == _tree_state(
                expected.tree(destination)
            )
        assert routes == expected and expected == routes
        assert _routes_state(routes) == _routes_state(expected)

    def test_pricing_builds_no_tree(self):
        graph = isp_like_graph(40, seed=7, cost_sampler=uniform_costs(1.0, 6.0))
        with sanitize.sanitized(False), mock.patch.object(
            forest, "RouteTree", wraps=RouteTree
        ) as built:
            table = FlatEngine().price_table(graph)
            assert built.call_count == 0
            destination = graph.nodes[5]
            first = table.routes.tree(destination)
            assert table.routes.tree(destination) is first
            assert built.call_count == 1

    def test_pricing_densifies_no_tree(self):
        graph = isp_like_graph(40, seed=7, cost_sampler=uniform_costs(1.0, 6.0))
        expected = get_engine("reference").price_table(graph)
        with mock.patch.object(
            flatsweep, "densify_tree", side_effect=AssertionError("densified")
        ):
            table = FlatEngine().price_table(graph)
        assert table.routes == expected.routes
        assert list(table.rows) == list(expected.rows)
        for pair, row in expected.rows.items():
            assert list(table.rows[pair]) == list(row)
            assert all(costs_close(table.rows[pair][k], price) for k, price in row.items())


class TestDemandFromForest:
    @pytest.mark.parametrize("family", ["continuous", "integer", "zeros"])
    @given(data=st.data())
    def test_canonical_demand_equals_route_demand(self, family, data):
        """Demand read from the forest rows the canonical routes hold
        equals demand densified from the reference's route dicts."""
        graph = data.draw(graphs(family))
        expected = demand_from_routes(graph, all_pairs_lcp(graph))
        actual = demand_from_routes(graph, canonical_routes(graph))
        for column in (
            "pair_src",
            "pair_dst",
            "pair_lcp",
            "pair_offset",
            "entry_k",
            "order",
            "src_by_k",
            "dst_by_k",
            "lcp_by_k",
            "group_k",
            "group_ptr",
        ):
            left, right = getattr(actual, column), getattr(expected, column)
            assert left.dtype == right.dtype and np.array_equal(left, right), column

    def test_price_arrays_without_routes(self):
        graph = isp_like_graph(40, seed=7, cost_sampler=uniform_costs(1.0, 6.0))
        given_routes = flat_price_arrays(graph, all_pairs_lcp(graph))
        from_forest = flat_price_arrays(graph)
        assert np.array_equal(from_forest.prices, given_routes.prices)
        assert np.array_equal(from_forest.entry_k, given_routes.entry_k)


class TestObservability:
    def test_forest_counters(self):
        graph = isp_like_graph(30, seed=2, cost_sampler=integer_costs(0, 3))
        observer = obs.Obs(sinks=[obs.MemorySink()])
        FlatEngine().all_pairs(graph, obs=observer)
        assert observer.counter_total(obs.names.FOREST_BLOCKS, engine="flat") == 1
        assert observer.counter_total(obs.names.FOREST_FALLBACKS, engine="flat") > 0
        assert observer.counter_total(obs.names.ROUTE_TREES, engine="flat") == 30

    def test_trace_summarize_surfaces_forest_rows(self, fig1, tmp_path):
        from repro.obs.trace import summarize_trace, summary_tables

        path = tmp_path / "forest.jsonl"
        observer = obs.Obs()
        sink = observer.add_sink(obs.JSONLSink(str(path)))
        FlatEngine().price_table(fig1, obs=observer)
        sink.close()
        summary = summarize_trace(str(path))
        assert summary.forest_seen
        assert summary.forest_blocks == 1
        rendered = summary_tables(summary)[0].render()
        assert "canonical forest blocks" in rendered
        assert "canonical forest fallbacks (ties)" in rendered


# ----------------------------------------------------------------------
# The label kernel against the path-tuple search it replaced.
# ----------------------------------------------------------------------


def _path_tuple_route_tree(graph, destination):
    """The path-keyed generalized Dijkstra, frozen: heap keys are whole
    ``(cost, hops, path)`` tuples, built once per relaxation."""
    best = {destination: (0.0, 0, (destination,))}
    finalized = {}
    heap = [(best[destination], destination)]
    while heap:
        key, node = heapq.heappop(heap)
        if node in finalized:
            continue
        if key != best.get(node):
            continue
        finalized[node] = key
        cost, _hops, path = key
        hop_cost = 0.0 if node == destination else graph.cost(node)
        for neighbor in graph.neighbors(node):
            if neighbor in finalized or neighbor in path:
                continue
            candidate_path = (neighbor,) + path
            candidate = (cost + hop_cost, len(candidate_path) - 1, candidate_path)
            incumbent = best.get(neighbor)
            if incumbent is None or candidate < incumbent:
                best[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    parents, paths, costs = {}, {}, {}
    for node, (cost, _hops, path) in finalized.items():
        if node != destination:
            parents[node] = path[1]
            paths[node] = path
            costs[node] = cost
    return (
        destination,
        list(parents.items()),
        list(paths.items()),
        [(node, repr(cost)) for node, cost in costs.items()],
    )


class TestLabelKernel:
    @pytest.mark.parametrize("family", sorted(COST_FAMILIES))
    @given(data=st.data())
    def test_matches_path_tuple_search(self, family, data):
        graph = data.draw(graphs(family, connected=data.draw(st.booleans())))
        for destination in graph.nodes:
            assert _tree_state(route_tree(graph, destination)) == (
                _path_tuple_route_tree(graph, destination)
            )

    @pytest.mark.parametrize("family", sorted(COST_FAMILIES))
    @given(data=st.data())
    def test_matches_on_masked_views(self, family, data):
        graph = data.draw(graphs(family, connected=data.draw(st.booleans())))
        masked = data.draw(st.sampled_from(graph.nodes))
        view = graph.masked_without_node(masked)
        for destination in view.nodes:
            tree = route_tree(view, destination)
            assert _tree_state(tree) == _path_tuple_route_tree(view, destination)
            # Masking a cut node leaves the sources it cut off unlabeled.
            assert set(tree.parents) == _reachable(view, destination) - {destination}


def _reachable(view, destination):
    """Nodes *destination* reaches in *view*, by its ``neighbors``."""
    seen = {destination}
    stack = [destination]
    while stack:
        for neighbor in view.neighbors(stack.pop()):
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return seen
