"""Tests for the flat-CSR routing core and the ``flat`` engine.

The flat engine's correctness story has three independent layers, each
pinned here against the reference path: the one-shot CSR build must
equal the ``w(u -> v) = c_v`` matrix read straight off
``graph.edges``; in-place masking must implement ``G - k`` exactly
(including the stored-zero round-trip for zero-cost nodes), matching
the reference k-avoiding detour costs, and restore the arrays
verbatim; and the demand-restricted sweep must reproduce the reference
engine's prices, error classes, error *messages*, and deterministic
violation witness -- on fixed graphs and on Hypothesis-drawn ones
whose half-integer costs make ties frequent, since ties are where
nondeterminism would hide.  Cross-engine value
agreement is additionally covered by the differential harness
(``test_engine_differential.py``) and the golden fixtures -- the flat
engine registers like any other backend, so those parametrize over it
automatically.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

import repro.obs as obs
from repro.exceptions import (
    DisconnectedGraphError,
    MechanismError,
    NotBiconnectedError,
)
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import (
    fig1_graph,
    integer_costs,
    isp_like_graph,
    random_biconnected_graph,
    uniform_costs,
)
from repro.mechanism.vcg import compute_price_table
from repro.routing import flatsweep
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.avoiding import avoiding_tree
from repro.routing.engines import FlatEngine, FlatSweepStats, get_engine
from repro.routing.flatgraph import build_flat_graph
from repro.routing.flatsweep import flat_price_arrays
from repro.types import costs_close


def zero_cost_graph() -> ASGraph:
    """A biconnected graph with a zero-cost node on transit paths."""
    return ASGraph(
        nodes=[(0, 2.0), (1, 0.0), (2, 3.0), (3, 1.0), (4, 4.0)],
        edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)],
    )


def cut_vertex_graph() -> ASGraph:
    """Two triangles sharing node 2: every cross pair transits 2."""
    return ASGraph(
        nodes=[(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)],
        edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],
    )


@st.composite
def biconnected_graphs(draw, min_nodes=5, max_nodes=11):
    """A cycle plus random chords, costs quantized to halves."""
    n = draw(st.integers(min_nodes, max_nodes))
    costs = draw(
        st.lists(
            st.integers(0, 10).map(lambda v: v / 2.0),
            min_size=n, max_size=n,
        )
    )
    chord_pool = [(i, j) for i in range(n) for j in range(i + 2, n)
                  if not (i == 0 and j == n - 1)]
    chords = draw(st.lists(st.sampled_from(chord_pool), unique=True, max_size=6))
    edges = [(i, (i + 1) % n) for i in range(n)] + chords
    return ASGraph(nodes=list(enumerate(costs)), edges=edges)


@st.composite
def cut_vertex_graphs(draw, min_nodes=5, max_nodes=9):
    """A biconnected cycle-plus-chords block with a pendant triangle
    glued at one node -- that node is a cut vertex, so every cross pair
    transits it and its avoiding solve finds no path."""
    block = draw(biconnected_graphs(min_nodes=min_nodes, max_nodes=max_nodes))
    joint = draw(st.sampled_from(list(block.nodes)))
    n = block.num_nodes
    extra_costs = draw(
        st.lists(st.integers(0, 10).map(lambda v: v / 2.0), min_size=2, max_size=2)
    )
    nodes = [(v, block.cost(v)) for v in block.nodes]
    nodes += [(n, extra_costs[0]), (n + 1, extra_costs[1])]
    edges = list(block.edges) + [(joint, n), (joint, n + 1), (n, n + 1)]
    return ASGraph(nodes=nodes, edges=edges)


def edge_weight_matrix(graph: ASGraph):
    """The ``w(u -> v) = c_v`` reduction built densely from
    ``graph.edges``, plus a mask of the entries a CSR must store."""
    index = graph.index_of()
    costs = np.empty(graph.num_nodes)
    for node, i in index.items():
        costs[i] = graph.cost(node)
    weights = np.zeros((graph.num_nodes, graph.num_nodes))
    stored = np.zeros_like(weights, dtype=bool)
    for u, v in graph.edges:
        ui, vi = index[u], index[v]
        weights[ui, vi], weights[vi, ui] = costs[vi], costs[ui]
        stored[ui, vi] = stored[vi, ui] = True
    return weights, stored, costs, index


class TestFlatGraphBuild:
    @pytest.mark.parametrize(
        "factory",
        [fig1_graph, zero_cost_graph, lambda: isp_like_graph(20, seed=1)],
    )
    def test_matches_directed_weight_matrix(self, factory):
        graph = factory()
        flat = build_flat_graph(graph)
        expected, stored, costs, index = edge_weight_matrix(graph)
        assert flat.index == index
        np.testing.assert_array_equal(flat.costs, costs)
        matrix = flat.matrix()
        np.testing.assert_array_equal(matrix.toarray(), expected)
        # the stored structure matches too, not just the dense values
        # (a dropped stored zero would be invisible in toarray())
        assert flat.num_stored == matrix.nnz == 2 * graph.num_edges
        coo = matrix.tocoo()
        assert stored[coo.row, coo.col].all()

    def test_index_arrays_are_csgraph_native(self):
        flat = build_flat_graph(fig1_graph())
        assert flat.indptr.dtype == np.int32
        assert flat.indices.dtype == np.int32

    def test_zero_cost_weights_are_stored(self):
        graph = zero_cost_graph()
        flat = build_flat_graph(graph)
        zero_in = flat.in_edge_positions(flat.index[1])
        assert zero_in.size > 0
        assert (flat.weights[zero_in] == 0.0).all()


class TestMasking:
    def test_masked_dijkstra_equals_avoiding_matrix(self):
        graph = isp_like_graph(18, seed=2, cost_sampler=integer_costs(1, 6))
        flat = build_flat_graph(graph)
        index = flat.index
        for k in graph.nodes:
            with flat.masked(index[k]) as matrix:
                dist = csgraph_dijkstra(
                    matrix, directed=True, return_predecessors=False
                )
            transit = dist - flat.costs[np.newaxis, :]
            # rows/columns of k itself are mechanism-undefined (masking
            # leaves k's out-edges intact) -- compare everywhere else.
            for destination in graph.nodes:
                if destination == k:
                    continue
                detours = avoiding_tree(graph, destination, k)
                for source in graph.nodes:
                    if source in (k, destination):
                        continue
                    expected = (
                        detours.cost(source) if detours.has_route(source) else np.inf
                    )
                    assert transit[index[source], index[destination]] == pytest.approx(
                        expected
                    ), (k, source, destination)

    def test_mask_restores_weights_verbatim(self):
        graph = zero_cost_graph()
        flat = build_flat_graph(graph)
        before = flat.weights.copy()
        for node in graph.nodes:
            ki = flat.index[node]
            with flat.masked(ki):
                masked = flat.in_edge_positions(ki)
                assert np.isinf(flat.weights[masked]).all()
            np.testing.assert_array_equal(flat.weights, before)
        # zero-cost node 1's stored zeros survived every round-trip
        assert (flat.weights[flat.in_edge_positions(flat.index[1])] == 0.0).all()

    def test_masking_is_o_deg_k(self):
        graph = isp_like_graph(20, seed=4)
        flat = build_flat_graph(graph)
        for node in graph.nodes:
            ki = flat.index[node]
            assert flat.in_edge_positions(ki).size == flat.degree(ki)
        assert sum(flat.degree(flat.index[v]) for v in graph.nodes) == flat.num_stored


class TestFlatPriceRows:
    @pytest.mark.parametrize(
        "factory",
        [
            fig1_graph,
            zero_cost_graph,
            lambda: random_biconnected_graph(
                14, 0.3, seed=9, cost_sampler=uniform_costs(0.0, 5.0)
            ),
        ],
    )
    def test_agrees_with_reference_table(self, factory):
        graph = factory()
        routes = all_pairs_lcp(graph)
        expected = compute_price_table(graph, routes).rows
        actual = flat_price_arrays(graph, routes).to_rows()
        assert set(actual) == set(expected)
        for pair in expected:
            assert set(actual[pair]) == set(expected[pair])
            for k in expected[pair]:
                assert costs_close(actual[pair][k], expected[pair][k])

    @settings(max_examples=8, deadline=None)
    @given(biconnected_graphs())
    def test_tie_heavy_graphs_price_as_reference(self, graph):
        routes = all_pairs_lcp(graph)
        expected = compute_price_table(graph).rows
        assert FlatEngine().price_table(graph, routes).rows == expected

    def test_forest_routes_reuse_their_flat_graph(self):
        """Pricing forest-built routes builds the flat graph once, in
        the forest: demand inversion reuses the one its rows index."""
        graph = isp_like_graph(40, seed=7, cost_sampler=uniform_costs(1.0, 6.0))
        expected = compute_price_table(graph).rows
        with mock.patch.object(
            flatsweep, "build_flat_graph", side_effect=AssertionError("second build")
        ):
            tables = [
                FlatEngine().price_table(graph).rows,
                flat_price_arrays(graph).to_rows(),
            ]
        for actual in tables:
            assert set(actual) == set(expected)
            for pair in expected:
                assert set(actual[pair]) == set(expected[pair])
                for k in expected[pair]:
                    assert costs_close(actual[pair][k], expected[pair][k])

    def test_demand_restriction_stats(self):
        graph = isp_like_graph(40, seed=6, cost_sampler=integer_costs(1, 6))
        stats = FlatSweepStats()
        flat_price_arrays(graph, stats=stats)
        n = graph.num_nodes
        assert stats.solves > 0
        # the whole point: far fewer distance rows than one full
        # Dijkstra per transit node would compute
        assert stats.rows < stats.solves * n
        assert stats.max_block_rows <= n
        assert stats.entries > 0
        assert stats.masked > 0


class TestErrorParity:
    def test_not_biconnected_matches_reference_witness(self):
        graph = cut_vertex_graph()
        with pytest.raises(NotBiconnectedError) as reference_error:
            get_engine("reference").price_table(graph)
        with pytest.raises(NotBiconnectedError) as flat_error:
            get_engine("flat").price_table(graph)
        assert str(flat_error.value) == str(reference_error.value)

    @settings(max_examples=8, deadline=None)
    @given(cut_vertex_graphs())
    def test_cut_vertex_graphs_raise_reference_message(self, graph):
        with pytest.raises(NotBiconnectedError) as reference_error:
            get_engine("reference").price_table(graph)
        with pytest.raises(NotBiconnectedError) as flat_error:
            FlatEngine().price_table(graph)
        assert str(flat_error.value) == str(reference_error.value)

    def test_negative_price_witness_matches_reference(self):
        # Theorem 1 prices are non-negative on consistent inputs, so
        # drive the defensive guard with inconsistent ones: routes
        # priced on a uniformly scaled-up copy of the graph select the
        # *same* paths (scaling preserves every comparison and
        # tie-break) but report 10x LCP costs, pushing every transit
        # price negative.  Both sweeps must pick the same witness.
        graph = fig1_graph()
        scaled = ASGraph(
            nodes=[(n, graph.cost(n) * 10.0) for n in graph.nodes],
            edges=list(graph.edges),
        )
        expensive_routes = all_pairs_lcp(scaled)
        with pytest.raises(MechanismError) as reference_error:
            compute_price_table(graph, routes=expensive_routes)
        with pytest.raises(MechanismError) as flat_error:
            flat_price_arrays(graph, routes=expensive_routes)
        assert "negative VCG price" in str(reference_error.value)
        assert str(flat_error.value) == str(reference_error.value)

    def test_cost_matrix_disconnected(self):
        graph = ASGraph(
            nodes=[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            edges=[(0, 1), (2, 3)],
        )
        with pytest.raises(DisconnectedGraphError, match=r"nodes \[2, 3\] cannot reach 0"):
            get_engine("flat").cost_matrix(graph)


class TestFlatEngineSurface:
    def test_cost_matrix_matches_reference(self, fig1):
        reference = get_engine("reference").cost_matrix(fig1)
        flat = get_engine("flat").cost_matrix(fig1)
        assert flat.index == reference.index
        np.testing.assert_array_equal(flat.matrix, reference.matrix)

    def test_obs_counters(self, fig1):
        observer = obs.Obs(sinks=[obs.MemorySink()])
        table = FlatEngine().price_table(fig1, obs=observer)
        assert len(table.rows) > 0
        solves = observer.counter_total(obs.names.FLAT_SOLVES, engine="flat")
        rows = observer.counter_total(obs.names.FLAT_ROWS, engine="flat")
        masked = observer.counter_total(obs.names.FLAT_MASKED, engine="flat")
        assert solves > 0
        assert rows >= solves  # every solve computes at least one row
        assert masked > 0
        assert observer.counter_total(
            obs.names.PRICE_ROWS, engine="flat"
        ) == len(table.rows)
        count, _elapsed = observer.span_stats(obs.names.SPAN_ENGINE_PRICE_TABLE)
        assert count == 1

    def test_trace_summarize_surfaces_flat_rows(self, fig1, tmp_path):
        from repro.obs.trace import summarize_trace, summary_tables

        stats = FlatSweepStats()
        flat_price_arrays(fig1, stats=stats)
        path = tmp_path / "flat.jsonl"
        observer = obs.Obs()
        sink = observer.add_sink(obs.JSONLSink(str(path)))
        FlatEngine().price_table(fig1, obs=observer)
        sink.close()
        summary = summarize_trace(str(path))
        assert summary.flat_seen
        assert (summary.flat_solves, summary.flat_rows, summary.flat_masked) == (
            stats.solves, stats.rows, stats.masked
        )
        assert stats.solves > 0 and stats.masked > 0
        rendered = summary_tables(summary)[0].render()
        for label in (
            "flat sweep Dijkstra solves",
            "flat sweep distance rows",
            "flat sweep entries masked",
        ):
            assert label in rendered

    def test_unobserved_call_emits_nothing(self, fig1):
        # no global observer, no explicit one: the engine must not
        # touch the default observer
        fresh = obs.reset_default()
        FlatEngine().price_table(fig1)
        assert fresh.counter_total(obs.names.FLAT_SOLVES, engine="flat") == 0
