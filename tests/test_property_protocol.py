"""Property-based tests for the distributed protocol: on every randomly
drawn biconnected instance, the BGP-based computation must reproduce the
centralized routes and prices exactly and respect the Theorem 2 bound."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.convergence import convergence_bound
from repro.core.price_node import UpdateMode
from repro.core.protocol import (
    distributed_mechanism,
    timed_mechanism,
    verify_against_centralized,
)
from repro.graphs.asgraph import ASGraph


@st.composite
def protocol_graphs(draw, min_nodes=4, max_nodes=9):
    n = draw(st.integers(min_nodes, max_nodes))
    costs = draw(st.lists(st.integers(0, 6).map(float), min_size=n, max_size=n))
    chord_pool = [(i, j) for i in range(n) for j in range(i + 2, n)
                  if not (i == 0 and j == n - 1)]
    chords = draw(st.lists(st.sampled_from(chord_pool), unique=True, max_size=6)) if chord_pool else []
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    return ASGraph(nodes=list(enumerate(costs)), edges=edges)


@settings(max_examples=20, deadline=None)
@given(protocol_graphs(), st.sampled_from(list(UpdateMode)))
def test_distributed_equals_centralized(graph, mode):
    result = distributed_mechanism(graph, mode=mode)
    verification = verify_against_centralized(result)
    assert verification.ok, verification.mismatches[:3]


@settings(max_examples=20, deadline=None)
@given(protocol_graphs())
def test_convergence_respects_theorem_2(graph):
    bound = convergence_bound(graph)
    result = distributed_mechanism(graph)
    assert result.stages <= bound.stages


@settings(max_examples=12, deadline=None)
@given(protocol_graphs(max_nodes=7), st.integers(0, 10_000))
def test_asynchronous_delivery_order_is_immaterial(graph, seed):
    result = timed_mechanism(graph, seed=seed)
    assert verify_against_centralized(result).ok


@settings(max_examples=15, deadline=None)
@given(protocol_graphs())
def test_price_rows_internally_consistent(graph):
    # each node's advertised prices are exactly its price rows, and the
    # rows cover exactly the transit nodes of its selected paths
    result = distributed_mechanism(graph)
    for node_id, node in result.engine.nodes.items():
        for destination, entry in node.routes.items():
            row = node.price_rows.get(destination, {})
            assert set(row) == set(entry.transit)
