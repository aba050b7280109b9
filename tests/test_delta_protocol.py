"""The delta substrate: unit tests, full-vs-delta differential tests,
and randomized (Hypothesis) equivalence under dynamic event sequences.

The contract under test is *bit-identity*: with ``incremental=True``
(delta advertisements + dirty-set scheduling) the staged engine must produce
exactly the same converged tables, price rows, stage counts, message
counts, and entry accounting as the literal full-table model of
Sect. 5 -- on every graph and across arbitrary fail/restore/change-cost
event sequences.  Only the transport-level rows counters may differ
(that difference *is* the optimization).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.engine import SynchronousEngine
from repro.bgp.messages import (
    RouteAdvertisement,
    RouteDelta,
    intern_advertisement,
)
from repro.bgp.node import BGPNode
from repro.bgp.timed import TimedEngine
from repro.core.price_node import PriceComputingNode, UpdateMode
from repro.exceptions import ProtocolError
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import (
    fig1_graph,
    grid_graph,
    integer_costs,
    isp_like_graph,
)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _price_factory(mode):
    def factory(node_id, cost, policy):
        return PriceComputingNode(node_id, cost, policy, mode=mode)

    return factory


def _report_fields(report):
    """The model-level (paper-accounting) view of a ConvergenceReport --
    everything except the transport rows counters."""
    return (
        report.converged,
        report.stages,
        report.total_messages,
        report.total_entries_sent,
        [
            (s.stage, s.nodes_changed, s.messages, s.entries_sent)
            for s in report.per_stage
        ],
    )


def _engine_state(engine):
    """Full converged protocol state: routes, per-node price rows, and
    the StateReport numbers."""
    state = {}
    for node_id, node in engine.nodes.items():
        routes = sorted(
            (d, e.path, e.cost, tuple(sorted(e.node_costs.items())))
            for d, e in node.routes.items()
        )
        prices = sorted(
            (d, tuple(sorted(row.items())))
            for d, row in getattr(node, "price_rows", {}).items()
        )
        state[node_id] = (routes, prices)
    report = engine.state_report()
    state["__state_report__"] = (
        sorted(report.loc_rib_entries.items()),
        sorted(report.adj_rib_in_entries.items()),
        sorted(report.price_entries.items()),
    )
    return state


def _run_pair(graph, node_factory=None, events=()):
    """Run the same workload under both transports; returns
    ((full_reports, full_state), (delta_reports, delta_state), engines)."""
    outcomes = []
    engines = []
    for incremental in (False, True):
        kwargs = {"incremental": incremental}
        if node_factory is not None:
            kwargs["node_factory"] = node_factory
        engine = SynchronousEngine(graph, **kwargs)
        engine.initialize()
        reports = [_report_fields(engine.run())]
        for event, args in events:
            getattr(engine, event)(*args)
            reports.append(_report_fields(engine.run()))
        outcomes.append((reports, _engine_state(engine)))
        engines.append(engine)
    return outcomes[0], outcomes[1], engines


# ----------------------------------------------------------------------
# Unit: RouteDelta / interning / node-level delta machinery
# ----------------------------------------------------------------------
class TestRouteDelta:
    def _advert(self, sender=1, destination=2, path=(1, 2), cost=3.0):
        return RouteAdvertisement(
            sender=sender,
            destination=destination,
            path=path,
            cost=cost,
            node_costs={1: 1.0, 2: 2.0},
        )

    def test_size_accounting(self):
        advert = self._advert()
        delta = RouteDelta(sender=1, updates=(advert,), withdrawals=(7,))
        assert delta.size_rows() == 2
        assert delta.size_entries() == advert.size_entries() + 1
        assert not delta.is_empty
        assert RouteDelta(sender=1).is_empty

    def test_rejects_foreign_rows(self):
        advert = self._advert(sender=1)
        with pytest.raises(ProtocolError):
            RouteDelta(sender=9, updates=(advert,))

    def test_rejects_update_withdraw_overlap(self):
        advert = self._advert(destination=2, path=(1, 2))
        with pytest.raises(ProtocolError):
            RouteDelta(sender=1, updates=(advert,), withdrawals=(2,))

    def test_rejects_duplicate_withdrawals(self):
        with pytest.raises(ProtocolError):
            RouteDelta(sender=1, withdrawals=(2, 2))


class TestInterning:
    def test_equal_content_interns_to_same_object(self):
        a = RouteAdvertisement(1, 3, (1, 2, 3), 4.0, {1: 1.0, 2: 2.0, 3: 0.0})
        b = RouteAdvertisement(1, 3, (1, 2, 3), 4.0, {3: 0.0, 2: 2.0, 1: 1.0})
        assert a == b
        assert intern_advertisement(a) is intern_advertisement(b)

    def test_different_content_stays_distinct(self):
        a = intern_advertisement(RouteAdvertisement(1, 2, (1, 2), 4.0, {1: 1.0}))
        b = intern_advertisement(RouteAdvertisement(1, 2, (1, 2), 5.0, {1: 1.0}))
        assert a is not b
        assert a != b

    def test_advertisements_are_hashable_and_cached(self):
        advert = RouteAdvertisement(1, 2, (1, 2), 4.0, {1: 1.0}, {2: 3.0})
        assert hash(advert) == hash(advert)
        twin = RouteAdvertisement(1, 2, (1, 2), 4.0, {1: 1.0}, {2: 3.0})
        assert hash(advert) == hash(twin)


class TestNodeDeltaMachinery:
    def test_receive_delta_matches_receive_table(self):
        adverts = (
            RouteAdvertisement(1, 1, (1,), 0.0, {1: 1.0}),
            RouteAdvertisement(1, 3, (1, 3), 0.0, {1: 1.0, 3: 2.0}),
        )
        via_table = BGPNode(2, 1.0)
        via_table.receive_table(1, adverts)
        via_delta = BGPNode(2, 1.0)
        dirty = via_delta.receive_delta(1, RouteDelta(sender=1, updates=adverts))
        assert dirty == {1, 3}
        for destination in (1, 3):
            assert via_table.rib_in.advert(1, destination) == via_delta.rib_in.advert(
                1, destination
            )
        # withdrawal drops the row; re-withdrawing is a clean no-op
        assert via_delta.receive_delta(1, RouteDelta(1, withdrawals=(3,))) == {3}
        assert via_delta.rib_in.advert(1, 3) is None
        assert via_delta.receive_delta(1, RouteDelta(1, withdrawals=(3,))) == set()

    def test_publication_delta_tracks_changes_only(self):
        node = BGPNode(1, 1.0)
        first = node.publication_delta()
        assert [a.destination for a in first.updates] == [1]
        assert first.material and not first.withdrawals
        # no changes -> empty delta
        assert node.publication_delta().is_empty
        # learning a route publishes exactly that row
        node.receive_delta(
            2, RouteDelta(2, updates=(RouteAdvertisement(2, 2, (2,), 0.0, {2: 5.0}),))
        )
        node.decide({2})
        delta = node.publication_delta()
        assert [a.destination for a in delta.updates] == [2]
        assert node.published_rows == 2

    def test_dirty_decide_equals_full_decide(self):
        table = (
            RouteAdvertisement(2, 2, (2,), 0.0, {2: 5.0}),
            RouteAdvertisement(2, 4, (2, 4), 0.0, {2: 5.0, 4: 1.0}),
        )
        full = BGPNode(1, 1.0)
        full.receive_table(2, table)
        full.decide()
        dirty = BGPNode(1, 1.0)
        changed = dirty.receive_table(2, table)
        dirty.decide(changed)
        assert full.routes == dirty.routes
        assert full.advertisements() == dirty.advertisements()


# ----------------------------------------------------------------------
# Differential: delta transport is bit-identical to full tables
# ----------------------------------------------------------------------
FACTORIES = {
    "plain": None,
    "price-monotone": _price_factory(UpdateMode.MONOTONE),
    "price-recompute": _price_factory(UpdateMode.RECOMPUTE),
}


class TestSynchronousDifferential:
    @pytest.mark.parametrize("workload", sorted(FACTORIES))
    def test_fig1_identical(self, workload):
        full, delta, _ = _run_pair(fig1_graph(), FACTORIES[workload])
        assert full == delta

    @pytest.mark.parametrize("workload", sorted(FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs_identical(self, workload, seed):
        graph = isp_like_graph(24, seed=seed, cost_sampler=integer_costs(1, 6))
        full, delta, _ = _run_pair(graph, FACTORIES[workload])
        assert full == delta

    @pytest.mark.parametrize("workload", sorted(FACTORIES))
    def test_dynamics_identical(self, workload):
        graph = isp_like_graph(16, seed=2, cost_sampler=integer_costs(1, 6))
        nodes = sorted(graph.nodes)
        engine_probe = SynchronousEngine(graph)
        u = nodes[0]
        v = sorted(engine_probe.adjacency[u])[0]
        events = [
            ("change_cost", (nodes[1], 9.0)),
            ("fail_link", (u, v)),
            ("change_cost", (nodes[2], 0.5)),
            ("restore_link", (u, v)),
            ("full_restart", ()),
        ]
        full, delta, _ = _run_pair(graph, FACTORIES[workload], events=events)
        assert full == delta

    def test_delta_transport_saves_rows(self):
        graph = isp_like_graph(24, seed=0, cost_sampler=integer_costs(1, 6))
        for incremental in (False, True):
            engine = SynchronousEngine(graph, incremental=incremental)
            engine.initialize()
            report = engine.run()
            if incremental:
                assert report.total_rows_suppressed > 0
                delta_rows = report.total_rows_sent
            else:
                assert report.total_rows_suppressed == 0
                full_rows = report.total_rows_sent
        assert full_rows > 2 * delta_rows

    def test_acceptance_200_node_rows_drop_5x(self):
        """ISSUE 4 acceptance: >= 5x fewer advertisement rows on a
        200-node generated graph, with bit-identical reports/state."""
        graph = grid_graph(10, 20, seed=0, cost_sampler=integer_costs(1, 6))
        assert graph.num_nodes == 200
        full, delta, _ = _run_pair(graph)
        assert full == delta
        rows = {}
        for incremental in (False, True):
            engine = SynchronousEngine(graph, incremental=incremental)
            engine.initialize()
            report = engine.run()
            rows[incremental] = report.total_rows_sent
        assert rows[False] >= 5 * rows[True]


class TestAsynchronousDifferential:
    def test_non_fifo_falls_back_to_full_tables(self):
        # Deltas need in-order delivery; the reordering ablation sends
        # whole tables, so the transport suppresses nothing.
        engine = TimedEngine(fig1_graph(), fifo_links=False)
        report = engine.run()
        assert report.rows_sent > 0
        assert report.rows_suppressed == 0


# ----------------------------------------------------------------------
# Hypothesis: random graphs and random event sequences
# ----------------------------------------------------------------------
@st.composite
def protocol_graphs(draw, min_nodes=4, max_nodes=9):
    n = draw(st.integers(min_nodes, max_nodes))
    costs = draw(st.lists(st.integers(0, 6).map(float), min_size=n, max_size=n))
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
    return ASGraph(nodes=list(enumerate(costs)), edges=edges)


@settings(max_examples=15, deadline=None)
@given(protocol_graphs(), st.sampled_from(sorted(FACTORIES)))
def test_full_and_delta_transports_agree(graph, workload):
    full, delta, _ = _run_pair(graph, FACTORIES[workload])
    assert full == delta


@settings(max_examples=12, deadline=None)
@given(
    protocol_graphs(min_nodes=5, max_nodes=8),
    st.sampled_from(sorted(FACTORIES)),
    st.data(),
)
def test_transports_agree_under_random_events(graph, workload, data):
    """Random sequences of cost changes and link failures/restores
    leave both transports in identical states with identical reports.

    Link failures only target ring chords so the ring keeps the graph
    connected (the engines assume live topologies stay usable)."""
    n = graph.num_nodes
    ring = {(i, (i + 1) % n) for i in range(n)}
    ring |= {(b, a) for a, b in ring}
    chords = sorted(
        (u, v) for u, v in graph.edges if (u, v) not in ring
    )
    events = []
    failed = []
    for _ in range(data.draw(st.integers(1, 4), label="num_events")):
        choices = ["change_cost"]
        if chords:
            choices.append("fail_link")
        if failed:
            choices.append("restore_link")
        kind = data.draw(st.sampled_from(choices), label="event")
        if kind == "change_cost":
            node = data.draw(st.integers(0, n - 1), label="node")
            cost = float(data.draw(st.integers(0, 9), label="cost"))
            events.append(("change_cost", (node, cost)))
        elif kind == "fail_link":
            index = data.draw(st.integers(0, len(chords) - 1), label="edge")
            edge = chords.pop(index)
            failed.append(edge)
            events.append(("fail_link", edge))
        else:
            index = data.draw(st.integers(0, len(failed) - 1), label="restore")
            edge = failed.pop(index)
            chords.append(edge)
            events.append(("restore_link", edge))
    full, delta, _ = _run_pair(graph, FACTORIES[workload], events=events)
    assert full == delta
