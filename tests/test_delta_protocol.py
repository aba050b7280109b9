"""The delta substrate: unit tests, whole-table-vs-delta differential
tests, golden pins of the whole-table transport, and randomized
(Hypothesis) equivalence under dynamic event sequences.

The staged engine has one step; ``incremental=False`` makes it send
whole tables (:meth:`BGPNode.receive_table`) on every transmission
instead of row deltas (:meth:`BGPNode.receive_delta`).  The
differential tests check that the two kinds of receipt leave exactly
the same converged tables, price rows, stage counts, message counts
and entry accounting -- on every graph and across arbitrary
fail/restore/change-cost event sequences.  Only the transport-level
rows counters may differ (that difference *is* the optimization).
``FULL_PINS`` pins what the whole-table transport produced when it
still had a step of its own, which decided every node every stage; the
runtime sanitizer (``REPRO_SANITIZE=1``) restores those full decisions
and checks every dirty decision against one.
"""

from __future__ import annotations

import hashlib

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


def _dynamics_events(graph):
    """A cost rise, a link failure, a cost fall, the link's recovery and
    a full restart, on the lowest-numbered node's first link."""
    nodes = sorted(graph.nodes)
    u = nodes[0]
    v = sorted(graph.neighbors(u))[0]
    return [
        ("change_cost", (nodes[1], 9.0)),
        ("fail_link", (u, v)),
        ("change_cost", (nodes[2], 0.5)),
        ("restore_link", (u, v)),
        ("full_restart", ()),
    ]


def _run_pair(graph, node_factory=None, events=()):
    """Run the same workload with whole-table and with delta receipt;
    returns ((full_reports, full_state), (delta_reports, delta_state),
    engines)."""
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
        full, delta, _ = _run_pair(
            graph, FACTORIES[workload], events=_dynamics_events(graph)
        )
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
# Golden pins: the whole-table transport
# ----------------------------------------------------------------------
#: The pinned graphs: bench_protocol_scaling.py's quick grid (seed 0),
#: the dynamics graph of test_dynamics_identical, and Fig. 1.
_PIN_GRAPHS = {
    **{
        f"isp-{n}": (lambda n=n: isp_like_graph(n, seed=0, cost_sampler=integer_costs(1, 6)))
        for n in (16, 36, 64)
    },
    **{
        f"grid-{side * side}": (
            lambda side=side: grid_graph(side, side, seed=0, cost_sampler=integer_costs(1, 6))
        )
        for side in (4, 6, 8)
    },
    "isp-16-seed-2": lambda: isp_like_graph(16, seed=2, cost_sampler=integer_costs(1, 6)),
    "fig1": fig1_graph,
}


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _full_transport_pin(graph, node_factory=None, events=()):
    """What ``incremental=False`` produces on one scenario: the sha256
    of every run's per-stage accounting, the sha256 of the converged
    routes, price rows and table sizes, and the rows sent in total."""
    kwargs = {"incremental": False}
    if node_factory is not None:
        kwargs["node_factory"] = node_factory
    engine = SynchronousEngine(graph, **kwargs)
    engine.initialize()
    reports = [engine.run()]
    for event, args in events:
        getattr(engine, event)(*args)
        reports.append(engine.run())
    stages = [
        [
            (
                s.stage,
                s.nodes_changed,
                s.messages,
                s.entries_sent,
                s.rows_sent,
                s.rows_suppressed,
            )
            for s in report.per_stage
        ]
        for report in reports
    ]
    return (
        _digest(stages),
        _digest(_engine_state(engine)),
        sum(report.total_rows_sent for report in reports),
    )


#: "graph/workload/scenario" -> _full_transport_pin(...), recorded with
#: the whole-table step that ran next to the delta step until the full
#: transport became a flag of it; "events" runs _dynamics_events after
#: the cold convergence.  Regenerate only for a deliberate model change.
FULL_PINS = {
    "isp-16/plain/cold": (
        "fcbfb0475ac3e1372e984ae4677f49ec73c6f1a173562dcd107fcd47473024b7",
        "9c9379d07408c9792f7e7112025f5bd5ea71c688d8bdea768fdbb7e3a361ba2b",
        2036,
    ),
    "isp-16/plain/events": (
        "787d11ac86e32586eac028004b909da8a9a51454b18ae5b4d0b11b2a9483a8cc",
        "3ef5bbefe522b7b4c673707f72cf155607569c988420e95553c01ea2255aec0b",
        7496,
    ),
    "isp-16/price-monotone/cold": (
        "1f7dc07de589d25818ff72cad14235d2beba2d20c1ce427a63b193972cc9f9ed",
        "5c10d85838861297e4bfc0244eaa43d18234cd8ceebb6c83f1e1fd9b4835343d",
        2196,
    ),
    "isp-16/price-monotone/events": (
        "70784b6c5a5d007c2bcf31d39061e21aecd5bbec3f5f26606093ef79289a7818",
        "0b551a3534b81f935b0b97835a2dd28cc318c0cab0efa47a0365be6062dfdc8d",
        14222,
    ),
    "isp-36/plain/cold": (
        "cbd7df9a2f6bba91399e8de80e5da72e8a3bf818c55b3fb5e21ba39a013a03ae",
        "b84c5128687c5eb322f2af9662b975742adc36e2106469f4f35186ce7bdf416e",
        11411,
    ),
    "isp-36/plain/events": (
        "9668c18c9ba2ec6c4202e911bb037e440648ac6ce377461d02d1088b0f0c90e8",
        "b1ef20fceed6abbba3d5c18ac7cc6e1fbe382e9d1192da913e9bbe54ce593651",
        41182,
    ),
    "isp-36/price-monotone/cold": (
        "c5bc43df300bb83e3b0ee93bb48bea1c0f6519df6894040d104f556b14e77f5e",
        "00cbdd37f961a05b6f6ce339a6445d066c8eb17c46d3e2d180a9016dadd6bb6a",
        16775,
    ),
    "isp-36/price-monotone/events": (
        "1ddffccb9e45c2ea767b806cd6a70370b49612c95ad96f33864de2d4273a12fe",
        "871ee901c4c52fc4e09a76c119fa0e779f6adcfae72fe1882b79e56f2fb17450",
        107282,
    ),
    "isp-64/plain/cold": (
        "c00fb9880538bd8f6048182d196455be89ad23f8e13e453e54bfafeedaa9d30b",
        "ca1881f2e4851a0bc9703600d0b3e785ff03b8aeb25bef21d26eb1c2b26e531a",
        52408,
    ),
    "isp-64/plain/events": (
        "b4bc7d2bcde2c61c3b5bc81a218450051cbc18b27c5d87d924ecf7488e5c3d81",
        "ca6525c10e7a1308f567df3464d83a2358578e5dd72ca8842a07e667026f4ad8",
        162864,
    ),
    "isp-64/price-monotone/cold": (
        "7b2b51e64193ac24af911929bed51d6fd06bfc31600ab12550f3f7bae2e7352e",
        "9acb1e95fb7594b0f72a6b540243c70bc36c7532a7e38b2c733b8030342b7014",
        67256,
    ),
    "isp-64/price-monotone/events": (
        "47745004c1460fd5c6cd522e3087eb9ea868e20e3b8f44a7970c2827dc293237",
        "eb0f560fa030ffa3e96bdf61828cda5d23cb3f6a32b70bffb14ac4cb041c37f3",
        422746,
    ),
    "grid-16/plain/cold": (
        "05553bcf88142b5776bfbcff9edf1661635cf661e6f70139344a755b88ccc35c",
        "ac643494a993539eb91297dd04e9980d1a77f4b8913c6f50668cb85fc59f5e35",
        2624,
    ),
    "grid-16/plain/events": (
        "6ce918fe34d5378ec6fa9538aedd5a019aa013d7637906335977f6dd26fd6969",
        "16ae9f5bb41eb1784662a9bbf877a2be849baaa321afd9748c47aabb416728e5",
        7423,
    ),
    "grid-16/price-monotone/cold": (
        "0ce7648f5b851f9bb28c00864e7a5837fef00a0caf9d9dcbe2399115a35aed8f",
        "1d0d862a301c61b16f0e06c779730022b99670224233622bfb44427e5bf2adcf",
        2624,
    ),
    "grid-16/price-monotone/events": (
        "7b2ba809e57b3c80ebde05b41ba9a33769fa93f397f113a3af3aef83564848be",
        "13a70960907a9cc93e3d8dac400ea3c0b94cc423e39d717b6483d100b66c92b0",
        16888,
    ),
    "grid-36/plain/cold": (
        "582e4eca0a7cfe5144022c0856e2828ea6f508e71dbd7902ffd15e2ac5934abb",
        "42c979abc16193742aa54f54e493340e741fbbad099172e97b4caa58afd8eb93",
        21840,
    ),
    "grid-36/plain/events": (
        "53c1eb08525ae2489a0fb45faf55c3f9b0bab557993afc2fd197eb6e81400c19",
        "6df902f77cf4c87abaabe71cb124d501331efe10c0903e743838ecb76064f81d",
        53508,
    ),
    "grid-36/price-monotone/cold": (
        "c42499c188a7e9cf6a541b26ca1b59cfbb1273da1fa13e8b39d52783f54dd73e",
        "0d086eb4d5493237dad5c6370809f7902e7a1486cce69d041df11e7ee65614fb",
        22452,
    ),
    "grid-36/price-monotone/events": (
        "934c9769897c6a941fe9477972e40106e0bf71861edc809bb610ab43c0d5188e",
        "ef4a6870dc8d93a5a00de8206f571f21005cd8a24ed3d3ee25e5f8d16298a2c9",
        134664,
    ),
    "grid-64/plain/cold": (
        "53868903df488b7238f867778d739ca721038e14b50875f3e6d5ef533f019379",
        "fab0b869e7ce6e7cfe49138af4f507ff69e092f29e5e2980109333ac28b28ccd",
        96000,
    ),
    "grid-64/plain/events": (
        "72266190cd21a08649fcb62e13bf283fd6424763db8440340e6a82840d8848c5",
        "3669b27b08d7fb587815ff6156735698a9e0d3c979b1022ae3883bc41defd0c8",
        224512,
    ),
    "grid-64/price-monotone/cold": (
        "f6d57cc26341e9872318cda04a6f03dea712dfa069d69f317733235da2cbf9a9",
        "c39690541fd937713a18007a09704bcee03f7724edf955566338c5d4e1d0f19a",
        100864,
    ),
    "grid-64/price-monotone/events": (
        "79b07123fd293e34f7b1de84d1c03958ddf8b375b4be77ed2bdb3c4bd4ead300",
        "6116c97b246ab6758415841e6aaa3477ed3f3c621bec38c0ffc0fcb48e14c2c0",
        604600,
    ),
    "isp-16-seed-2/price-monotone/cold": (
        "7df2f4f57089c275cc673803485bc308e709af518fb92cf6d12d7bfd7c9d54cf",
        "ffbe6066305bf896016b49630c041cf804b98bc368f86c03cacef88492b0202e",
        2806,
    ),
    "isp-16-seed-2/price-monotone/events": (
        "9186502ddc200ba4b547263bae2f7d3e0da5269c3896e6f300e27a68616b86d4",
        "0eebd0c6c09e07f7f2f223279581a6c1a25890869df1997aaf100bb7f644acfe",
        16932,
    ),
    "isp-16-seed-2/price-recompute/cold": (
        "7df2f4f57089c275cc673803485bc308e709af518fb92cf6d12d7bfd7c9d54cf",
        "ffbe6066305bf896016b49630c041cf804b98bc368f86c03cacef88492b0202e",
        2806,
    ),
    "isp-16-seed-2/price-recompute/events": (
        "9186502ddc200ba4b547263bae2f7d3e0da5269c3896e6f300e27a68616b86d4",
        "0eebd0c6c09e07f7f2f223279581a6c1a25890869df1997aaf100bb7f644acfe",
        16932,
    ),
    "fig1/plain/cold": (
        "3a7a872be7a513daf4f04a705dc568da3f0a746b8f838bc5d93414c6f67d6fa6",
        "b6d96def9db367c4dcd4058098d050cf5973941bccd054357de3c181b850d38d",
        190,
    ),
    "fig1/plain/events": (
        "6e49b0baedc889805a8d04a881ad6b2d397b4952aceeea311e29a5edfd04079e",
        "78009e29121975251a6fa840659e84777eb06af79b37f837128e1159cd8b758d",
        697,
    ),
    "fig1/price-monotone/cold": (
        "2bdbedee363c7aed740dcb6a18aa068653e1e2c1c9b70dbc0bb3a781d865dbc8",
        "770d93fdf02b2b8723cac4a84c9156e555e5ebb08c6eb7cee23870b3020bbe5b",
        262,
    ),
    "fig1/price-monotone/events": (
        "50dbdc6275b2d45993c064367d3b3e5efa216956ac154797618a094a2cbb0b3e",
        "8788568a0133bf6e84a105a3cc7de11e26e3d2c05aa5f5d7aaa28303e5b84251",
        1400,
    ),
}


class TestFullTransportPins:
    @pytest.mark.parametrize("key", sorted(FULL_PINS))
    def test_pinned(self, key):
        graph_name, workload, scenario = key.split("/")
        graph = _PIN_GRAPHS[graph_name]()
        events = _dynamics_events(graph) if scenario == "events" else ()
        pin = _full_transport_pin(graph, FACTORIES[workload], events)
        assert pin == FULL_PINS[key]


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
