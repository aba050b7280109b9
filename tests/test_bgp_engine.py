"""Tests for the protocol engines: the staged synchronous engine and
the asynchronous runs of the timed engine."""

import pytest

from repro.bgp.delays import UniformDelay
from repro.bgp.engine import SynchronousEngine
from repro.bgp.policy import HopCountPolicy
from repro.bgp.timed import TimedEngine
from repro.core.convergence import convergence_bound
from repro.exceptions import ConvergenceError, ProtocolError
from repro.graphs.generators import integer_costs, random_biconnected_graph
from repro.routing.allpairs import all_pairs_lcp


class TestSynchronousBasics:
    def test_requires_initialize_before_step(self, triangle):
        engine = SynchronousEngine(triangle)
        with pytest.raises(ProtocolError, match="initialize"):
            engine.step()

    def test_run_auto_initializes(self, triangle):
        engine = SynchronousEngine(triangle)
        report = engine.run()
        assert report.converged

    def test_quiescent_after_run(self, triangle):
        engine = SynchronousEngine(triangle)
        engine.initialize()
        engine.run()
        assert engine.quiescent

    def test_stage_budget_enforced(self, small_random):
        engine = SynchronousEngine(small_random)
        engine.initialize()
        with pytest.raises(ConvergenceError):
            engine.run(max_stages=1)

    def test_routes_match_centralized(self, small_random):
        engine = SynchronousEngine(small_random)
        engine.initialize()
        engine.run()
        routes = all_pairs_lcp(small_random)
        for source in small_random.nodes:
            for destination in small_random.nodes:
                if source == destination:
                    continue
                entry = engine.node(source).route(destination)
                assert entry is not None
                assert entry.path == routes.path(source, destination)
                assert entry.cost == routes.cost(source, destination)

    def test_converges_within_d(self, small_random):
        engine = SynchronousEngine(small_random)
        engine.initialize()
        report = engine.run()
        assert report.stages <= convergence_bound(small_random).d

    def test_message_accounting_positive(self, triangle):
        engine = SynchronousEngine(triangle)
        engine.initialize()
        report = engine.run()
        assert report.total_messages > 0
        assert report.total_entries_sent > 0
        assert len(report.per_stage) >= report.stages

    def test_state_report(self, small_random):
        engine = SynchronousEngine(small_random)
        engine.initialize()
        engine.run()
        state = engine.state_report()
        assert state.max_loc_rib > 0
        assert state.total_state > 0
        # plain BGP has no price entries
        assert state.max_price_entries == 0

    def test_hopcount_policy_converges(self, small_random):
        engine = SynchronousEngine(small_random, policy=HopCountPolicy())
        engine.initialize()
        report = engine.run()
        assert report.converged
        for source in small_random.nodes:
            for destination in small_random.nodes:
                if source != destination:
                    assert engine.node(source).route(destination) is not None


class TestSynchronousDynamics:
    def test_fail_link_reconverges(self, square):
        engine = SynchronousEngine(square)
        engine.initialize()
        engine.run()
        engine.fail_link(0, 1)
        report = engine.run()
        assert report.converged
        # 0 now reaches 1 the long way around
        assert engine.node(0).route(1).path == (0, 3, 2, 1)

    def test_fail_unknown_link(self, square):
        engine = SynchronousEngine(square)
        engine.initialize()
        with pytest.raises(ProtocolError):
            engine.fail_link(0, 2)

    def test_restore_link(self, square):
        engine = SynchronousEngine(square)
        engine.initialize()
        engine.run()
        engine.fail_link(0, 1)
        engine.run()
        engine.restore_link(0, 1)
        engine.run()
        assert engine.node(0).route(1).path == (0, 1)

    def test_change_cost_moves_traffic(self, fig1, labels):
        engine = SynchronousEngine(fig1)
        engine.initialize()
        engine.run()
        assert engine.node(labels["X"]).route(labels["Z"]).path[1] == labels["B"]
        # make D terribly expensive: X should reroute via A
        engine.change_cost(labels["D"], 50.0)
        engine.run()
        assert engine.node(labels["X"]).route(labels["Z"]).path == (
            labels["X"], labels["A"], labels["Z"],
        )


class TestEventGuards:
    """Both engines share the event handlers' guards: a dead link or an
    unknown endpoint raises before any state changes."""

    @pytest.mark.parametrize("engine_cls", [SynchronousEngine, TimedEngine])
    def test_dead_link_and_unknown_endpoint(self, square, engine_cls):
        engine = engine_cls(square)
        engine.initialize()
        engine.fail_link(0, 1)
        with pytest.raises(ProtocolError, match="no live link between 0 and 1"):
            engine.fail_link(0, 1)
        with pytest.raises(ProtocolError, match="no live link between 1 and 0"):
            engine.fail_link(1, 0)
        with pytest.raises(ProtocolError, match=r"unknown endpoint on link \(0, 9\)"):
            engine.restore_link(0, 9)
        assert engine.adjacency == {0: {3}, 1: {2}, 2: {1, 3}, 3: {0, 2}}


class TestAsynchronous:
    def test_matches_centralized_routes(self, small_random):
        engine = TimedEngine(small_random, seed=11)
        engine.initialize()
        report = engine.run()
        assert report.converged
        routes = all_pairs_lcp(small_random)
        for source in small_random.nodes:
            for destination in small_random.nodes:
                if source != destination:
                    entry = engine.node(source).route(destination)
                    assert entry.path == routes.path(source, destination)

    @pytest.mark.parametrize("seed", range(4))
    def test_any_delay_schedule_converges_identically(self, seed):
        graph = random_biconnected_graph(
            8, 0.3, seed=seed, cost_sampler=integer_costs(0, 5)
        )
        routes = all_pairs_lcp(graph)
        engine = TimedEngine(graph, seed=seed * 13 + 1)
        engine.initialize()
        engine.run()
        for source in graph.nodes:
            for destination in graph.nodes:
                if source != destination:
                    assert engine.node(source).route(destination).path == routes.path(
                        source, destination
                    )

    def test_delivery_budget(self, small_random):
        engine = TimedEngine(small_random, seed=0)
        engine.initialize()
        with pytest.raises(ConvergenceError):
            engine.run(max_events=3)

    def test_invalid_delays_rejected(self, triangle):
        with pytest.raises(ProtocolError):
            TimedEngine(triangle, delay=UniformDelay(min_delay=2.0, max_delay=1.0))
