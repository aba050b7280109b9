"""Tests for repro.devtools.sanitize (runtime invariant checks).

The contract under test is two-sided: clean protocol runs sail through
with the sanitizer on, and each *seeded corruption* -- a negative price,
an off-path price entry, an identity violation, a mutated path tuple, a
non-optimal LCP, a broken precondition, a non-monotone stage, a change
record that misses a row -- trips exactly its check.  The toggle mechanics (env var, enable/disable, the
``sanitized`` context manager, zero checks when off) are pinned as well.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.bgp.messages import RouteAdvertisement, RouteDelta
from repro.bgp.table import RouteEntry
from repro.core.price_node import PriceComputingNode
from repro.core.protocol import (
    distributed_mechanism,
    timed_mechanism,
    verify_against_centralized,
)
from repro.devtools import sanitize
from repro.exceptions import SanitizerError
from repro.graphs.asgraph import ASGraph
from repro.mechanism.vcg import compute_price_table
from repro.routing import allpairs, dijkstra
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.dijkstra import route_tree

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def _sanitizer_off_between_tests():
    """Each test starts from a known-off sanitizer regardless of the
    ``REPRO_SANITIZE`` environment the suite was launched with."""
    with sanitize.sanitized(on=False):
        yield


@pytest.fixture
def line5():
    """A 5-node path graph: connected but riddled with cut vertices."""
    return ASGraph(
        nodes=[(i, 1.0) for i in range(5)],
        edges=[(0, 1), (1, 2), (2, 3), (3, 4)],
    )


class TestToggle:
    def test_enable_disable(self):
        assert not sanitize.enabled()
        sanitize.enable()
        assert sanitize.enabled()
        sanitize.disable()
        assert not sanitize.enabled()

    def test_context_manager_restores(self):
        with sanitize.sanitized():
            assert sanitize.enabled()
        assert not sanitize.enabled()

    def test_context_manager_can_force_off(self):
        sanitize.enable()
        with sanitize.sanitized(on=False):
            assert not sanitize.enabled()
        assert sanitize.enabled()
        sanitize.disable()

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with sanitize.sanitized():
                raise RuntimeError("boom")
        assert not sanitize.enabled()

    @pytest.mark.parametrize("value, expected", [("1", "on"), ("", "off"), ("0", "off")])
    def test_environment_variable_read_at_import(self, value, expected):
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_SANITIZE=value)
        code = (
            "from repro.devtools import sanitize; "
            "print('on' if sanitize.enabled() else 'off')"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == expected

    def test_no_checks_run_when_off(self, fig1):
        before = sanitize.checks_run()
        compute_price_table(fig1)
        result = distributed_mechanism(fig1)
        assert verify_against_centralized(result).ok
        assert sanitize.checks_run() == before

    def test_checks_run_when_on(self, fig1):
        before = sanitize.checks_run()
        with sanitize.sanitized():
            compute_price_table(fig1)
        assert sanitize.checks_run() > before


class TestCleanRunsPass:
    def test_centralized_table(self, fig1):
        with sanitize.sanitized():
            table = compute_price_table(fig1)
        assert table.rows

    def test_distributed_synchronous(self, fig1):
        with sanitize.sanitized():
            result = distributed_mechanism(fig1)
        assert verify_against_centralized(result).ok

    def test_distributed_asynchronous(self, square):
        with sanitize.sanitized():
            result = timed_mechanism(square, seed=3)
        assert verify_against_centralized(result).ok

    def test_dynamics_with_failure_and_restart(self, fig1):
        # warm reconvergence after a link failure must not false-positive
        # on the (disarmed) liveness and monotonicity checks.
        with sanitize.sanitized():
            result = distributed_mechanism(fig1)
            engine = result.engine
            u, v = sorted(engine.adjacency)[0], None
            v = sorted(engine.adjacency[u])[0]
            engine.fail_link(u, v)
            engine.run()
            engine.restore_link(u, v)
            engine.run()


class TestBiconnectivityPrecondition:
    def test_path_graph_rejected(self, line5):
        with sanitize.sanitized():
            with pytest.raises(SanitizerError, match=r"\[sanitize:biconnected\]"):
                distributed_mechanism(line5)

    def test_error_names_articulation_points(self, line5):
        with sanitize.sanitized():
            with pytest.raises(SanitizerError, match=r"articulation points \[1, 2, 3\]"):
                sanitize.check_biconnected(line5)

    def test_unchecked_when_off(self, line5):
        # without the sanitizer the precondition surfaces later, as a
        # NotBiconnectedError from the price computation -- the sanitizer
        # only *fronts* the diagnosis, it does not change behavior.
        from repro.exceptions import NotBiconnectedError

        with pytest.raises(NotBiconnectedError):
            compute_price_table(line5)


class TestPathCheck:
    def has_edge(self, u, v):
        return abs(u - v) == 1  # a line topology

    def test_valid_path_passes(self):
        sanitize.check_path((0, 1, 2), has_edge=self.has_edge, source=0, destination=2)

    def test_wrong_source(self):
        with pytest.raises(SanitizerError, match="does not start at source"):
            sanitize.check_path((1, 2), has_edge=self.has_edge, source=0)

    def test_wrong_destination(self):
        with pytest.raises(SanitizerError, match="does not end at destination"):
            sanitize.check_path((0, 1), has_edge=self.has_edge, destination=2)

    def test_loop(self):
        with pytest.raises(SanitizerError, match="revisits a node"):
            sanitize.check_path((0, 1, 0), has_edge=lambda u, v: True)

    def test_dead_link(self):
        with pytest.raises(SanitizerError, match="non-existent link"):
            sanitize.check_path((0, 2), has_edge=self.has_edge)

    def test_empty_path(self):
        with pytest.raises(SanitizerError, match="empty path"):
            sanitize.check_path((), has_edge=self.has_edge)


class TestLcpCheck:
    def test_optimal_route_passes(self, fig1):
        table = compute_price_table(fig1)
        routes = table.routes
        source, destination = sorted(routes.paths)[0]
        sanitize.check_lcp(
            fig1,
            source,
            destination,
            routes.path(source, destination),
            routes.cost(source, destination),
        )

    def test_inconsistent_cost(self, fig1, labels):
        X, Z = labels["X"], labels["Z"]
        table = compute_price_table(fig1)
        path = table.routes.path(X, Z)
        with pytest.raises(SanitizerError, match="recomputed transit cost"):
            sanitize.check_lcp(fig1, X, Z, path, table.routes.cost(X, Z) + 1.0)

    def test_non_optimal_path(self, fig1, labels):
        # X -> A -> Z is a real walk but costs more than the selected LCP
        X, A, Z = labels["X"], labels["A"], labels["Z"]
        detour = (X, A, Z)
        cost = fig1.path_cost(detour)
        with pytest.raises(SanitizerError, match="not lowest-cost"):
            sanitize.check_lcp(fig1, X, Z, detour, cost)

    def test_tied_but_non_canonical_path(self, triangle):
        # force a tie: direct link 0-2 vs 0-1-2 with c_1 = 0
        graph = triangle.with_cost(1, 0.0)
        with pytest.raises(SanitizerError, match="canonical"):
            sanitize.check_lcp(graph, 0, 2, (0, 1, 2), 0.0)

    def test_given_reference_tree_is_used(self, triangle):
        graph = triangle.with_cost(1, 0.0)
        reference = route_tree(graph, 2)
        with pytest.raises(SanitizerError, match="canonical"):
            sanitize.check_lcp(graph, 0, 2, (0, 1, 2), 0.0, reference=reference)

    def test_all_pairs_check_runs_one_dijkstra_per_destination(
        self, fig1, monkeypatch
    ):
        routes = all_pairs_lcp(fig1)
        calls = []

        def counting_route_tree(graph, destination):
            calls.append(destination)
            return route_tree(graph, destination)

        monkeypatch.setattr(allpairs, "route_tree", counting_route_tree)
        monkeypatch.setattr(dijkstra, "route_tree", counting_route_tree)
        allpairs._sanitize_routes(fig1, routes)
        assert sorted(calls) == list(fig1.nodes)


class TestPriceRowCheck:
    @pytest.fixture
    def pair(self, fig1, labels):
        """The Figure 1 pair (X, Z) with its genuine LCP and price row."""
        X, Z = labels["X"], labels["Z"]
        table = compute_price_table(fig1)
        path = table.routes.path(X, Z)
        return fig1, X, Z, path, table.row(X, Z)

    def test_genuine_row_passes(self, pair):
        graph, source, destination, path, row = pair
        sanitize.check_price_row(graph, source, destination, path, row)

    def test_negative_price(self, pair):
        graph, source, destination, path, row = pair
        row[path[1]] = -0.5
        with pytest.raises(SanitizerError, match=r"\[sanitize:price-nonnegative\]"):
            sanitize.check_price_row(graph, source, destination, path, row)

    def test_non_finite_price(self, pair):
        graph, source, destination, path, row = pair
        row[path[1]] = float("inf")
        with pytest.raises(SanitizerError, match=r"\[sanitize:price-finite\]"):
            sanitize.check_price_row(graph, source, destination, path, row)

    def test_off_path_entry(self, pair, labels):
        graph, source, destination, path, row = pair
        row[labels["A"]] = 1.0  # A is not transit on the (X, Z) LCP
        with pytest.raises(SanitizerError, match=r"\[sanitize:zero-off-path\]"):
            sanitize.check_price_row(graph, source, destination, path, row)

    def test_identity_violation(self, pair):
        graph, source, destination, path, row = pair
        row[path[1]] += 0.25  # still positive, still on-path: only the
        # Theorem 1 recomputation can catch it
        with pytest.raises(SanitizerError, match=r"\[sanitize:price-identity\]"):
            sanitize.check_price_row(graph, source, destination, path, row)

    def test_mutated_path_tuple(self, fig1, labels):
        # a corrupted *path* makes the whole row inconsistent: the row
        # mentions nodes that are off the mutated path
        X, A, Z = labels["X"], labels["A"], labels["Z"]
        table = compute_price_table(fig1)
        row = table.row(X, Z)
        with pytest.raises(SanitizerError, match=r"\[sanitize:zero-off-path\]"):
            sanitize.check_price_row(fig1, X, Z, (X, A, Z), row)


class TestPriceTableCheck:
    def test_genuine_table_passes(self, small_random):
        table = compute_price_table(small_random)
        sanitize.check_price_table(graph=small_random, table=table)

    def test_corrupted_entry_caught(self, fig1, labels):
        table = compute_price_table(fig1)
        X, Z = labels["X"], labels["Z"]
        k = min(table.row(X, Z))
        # The table is read-only: seed +1.0 on p^k_XZ into a copy of its
        # price column and check a table built over that copy.
        ids = table.node_ids.tolist()
        pair = [
            (ids[s], ids[d]) for s, d in zip(table.pair_src, table.pair_dst)
        ].index((X, Z))
        start, stop = table.pair_offset[pair], table.pair_offset[pair + 1]
        transit = [ids[e] for e in table.entry_k[start:stop]]
        prices = table.prices.copy()
        prices[start + transit.index(k)] += 1.0
        corrupted = dataclasses.replace(table, prices=prices)
        with pytest.raises(SanitizerError, match=r"\[sanitize:price-identity\]"):
            sanitize.check_price_table(fig1, corrupted)


class TestMonotoneCheck:
    def test_improvement_passes(self):
        before = {9: (5.0, 2, (0, 1, 9))}
        after = {9: (4.0, 2, (0, 3, 9))}
        sanitize.check_routes_monotone(0, before, after)

    def test_worsened_key(self):
        before = {9: (4.0, 2, (0, 3, 9))}
        after = {9: (5.0, 2, (0, 1, 9))}
        with pytest.raises(SanitizerError, match="worsened its route"):
            sanitize.check_routes_monotone(0, before, after)

    def test_lost_route(self):
        before = {9: (4.0, 2, (0, 3, 9))}
        with pytest.raises(SanitizerError, match="lost its route"):
            sanitize.check_routes_monotone(0, before, {})

    def test_engine_catches_worsened_stage(self, fig1):
        # seed the corruption inside a live synchronous run: silently
        # erase the Adj-RIB-In slice behind one node's selected route
        # (no matching network event), so the next decide() worsens or
        # loses routes and the per-stage sweep catches it.
        with sanitize.sanitized():
            result = distributed_mechanism(fig1)
            engine = result.engine
            node = engine.nodes[sorted(engine.nodes)[0]]
            destination, entry = sorted(node.routes.items())[-1]
            node.drop_neighbor(entry.next_hop)
            with pytest.raises(SanitizerError, match=r"\[sanitize:monotone\]"):
                engine.step()

    def test_engine_catches_corrupted_path(self, fig1):
        # a mutated path tuple in a Loc-RIB trips the per-stage path
        # sweep.  The sweep is invoked directly: a full step() would let
        # decide() re-select from the (uncorrupted) Adj-RIB-In and
        # self-heal the entry before the sweep sees it.
        with sanitize.sanitized():
            result = distributed_mechanism(fig1)
            engine = result.engine
            node = engine.nodes[sorted(engine.nodes)[0]]
            destination, entry = sorted(node.routes.items())[-1]
            bad_path = (entry.path[0], entry.path[1], *entry.path[1:])
            node.routes[destination] = RouteEntry(
                path=bad_path,
                cost=entry.cost,
                node_costs=entry.node_costs,
            )
            with pytest.raises(SanitizerError, match="revisits a node"):
                engine._sanitize_stage()


class TestDecisionCheck:
    """``[sanitize:decide]``: a change-driven ``decide(dirty)`` must
    leave exactly what a full ``decide()`` leaves.  The seeded
    corruption drops one (destination, neighbor) entry from the
    Adj-RIB-In's change record."""

    DEST = 9
    #: via 1 costs 1.0 and wins; via 2 costs 2.0, via 3 costs 4.0
    WORLD = {
        1: RouteAdvertisement(1, 9, (1, 9), 0.0, {1: 1.0, 9: 1.0}),
        2: RouteAdvertisement(2, 9, (2, 9), 0.0, {2: 2.0, 9: 1.0}),
        3: RouteAdvertisement(3, 9, (3, 5, 9), 1.0, {3: 3.0, 5: 1.0, 9: 1.0}, {5: 2.0}),
    }

    def _node_after(self, neighbor, row, forget=None):
        """A converged node that then receives *row* from *neighbor*;
        returns it with the dirty set, minus the record entry
        (DEST, *forget*) when given."""
        node = PriceComputingNode(0, 2.0)
        for sender, advert in self.WORLD.items():
            node.receive_table(sender, [advert])
        node.decide()
        dirty = node.receive_delta(neighbor, RouteDelta(neighbor, (row,)))
        if forget is not None:
            node.rib_in._changes[self.DEST].discard(forget)
        return node, dirty

    def test_honest_dirty_decision_passes(self):
        better = RouteAdvertisement(3, 9, (3, 9), 0.0, {3: 0.5, 9: 1.0})
        node, dirty = self._node_after(3, better)
        before = sanitize.checks_run()
        with sanitize.sanitized():
            node.decide(dirty)
        assert sanitize.checks_run() > before
        assert node.routes[self.DEST].path == (0, 3, 9)

    def test_missed_better_route(self):
        better = RouteAdvertisement(3, 9, (3, 9), 0.0, {3: 0.5, 9: 1.0})
        node, dirty = self._node_after(3, better, forget=3)
        with sanitize.sanitized(), pytest.raises(
            SanitizerError,
            match=r"\[sanitize:decide\] node 0: .* destination 9's route "
            r"\(0, 1, 9\) at cost 1.0 -> \(0, 3, 9\) at cost 0.5; .* neighbor 3's",
        ):
            node.decide(dirty)

    def test_missed_change_to_the_routes_own_neighbor(self):
        worse = RouteAdvertisement(1, 9, (1, 9), 0.0, {1: 5.0, 9: 1.0})
        node, dirty = self._node_after(1, worse, forget=1)
        with sanitize.sanitized(), pytest.raises(
            SanitizerError, match=r"\[sanitize:decide\] .* -> \(0, 2, 9\) .* neighbor 1's"
        ):
            node.decide(dirty)

    def test_missed_price_candidate(self):
        # the route stands; only the price row misses neighbor 3's
        # cheaper detour around transit node 1
        cheaper = RouteAdvertisement(3, 9, (3, 9), 0.0, {3: 1.5, 9: 1.0})
        node, dirty = self._node_after(3, cheaper, forget=3)
        with sanitize.sanitized(), pytest.raises(
            SanitizerError,
            match=r"\[sanitize:decide\] .* price row \{1: 2.0\} -> \{1: 1.5\}; .* neighbor 3's",
        ):
            node.decide(dirty)

    def test_unchecked_when_off(self):
        better = RouteAdvertisement(3, 9, (3, 9), 0.0, {3: 0.5, 9: 1.0})
        node, dirty = self._node_after(3, better, forget=3)
        node.decide(dirty)  # no full decision behind it: the miss stands
        assert node.routes[self.DEST].path == (0, 1, 9)

    def test_sanitized_engines_check_dirty_decisions(self, fig1, monkeypatch):
        checked = []
        original = sanitize.check_decision

        def counting(node):
            checked.append(node.node_id)
            original(node)

        monkeypatch.setattr(sanitize, "check_decision", counting)
        with sanitize.sanitized():
            for asynchronous in (False, True):
                checked.clear()
                api.run(fig1, asynchronous=asynchronous)
                assert checked
            checked.clear()
            api.run(fig1, protocol="timed")
            assert checked


class TestDistributedResultCheck:
    def test_corrupted_distributed_price_caught(self, fig1):
        with sanitize.sanitized():
            result = distributed_mechanism(fig1)
        # poison one converged price row, then re-run the final check
        node_id = sorted(result.engine.nodes)[0]
        node = result.node(node_id)
        destination = sorted(
            d for d, row in node.price_rows.items() if row
        )[0]
        k = sorted(node.price_rows[destination])[0]
        node.price_rows[destination][k] += 1.0
        with pytest.raises(SanitizerError, match=r"\[sanitize:price-identity\]"):
            sanitize.check_distributed_prices(
                fig1,
                {nid: n.routes for nid, n in result.engine.nodes.items()},
                {nid: n.price_rows for nid, n in result.engine.nodes.items()},
            )

    def test_sample_pairs_limits_scope(self, fig1):
        with sanitize.sanitized():
            result = distributed_mechanism(fig1)
        before = sanitize.checks_run()
        sanitize.check_distributed_prices(
            fig1,
            {nid: n.routes for nid, n in result.engine.nodes.items()},
            {nid: n.price_rows for nid, n in result.engine.nodes.items()},
            sample_pairs=[(0, 1)],
        )
        sampled = sanitize.checks_run() - before
        sanitize.check_distributed_prices(
            fig1,
            {nid: n.routes for nid, n in result.engine.nodes.items()},
            {nid: n.price_rows for nid, n in result.engine.nodes.items()},
        )
        exhaustive = sanitize.checks_run() - before - sampled
        assert 0 < sampled < exhaustive
