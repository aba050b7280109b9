"""Tests for repro.mechanism.vcg (Theorem 1)."""

import math

import pytest

from repro.exceptions import MechanismError, NotBiconnectedError
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import integer_costs, random_biconnected_graph
from repro.mechanism.vcg import compute_price_table, payments, vcg_price
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.avoiding import avoiding_cost


class TestVcgPrice:
    def test_fig1_payments(self, fig1, labels):
        X, B, D, Y, Z = (labels[n] for n in "XBDYZ")
        assert vcg_price(fig1, X, Z, D) == 3.0
        assert vcg_price(fig1, X, Z, B) == 4.0
        assert vcg_price(fig1, Y, Z, D) == 9.0

    def test_zero_off_the_path(self, fig1, labels):
        assert vcg_price(fig1, labels["X"], labels["Z"], labels["A"]) == 0.0
        assert vcg_price(fig1, labels["X"], labels["Z"], labels["Y"]) == 0.0

    def test_price_at_least_cost(self, small_random):
        routes = all_pairs_lcp(small_random)
        for (source, destination), path in routes.paths.items():
            for k in path[1:-1]:
                price = vcg_price(small_random, source, destination, k, routes=routes)
                assert price >= small_random.cost(k) - 1e-9

    def test_non_biconnected_raises(self):
        graph = ASGraph(
            nodes=[(i, 1.0) for i in range(5)],
            edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],
        )
        # node 2 is a cut vertex on the LCP 0 -> 4
        with pytest.raises(NotBiconnectedError):
            vcg_price(graph, 0, 4, 2)


class TestPriceTable:
    def test_matches_single_price_queries(self, small_random):
        table = compute_price_table(small_random)
        routes = table.routes
        for (source, destination), path in routes.paths.items():
            for k in path[1:-1]:
                assert table.price(k, source, destination) == pytest.approx(
                    vcg_price(small_random, source, destination, k, routes=routes)
                )

    def test_rows_cover_exactly_transit_nodes(self, fig1, labels):
        table = compute_price_table(fig1)
        row = table.row(labels["X"], labels["Z"])
        assert set(row) == {labels["B"], labels["D"]}

    def test_direct_links_have_empty_rows(self, fig1, labels):
        assert table_row_empty(compute_price_table(fig1), labels["A"], labels["Z"])

    def test_total_price(self, fig1, labels):
        table = compute_price_table(fig1)
        assert table.total_price(labels["X"], labels["Z"]) == 7.0

    def test_node_prices_view(self, fig1, labels):
        table = compute_price_table(fig1)
        d_prices = table.node_prices(labels["D"])
        assert d_prices[(labels["X"], labels["Z"])] == 3.0
        assert d_prices[(labels["Y"], labels["Z"])] == 9.0

    def test_marginal_formula(self, small_random):
        # p^k_ij = c_k + Cost(P_{-k}) - Cost(P)
        table = compute_price_table(small_random)
        routes = table.routes
        for (source, destination), row in table.items():
            for k, price in row.items():
                detour = avoiding_cost(small_random, source, destination, k)
                expected = small_random.cost(k) + detour - routes.cost(source, destination)
                assert price == pytest.approx(expected)

    def test_pairs_sorted(self, triangle):
        table = compute_price_table(triangle)
        assert list(table.pairs()) == sorted(table.pairs())

    def test_rows_reject_item_assignment(self, fig1, labels):
        table = compute_price_table(fig1)
        X, Z = labels["X"], labels["Z"]
        with pytest.raises(TypeError):
            table.rows[(X, Z)] = {}
        with pytest.raises(TypeError):
            del table.rows[(X, Z)]
        with pytest.raises(ValueError):
            table.prices[0] = 0.0
        assert table.row(X, Z) == {labels["B"]: 4.0, labels["D"]: 3.0}

    def test_mutating_a_returned_row_leaves_table_unchanged(self, fig1, labels):
        table = compute_price_table(fig1)
        X, Z, D = labels["X"], labels["Z"], labels["D"]
        before = dict(table.rows)
        table.rows[(X, Z)][D] += 1.0
        table.row(X, Z).clear()
        for _pair, row in table.items():
            row.clear()
        for row in table.rows.values():
            row[D] = -1.0
        assert table.rows == before
        assert table.price(D, X, Z) == 3.0


def table_row_empty(table, source, destination):
    return table.row(source, destination) == {}


class TestPayments:
    def test_single_packet(self, fig1, labels):
        table = compute_price_table(fig1)
        paid = payments(table, {(labels["X"], labels["Z"]): 1.0})
        assert paid[labels["D"]] == 3.0
        assert paid[labels["B"]] == 4.0
        assert paid[labels["A"]] == 0.0

    def test_scales_with_intensity(self, fig1, labels):
        table = compute_price_table(fig1)
        paid = payments(table, {(labels["X"], labels["Z"]): 10.0})
        assert paid[labels["D"]] == 30.0

    def test_sums_over_pairs(self, fig1, labels):
        table = compute_price_table(fig1)
        paid = payments(
            table,
            {(labels["X"], labels["Z"]): 1.0, (labels["Y"], labels["Z"]): 1.0},
        )
        assert paid[labels["D"]] == 12.0  # 3 + 9

    def test_negative_traffic_rejected(self, fig1, labels):
        table = compute_price_table(fig1)
        with pytest.raises(MechanismError, match="negative"):
            payments(table, {(labels["X"], labels["Z"]): -1.0})

    def test_every_node_present(self, fig1):
        table = compute_price_table(fig1)
        paid = payments(table, {})
        assert set(paid) == set(fig1.nodes)
        assert all(value == 0.0 for value in paid.values())

    @pytest.mark.parametrize("seed", range(3))
    def test_no_transit_no_payment(self, seed):
        graph = random_biconnected_graph(
            9, 0.3, seed=seed, cost_sampler=integer_costs(1, 5)
        )
        table = compute_price_table(graph)
        routes = table.routes
        traffic = {(graph.nodes[0], graph.nodes[1]): 5.0}
        paid = payments(table, traffic)
        path = routes.path(graph.nodes[0], graph.nodes[1])
        for node in graph.nodes:
            if node not in path[1:-1]:
                assert paid[node] == 0.0
