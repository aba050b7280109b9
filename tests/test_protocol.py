"""Tests for repro.core.protocol and price_node: the end-to-end claim."""

import math

import pytest

from repro.core.convergence import convergence_bound
from repro.core.price_node import PriceComputingNode, UpdateMode
from repro.core.protocol import (
    distributed_mechanism,
    timed_mechanism,
    verify_against_centralized,
)
from repro.exceptions import MechanismError
from repro.graphs.generators import (
    clique_graph,
    fig1_graph,
    grid_graph,
    integer_costs,
    isp_like_graph,
    random_biconnected_graph,
    ring_graph,
    wheel_graph,
)
from repro.mechanism.vcg import compute_price_table


class TestFig1EndToEnd:
    @pytest.mark.parametrize("mode", list(UpdateMode))
    def test_exact_paper_prices(self, labels, mode):
        result = distributed_mechanism(fig1_graph(), mode=mode)
        assert result.price(labels["D"], labels["X"], labels["Z"]) == pytest.approx(3.0)
        assert result.price(labels["B"], labels["X"], labels["Z"]) == pytest.approx(4.0)
        assert result.price(labels["D"], labels["Y"], labels["Z"]) == pytest.approx(9.0)

    def test_off_path_price_zero(self, labels):
        result = distributed_mechanism(fig1_graph())
        assert result.price(labels["A"], labels["X"], labels["Z"]) == 0.0

    def test_paths_and_costs_exposed(self, labels):
        result = distributed_mechanism(fig1_graph())
        assert result.path(labels["X"], labels["Z"]) == (
            labels["X"], labels["B"], labels["D"], labels["Z"],
        )
        assert result.cost(labels["X"], labels["Z"]) == 3.0

    def test_converges_within_bound(self):
        graph = fig1_graph()
        result = distributed_mechanism(graph)
        assert result.stages <= convergence_bound(graph).stages

    def test_unknown_pair_raises(self, labels):
        result = distributed_mechanism(fig1_graph())
        with pytest.raises(MechanismError):
            result.path(labels["X"], 99)


FAMILY_CASES = [
    ("ring", lambda s: ring_graph(7, seed=s, cost_sampler=integer_costs(1, 4))),
    ("wheel", lambda s: wheel_graph(8, seed=s, cost_sampler=integer_costs(0, 4))),
    ("grid", lambda s: grid_graph(3, 3, seed=s, cost_sampler=integer_costs(1, 5))),
    ("clique", lambda s: clique_graph(6, seed=s, cost_sampler=integer_costs(0, 3))),
    ("random", lambda s: random_biconnected_graph(11, 0.25, seed=s, cost_sampler=integer_costs(0, 5))),
    ("isp", lambda s: isp_like_graph(13, seed=s, cost_sampler=integer_costs(1, 6))),
]


class TestAgreementSweep:
    @pytest.mark.parametrize("family,maker", FAMILY_CASES)
    @pytest.mark.parametrize("mode", list(UpdateMode))
    def test_sync_agreement_and_bound(self, family, maker, mode):
        for seed in range(3):
            graph = maker(seed)
            bound = convergence_bound(graph)
            result = distributed_mechanism(graph, mode=mode)
            verification = verify_against_centralized(result)
            assert verification.ok, f"{family}/{seed}: {verification.mismatches[:3]}"
            assert result.stages <= bound.stages, f"{family}/{seed}"

    @pytest.mark.parametrize("family,maker", FAMILY_CASES[:4])
    def test_async_agreement(self, family, maker):
        graph = maker(1)
        result = timed_mechanism(graph, seed=5)
        assert verify_against_centralized(result).ok

    def test_modes_agree_with_each_other(self, small_random):
        monotone = distributed_mechanism(small_random, mode=UpdateMode.MONOTONE)
        recompute = distributed_mechanism(small_random, mode=UpdateMode.RECOMPUTE)
        for (pair, row) in monotone.price_rows().items():
            other = recompute.price_rows()[pair]
            assert set(row) == set(other)
            for k in row:
                assert row[k] == pytest.approx(other[k])


class TestVerificationReport:
    def test_counts(self, triangle):
        result = distributed_mechanism(triangle)
        report = verify_against_centralized(result)
        assert report.pairs_checked == 6
        assert report.ok
        report.raise_on_mismatch()  # no-op when clean

    def test_raise_on_mismatch(self, triangle):
        result = distributed_mechanism(triangle)
        report = verify_against_centralized(result)
        # forge a mismatch
        from repro.core.protocol import Mismatch

        report.mismatches.append(
            Mismatch("price", 0, 1, 2, 1.0, 2.0)
        )
        with pytest.raises(MechanismError, match="mismatch"):
            report.raise_on_mismatch()


class TestPriceNodeInternals:
    def test_price_rows_cover_exactly_transit(self, labels):
        result = distributed_mechanism(fig1_graph())
        node_x = result.node(labels["X"])
        row = node_x.price_rows[labels["Z"]]
        assert set(row) == {labels["B"], labels["D"]}

    def test_prices_converged_flag(self, labels):
        result = distributed_mechanism(fig1_graph())
        for node_id in fig1_graph().nodes:
            assert result.node(node_id).prices_converged()

    def test_price_query_defaults_to_zero(self, labels):
        result = distributed_mechanism(fig1_graph())
        assert result.node(labels["X"]).price(labels["A"], labels["Z"]) == 0.0

    def test_reset_prices_sets_infinity(self, labels):
        result = distributed_mechanism(fig1_graph())
        node = result.node(labels["X"])
        node.reset_prices()
        assert node.price_rows[labels["Z"]][labels["D"]] == math.inf

    def test_restart_clears_rows(self, labels):
        result = distributed_mechanism(fig1_graph())
        node = result.node(labels["X"])
        node.restart()
        assert node.price_rows == {}

    def test_advertised_prices_match_rows(self, labels):
        result = distributed_mechanism(fig1_graph())
        node = result.node(labels["X"])
        for advert in node.advertisements():
            if advert.destination == labels["Z"]:
                if advert.is_self_route:
                    continue
                assert dict(advert.prices) == node.price_rows[labels["Z"]]


class TestZeroCostGraphs:
    """Zero transit costs produce heavy ties; everything must still agree."""

    @pytest.mark.parametrize("mode", list(UpdateMode))
    def test_all_zero_costs(self, mode):
        graph = random_biconnected_graph(
            9, 0.3, seed=2, cost_sampler=lambda rng: 0.0
        )
        result = distributed_mechanism(graph, mode=mode)
        assert verify_against_centralized(result).ok

    @pytest.mark.parametrize("mode", list(UpdateMode))
    def test_mixed_zero_costs(self, mode):
        graph = random_biconnected_graph(
            10, 0.25, seed=4, cost_sampler=integer_costs(0, 1)
        )
        result = distributed_mechanism(graph, mode=mode)
        assert verify_against_centralized(result).ok
