"""Regression tests for the ablation knobs -- the negative controls.

These pin the three failure modes discovered while building the
distributed protocol, so they can never silently regress into the
default configuration:

* disabling the Sect. 6 restart corrupts post-event prices;
* the literal Eq. 3 child formula corrupts prices under asynchrony;
* dropping per-link FIFO corrupts even route state.
"""

import pytest

from repro.bgp.engine import SynchronousEngine
from repro.bgp.events import CostChange
from repro.bgp.policy import LowestCostPolicy
from repro.bgp.timed import TimedEngine
from repro.core.price_node import PriceComputingNode, UpdateMode
from repro.core.protocol import DistributedPriceResult, verify_against_centralized
from repro.graphs.generators import (
    integer_costs,
    random_biconnected_graph,
    ring_graph,
    waxman_graph,
)


def _price_factory(**kwargs):
    def factory(node_id, cost, policy):
        return PriceComputingNode(node_id, cost, policy, **kwargs)

    return factory


class TestRestartKnob:
    def _run_cost_increase(self, restart):
        graph = ring_graph(8, seed=0, cost_sampler=integer_costs(1, 5))
        engine = SynchronousEngine(
            graph,
            node_factory=_price_factory(mode=UpdateMode.MONOTONE),
            restart_on_events=restart,
        )
        engine.initialize()
        engine.run()
        victim = graph.nodes[0]
        new_cost = graph.cost(victim) * 3.0 + 1.0
        CostChange(victim, new_cost).apply(engine)
        report = engine.run()
        mutated = graph.with_cost(victim, new_cost)
        result = DistributedPriceResult(
            graph=mutated, engine=engine, report=report, mode=UpdateMode.MONOTONE
        )
        return verify_against_centralized(result)

    def test_with_restart_is_exact(self):
        assert self._run_cost_increase(True).ok

    def test_without_restart_is_wrong(self):
        # the negative control: stale candidates undercut the new truth
        assert not self._run_cost_increase(False).ok


class TestChildFormulaKnob:
    def _async_scan(self, literal, seeds=8):
        bad = 0
        for seed in range(seeds):
            graph = waxman_graph(12, seed=seed)
            engine = TimedEngine(
                graph,
                policy=LowestCostPolicy(),
                node_factory=_price_factory(
                    mode=UpdateMode.MONOTONE, literal_child_formula=literal
                ),
                seed=seed,
            )
            engine.initialize()
            report = engine.run()
            result = DistributedPriceResult(
                graph=graph, engine=engine, report=report, mode=UpdateMode.MONOTONE
            )
            if not verify_against_centralized(result).ok:
                bad += 1
        return bad

    def test_advert_consistent_formula_is_exact(self):
        assert self._async_scan(False) == 0

    def test_literal_formula_fails_somewhere(self):
        assert self._async_scan(True) > 0

    def test_literal_formula_fine_when_synchronous(self):
        # on the synchronous engine the premise holds and Eq. 3 is exact
        graph = waxman_graph(12, seed=1)
        engine = SynchronousEngine(
            graph,
            node_factory=_price_factory(
                mode=UpdateMode.MONOTONE, literal_child_formula=True
            ),
        )
        engine.initialize()
        report = engine.run()
        result = DistributedPriceResult(
            graph=graph, engine=engine, report=report, mode=UpdateMode.MONOTONE
        )
        assert verify_against_centralized(result).ok


class TestFifoKnob:
    def _async_scan(self, fifo, seeds=8):
        bad = 0
        for seed in range(seeds):
            graph = random_biconnected_graph(
                9, 0.25, seed=seed, cost_sampler=integer_costs(0, 5)
            )
            engine = TimedEngine(
                graph,
                policy=LowestCostPolicy(),
                node_factory=_price_factory(),
                seed=seed,
                fifo_links=fifo,
            )
            engine.initialize()
            report = engine.run()
            result = DistributedPriceResult(
                graph=graph, engine=engine, report=report, mode=UpdateMode.MONOTONE
            )
            if not verify_against_centralized(result).ok:
                bad += 1
        return bad

    def test_fifo_is_exact(self):
        assert self._async_scan(True) == 0

    def test_reordering_fails_somewhere(self):
        assert self._async_scan(False) > 0
