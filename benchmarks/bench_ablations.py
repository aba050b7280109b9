"""E15: the design-choice ablations as a benchmark.

The positive configurations are benchmarked (they are the shipping
code paths); the negative controls are asserted once outside the
timer so the benchmark still certifies the failures exist.
"""

from repro.bgp.policy import LowestCostPolicy
from repro.bgp.timed import TimedEngine
from repro.core.price_node import PriceComputingNode, UpdateMode
from repro.core.protocol import (
    DistributedPriceResult,
    distributed_mechanism,
    verify_against_centralized,
)
from repro.graphs.generators import waxman_graph


def test_bench_monotone_mode(benchmark, isp16):
    result = benchmark(distributed_mechanism, isp16, UpdateMode.MONOTONE)
    assert verify_against_centralized(result).ok


def test_bench_recompute_mode(benchmark, isp16):
    result = benchmark(distributed_mechanism, isp16, UpdateMode.RECOMPUTE)
    assert verify_against_centralized(result).ok


def test_bench_async_fifo(benchmark):
    graph = waxman_graph(12, seed=2)

    def factory(node_id, cost, policy):
        return PriceComputingNode(node_id, cost, policy)

    def run():
        engine = TimedEngine(
            graph, policy=LowestCostPolicy(), node_factory=factory, seed=2
        )
        engine.initialize()
        report = engine.run()
        return DistributedPriceResult(
            graph=graph, engine=engine, report=report, mode=UpdateMode.MONOTONE
        )

    result = benchmark(run)
    assert verify_against_centralized(result).ok
