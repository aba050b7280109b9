"""E11: engine scaling -- reference vs flat, same answers.

The price-table benchmarks run the reference engine and the ``flat``
engine on the same n = 100 ISP-like instance and assert the results
equal the reference engine's bit for bit (integer costs keep the flat
sweep's reassociated sums exact), so the benchmark doubles as the
differential harness at benchmark scale.  The assertion layer guarantees the speed
never buys different answers.
"""

from repro.mechanism.vcg import compute_price_table
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.engines import get_engine


def test_bench_python_all_pairs(benchmark, isp32):
    routes = benchmark(all_pairs_lcp, isp32)
    assert len(routes.paths) == isp32.num_nodes * (isp32.num_nodes - 1)


def test_bench_flat_all_pairs(benchmark, isp32):
    engine = get_engine("flat")
    routes = benchmark(engine.all_pairs, isp32)
    assert routes.paths == all_pairs_lcp(isp32).paths


def test_bench_prices_reference_n100(benchmark, isp100, isp100_reference_prices):
    table = benchmark.pedantic(compute_price_table, args=(isp100,), rounds=1, iterations=1)
    assert table.rows == isp100_reference_prices.rows


def test_bench_prices_flat_n100(benchmark, isp100, isp100_reference_prices):
    engine = get_engine("flat")
    table = benchmark.pedantic(engine.price_table, args=(isp100,), rounds=1, iterations=1)
    assert table.rows == isp100_reference_prices.rows
