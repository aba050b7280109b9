"""E3: the Fig. 3 distributed price computation, both update modes.

Benchmarks a full protocol run to quiescence on the Internet-like
instance and asserts exact agreement with the centralized mechanism.
"""

import pytest

from repro.core.price_node import UpdateMode
from repro.core.protocol import (
    distributed_mechanism,
    timed_mechanism,
    verify_against_centralized,
)


@pytest.mark.parametrize("mode", list(UpdateMode), ids=lambda m: m.value)
def test_bench_distributed_mechanism(benchmark, isp16, mode):
    result = benchmark(distributed_mechanism, isp16, mode)
    assert verify_against_centralized(result).ok


def test_bench_distributed_mechanism_async(benchmark, isp16):
    def run():
        return timed_mechanism(isp16, seed=0)

    result = benchmark(run)
    assert verify_against_centralized(result).ok
