"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one experiment artifact from DESIGN.md's
experiment index (E1..E12) and *asserts* its reproduction criterion, so
``pytest benchmarks/ --benchmark-only`` is both a performance run and a
re-verification of the paper's claims.
"""

from __future__ import annotations

import pytest

from repro.graphs.generators import (
    fig1_graph,
    integer_costs,
    isp_like_graph,
    random_biconnected_graph,
    ring_graph,
)


@pytest.fixture(scope="session")
def fig1():
    return fig1_graph()


@pytest.fixture(scope="session")
def isp16():
    """The benchmark workhorse: a 16-AS Internet-like topology."""
    return isp_like_graph(16, seed=0, cost_sampler=integer_costs(1, 6))


@pytest.fixture(scope="session")
def isp32():
    """A larger instance for the scaling benchmarks."""
    return isp_like_graph(32, seed=0, cost_sampler=integer_costs(1, 6))


@pytest.fixture(scope="session")
def isp100():
    """The engine-comparison instance: all-pairs prices at n = 100 are
    expensive enough (seconds, pure Python) for the flat engine to show
    real wall-clock separation."""
    return isp_like_graph(100, seed=0, cost_sampler=integer_costs(1, 6))


@pytest.fixture(scope="session")
def isp100_reference_prices(isp100):
    """The reference engine's price table on ``isp100``, computed once;
    every engine benchmark asserts agreement against it."""
    from repro.mechanism.vcg import compute_price_table

    return compute_price_table(isp100)


@pytest.fixture(scope="session")
def ring12():
    return ring_graph(12, seed=0, cost_sampler=integer_costs(1, 5))


@pytest.fixture(scope="session")
def random14():
    return random_biconnected_graph(14, 0.25, seed=0, cost_sampler=integer_costs(0, 5))
