"""Cross-engine differential harness: every registered engine, same answers.

The engine registry (:mod:`repro.routing.engines`) is a correctness
contract: whatever backend computes the all-pairs costs and Theorem 1
prices, the answers must match the serial pure-Python reference.  This
harness drives every registered engine over seeded random biconnected
topologies (reusing :mod:`repro.graphs.generators`) and asserts
pairwise agreement:

* **costs** bit-identical for every ordered pair (every engine
  returns the canonical routes and reads its costs from them);
* **prices** with identical stored key sets (same pairs, same transit
  nodes -- Theorem 1 pays zero off-path) and values within
  ``costs_close`` (the flat sweep reassociates float sums; the integer
  costs of these fixtures keep it bit-identical too);
* **paths exactly** (the canonical tie-break admits no slack);
* **errors**: on a disconnected graph every engine raises the
  reference's error class and message from ``all_pairs``,
  ``price_table`` and ``cost_matrix``.

Run under ``REPRO_SANITIZE=1`` (CI does, via ``make test-engines``)
every price table is additionally re-verified against the Theorem 1
identity from scratch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DisconnectedGraphError
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import (
    fig1_graph,
    integer_costs,
    isp_like_graph,
    random_biconnected_graph,
    ring_graph,
    waxman_graph,
)
from repro.routing.engines import Engine, engine_names, get_engine
from repro.types import costs_close

#: Every engine configuration under test, by id.  ``flat-parallel`` is
#: the flat engine with two workers, so the pooled shared-memory sweep
#: (and its merge path) runs in real worker processes regardless of
#: host core count.
CONFIGS = {name: (name, {}) for name in engine_names()}
CONFIGS["flat-parallel"] = ("flat", {"workers": 2})


def _engine(config: str) -> Engine:
    name, options = CONFIGS[config]
    return get_engine(name, **options)


GRAPHS = {
    "fig1": lambda: fig1_graph(),
    "random10-s0": lambda: random_biconnected_graph(
        10, 0.3, seed=0, cost_sampler=integer_costs(0, 6)
    ),
    "random12-s1": lambda: random_biconnected_graph(
        12, 0.25, seed=1, cost_sampler=integer_costs(0, 5)
    ),
    "random12-s2": lambda: random_biconnected_graph(
        12, 0.4, seed=2, cost_sampler=integer_costs(1, 9)
    ),
    "isp16": lambda: isp_like_graph(16, seed=3, cost_sampler=integer_costs(1, 6)),
    # large enough that the flat engine's demand restriction and
    # symmetric orientation actually engage (hundreds of transit nodes
    # would be overkill here; dozens suffice to exercise multi-entry
    # per-k blocks and cross-k sequence bookkeeping)
    "isp40-s7": lambda: isp_like_graph(40, seed=7, cost_sampler=integer_costs(0, 6)),
    "ring9": lambda: ring_graph(9, seed=4, cost_sampler=integer_costs(1, 4)),
    "waxman14": lambda: waxman_graph(14, seed=5, cost_sampler=integer_costs(0, 7)),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def instance(request):
    """One seeded test topology plus the reference engine's answers."""
    graph = GRAPHS[request.param]()
    reference = _engine("reference")
    return (
        graph,
        reference.all_pairs(graph),
        reference.cost_matrix(graph),
        reference.price_table(graph),
    )


@pytest.mark.parametrize("name", sorted(set(CONFIGS) - {"reference"}))
class TestAgainstReference:
    def test_costs_agree(self, instance, name):
        graph, _routes, reference_costs, _table = instance
        candidate = _engine(name).cost_matrix(graph)
        assert candidate.index == reference_costs.index
        assert np.array_equal(candidate.matrix, reference_costs.matrix), name

    def test_prices_agree(self, instance, name):
        graph, _routes, _costs, reference_table = instance
        candidate = _engine(name).price_table(graph)
        assert set(candidate.rows) == set(reference_table.rows)
        for pair in sorted(reference_table.rows):
            ref_row = reference_table.rows[pair]
            cand_row = candidate.rows[pair]
            assert set(cand_row) == set(ref_row), f"engine {name} pair {pair}"
            for k in sorted(ref_row):
                assert costs_close(
                    cand_row[k], ref_row[k]
                ), f"engine {name} price p^{k}_{pair}"

    def test_paths_agree_exactly(self, instance, name):
        graph, reference_routes, _costs, _table = instance
        candidate = _engine(name).all_pairs(graph)
        assert candidate.paths == reference_routes.paths

    def test_path_engine_costs_bit_identical(self, instance, name):
        """Every engine runs the identical accumulation, so its route
        costs must be *bit-for-bit* the reference values, and on these
        integer-cost fixtures so must its prices."""
        engine = _engine(name)
        graph, reference_routes, _costs, reference_table = instance
        routes = engine.all_pairs(graph)
        for (i, j) in reference_routes.paths:
            assert routes.cost(i, j) == reference_routes.cost(i, j)
        assert engine.price_table(graph).rows == reference_table.rows


def test_pairwise_price_keys_identical(instance):
    """All engines store exactly the same (pair, transit node) keys:
    which entries exist is tie-break semantics, not arithmetic."""
    graph, _routes, _costs, _table = instance
    tables = {name: _engine(name).price_table(graph) for name in CONFIGS}
    names = sorted(tables)
    for left, right in zip(names, names[1:]):
        assert set(tables[left].rows) == set(tables[right].rows)
        for pair in tables[left].rows:
            assert set(tables[left].rows[pair]) == set(tables[right].rows[pair]), (
                f"{left} vs {right} at {pair}"
            )


def _disconnected() -> ASGraph:
    return ASGraph(
        nodes=[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
        edges=[(0, 1), (2, 3)],
    )


def _error(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("method", ["all_pairs", "price_table", "cost_matrix"])
@pytest.mark.parametrize("name", sorted(set(CONFIGS) - {"reference"}))
def test_disconnected_error_matches_reference(name, method):
    graph = _disconnected()
    expected = _error(lambda: getattr(_engine("reference"), method)(graph))
    assert expected == (DisconnectedGraphError, "nodes [2, 3] cannot reach 0")
    assert _error(lambda: getattr(_engine(name), method)(graph)) == expected
