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
  ``price_table`` and ``cost_matrix``;
* **table accessors** bit for bit against the dict-of-dicts accessors
  the array-native ``PriceTable`` replaced, kept below as a frozen
  reference (``_DictTable``), including iteration order;
* **the sanitize argument**: ``compute_price_table(sanitize=...)``
  decides the table check for every engine, whatever the global toggle.

Run under ``REPRO_SANITIZE=1`` (CI does, via ``make test-engines``)
every price table is additionally re-verified against the Theorem 1
identity from scratch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.devtools import sanitize
from repro.exceptions import DisconnectedGraphError
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import (
    fig1_graph,
    integer_costs,
    isp_like_graph,
    random_biconnected_graph,
    ring_graph,
    uniform_costs,
    waxman_graph,
)
from repro.mechanism.vcg import compute_price_table
from repro.routing import flatsweep
from repro.routing.avoiding import avoiding_costs_for_destination
from repro.routing.engines import engine_names, get_engine
from repro.types import costs_close

#: Every registered engine, by name.
ENGINES = engine_names()


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
    # costs in {0, 1}: many zero-cost transit nodes with zero-cost
    # detours, so the tables store exact 0.0 prices
    "zero-transit12": lambda: random_biconnected_graph(
        12, 0.3, seed=8, cost_sampler=integer_costs(0, 1)
    ),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def instance(request):
    """One seeded test topology plus the reference engine's answers."""
    graph = GRAPHS[request.param]()
    reference = get_engine("reference")
    return (
        graph,
        reference.all_pairs(graph),
        reference.cost_matrix(graph),
        reference.price_table(graph),
    )


@pytest.mark.parametrize("name", sorted(set(ENGINES) - {"reference"}))
class TestAgainstReference:
    def test_costs_agree(self, instance, name):
        graph, _routes, reference_costs, _table = instance
        candidate = get_engine(name).cost_matrix(graph)
        assert candidate.index == reference_costs.index
        assert np.array_equal(candidate.matrix, reference_costs.matrix), name

    def test_prices_agree(self, instance, name):
        graph, _routes, _costs, reference_table = instance
        candidate = get_engine(name).price_table(graph)
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
        candidate = get_engine(name).all_pairs(graph)
        assert candidate.paths == reference_routes.paths

    def test_path_engine_costs_bit_identical(self, instance, name):
        """Every engine runs the identical accumulation, so its route
        costs must be *bit-for-bit* the reference values, and on these
        integer-cost fixtures so must its prices."""
        engine = get_engine(name)
        graph, reference_routes, _costs, reference_table = instance
        routes = engine.all_pairs(graph)
        for (i, j) in reference_routes.paths:
            assert routes.cost(i, j) == reference_routes.cost(i, j)
        assert engine.price_table(graph).rows == reference_table.rows


def test_pairwise_price_keys_identical(instance):
    """All engines store exactly the same (pair, transit node) keys:
    which entries exist is tie-break semantics, not arithmetic."""
    graph, _routes, _costs, _table = instance
    tables = {name: get_engine(name).price_table(graph) for name in ENGINES}
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
@pytest.mark.parametrize("name", sorted(set(ENGINES) - {"reference"}))
def test_disconnected_error_matches_reference(name, method):
    graph = _disconnected()
    expected = _error(lambda: getattr(get_engine("reference"), method)(graph))
    assert expected == (DisconnectedGraphError, "nodes [2, 3] cannot reach 0")
    assert _error(lambda: getattr(get_engine(name), method)(graph)) == expected


# ----------------------------------------------------------------------
# Table accessors against the frozen dict-of-dicts reference
# ----------------------------------------------------------------------


def _dict_rows(graph, routes):
    """The reference sweep as a dict-of-dicts, built the way the table
    stored it before it became array-native."""
    rows = {}
    for destination in graph.nodes:
        tree = routes.tree(destination)
        source_paths = [(source, tree.path(source)) for source in tree.sources()]
        transit = set()
        for _source, path in source_paths:
            transit.update(path[1:-1])
        detours = avoiding_costs_for_destination(
            graph, destination, tuple(sorted(transit))
        )
        for source, path in source_paths:
            if len(path) == 2:
                continue
            rows[(source, destination)] = {
                k: graph.cost(k) + detours[k].cost(source) - tree.cost(source)
                for k in path[1:-1]
            }
    return rows


class _DictTable:
    """The dict-of-dicts ``PriceTable`` accessors, frozen verbatim."""

    def __init__(self, rows):
        self.rows = rows

    def price(self, k, source, destination):
        return self.rows.get((source, destination), {}).get(k, 0.0)

    def row(self, source, destination):
        return dict(self.rows.get((source, destination), {}))

    def pairs(self):
        return tuple(sorted(self.rows))

    def items(self):
        return self.rows.items()

    def __iter__(self):
        return iter(self.pairs())

    def total_price(self, source, destination):
        return float(sum(self.rows.get((source, destination), {}).values()))

    def node_prices(self, k):
        result = {}
        for pair, row in self.rows.items():
            if k in row:
                result[pair] = row[k]
        return result


def _bits(value):
    """*value* with every float spelled exactly and every container's
    order kept, so ``==`` on the result is a bit-for-bit comparison
    that also sees types (``np.float64`` is not ``float``) and order."""
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    if isinstance(value, dict):
        return ("dict", [(_bits(k), _bits(v)) for k, v in value.items()])
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [_bits(item) for item in value])
    return (type(value).__name__, value)


def _assert_accessors_match(graph, table, frozen):
    nodes = list(graph.nodes)
    stranger = max(nodes) + 1
    links = sorted(graph.edges)[:3]
    queries = (
        list(frozen.rows)
        + links
        + [(v, u) for u, v in links]
        + [(nodes[0], nodes[0]), (stranger, nodes[0]), (nodes[0], stranger)]
    )
    for pair in queries:
        assert _bits(table.row(*pair)) == _bits(frozen.row(*pair)), pair
        assert _bits(table.total_price(*pair)) == _bits(frozen.total_price(*pair))
        for k in nodes + [stranger]:
            assert _bits(table.price(k, *pair)) == _bits(frozen.price(k, *pair))
        assert (pair in table.rows) == (pair in frozen.rows)
        assert _bits(table.rows.get(pair)) == _bits(frozen.rows.get(pair))
        assert _bits(table.rows.get(pair, {})) == _bits(frozen.rows.get(pair, {}))
    assert _bits(table.pairs()) == _bits(frozen.pairs())
    assert _bits(list(table)) == _bits(list(frozen))
    assert _bits(list(table.items())) == _bits(list(frozen.items()))
    for k in nodes + [stranger]:
        assert _bits(table.node_prices(k)) == _bits(frozen.node_prices(k)), k
    assert len(table.rows) == len(frozen.rows)
    assert _bits(list(table.rows)) == _bits(list(frozen.rows))
    assert _bits(list(table.rows.values())) == _bits(list(frozen.rows.values()))
    assert table.rows == frozen.rows and frozen.rows == table.rows
    assert dict(table.rows) == frozen.rows
    if frozen.rows:
        pair = next(iter(frozen.rows))
        changed = dict(frozen.rows)
        changed[pair] = {k: price + 1.0 for k, price in changed[pair].items()}
        assert table.rows != changed


@pytest.mark.parametrize("name", ENGINES)
def test_accessors_bit_identical_to_dict_table(instance, name):
    """Every accessor of every engine's table reads the same values, in
    the same order and of the same types, as the dict-of-dicts table
    (integer costs: every engine's prices are bit-identical)."""
    graph, routes, _costs, _table = instance
    frozen = _DictTable(_dict_rows(graph, routes))
    _assert_accessors_match(graph, get_engine(name).price_table(graph), frozen)


def test_zero_prices_survive():
    """Stored 0.0 prices are entries, not absences: they stay in the
    row, the pair list and ``node_prices``."""
    graph = GRAPHS["zero-transit12"]()
    for name in ENGINES:
        table = get_engine(name).price_table(graph)
        zeros = [
            (pair, k)
            for pair, row in table.items()
            for k, price in row.items()
            if price == 0.0  # repro-lint: ok(RPR001) exact stored zero
        ]
        assert zeros, name
        for (source, destination), k in zeros:
            assert k in table.row(source, destination)
            assert (source, destination) in table.node_prices(k)


@pytest.mark.parametrize("name", ["flat"])
def test_flat_accessors_match_to_rows(name):
    """On continuous costs the flat sweep's floats differ from the
    reference sweep's; its table still reads bit for bit what the
    dict assembly of the same arrays holds."""
    graph = isp_like_graph(40, seed=11, cost_sampler=uniform_costs(1.0, 6.0))
    table = get_engine(name).price_table(graph)
    frozen = _DictTable(flatsweep.flat_price_arrays(graph, table.routes).to_rows())
    _assert_accessors_match(graph, table, frozen)


@pytest.mark.parametrize("name", ["flat"])
def test_flat_table_skips_to_rows(name, monkeypatch):
    """The flat engine hands its arrays to the table as they are; no
    engine path assembles the dict-of-dicts."""

    def refuse(self):
        raise AssertionError("FlatPriceArrays.to_rows called on an engine path")

    graph = GRAPHS["isp40-s7"]()
    expected = _dict_rows(graph, get_engine("reference").all_pairs(graph))
    monkeypatch.setattr(flatsweep.FlatPriceArrays, "to_rows", refuse)
    assert get_engine(name).price_table(graph).rows == expected
    assert compute_price_table(graph, engine=get_engine(name)).rows == expected


# ----------------------------------------------------------------------
# compute_price_table(sanitize=...) for every engine
# ----------------------------------------------------------------------


@pytest.mark.parametrize("global_on", [False, True], ids=["global-off", "global-on"])
@pytest.mark.parametrize("name", ENGINES)
def test_sanitize_argument_decides_table_check(name, global_on, monkeypatch):
    """``sanitize=False`` skips the table check and ``True`` runs it
    once, under either global toggle; ``None`` follows the toggle."""
    graph = isp_like_graph(20, seed=1, cost_sampler=integer_costs(1, 6))
    checked = []
    monkeypatch.setattr(
        sanitize, "check_price_table", lambda graph, table, **_: checked.append(table)
    )
    with sanitize.sanitized(global_on):
        for flag, expected in ((False, 0), (True, 1), (None, int(global_on))):
            checked.clear()
            compute_price_table(graph, engine=get_engine(name), sanitize=flag)
            assert len(checked) == expected, f"sanitize={flag}"
