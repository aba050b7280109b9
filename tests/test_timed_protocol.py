"""The timed substrate: differential timing-realism tests.

Three contracts, in increasing strength:

* *The asynchronous run is pinned*: the default configuration (uniform
  [0.1, 1.0] jitter, MRAI off) must reproduce golden sha256 digests of
  the delivery schedule and the converged model, and the exact
  transport counts, **bit for bit** -- with FIFO links and with the
  reordering ablation's full-table links.  The pins were recorded from
  the standalone asynchronous engine this configuration replaced.
* *Correctness is timing-independent*: under any seeded delay
  distribution and MRAI configuration -- including mid-flight link
  failures and recoveries -- the converged routes and prices equal the
  centralized Theorem 1 reference exactly.
* *The simulation itself is deterministic*: virtual time never runs
  backwards, ties break by sequence number, and the full event trace is
  a pure function of the seed.

Plus accounting: the MRAI/loss counters must reconcile against the rows
actually transported (see :class:`repro.bgp.metrics.TimedReport`), and
a checked-in golden JSONL trace must summarize back to the recorded
run's report numbers bit-for-bit.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.delays import ConstantDelay, LogNormalDelay, UniformDelay, parse_delay
from repro.bgp.events import CostChange, LinkFailure, LinkRecovery
from repro.bgp.timed import MRAI_PEER, MRAI_PREFIX, MRAIConfig, TimedEngine
from repro.core.dynamics import timed_scenario
from repro.core.price_node import PriceComputingNode, UpdateMode
from repro.core.protocol import timed_mechanism, verify_against_centralized
from repro.exceptions import ProtocolError
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import (
    fig1_graph,
    integer_costs,
    isp_like_graph,
    random_biconnected_graph,
)


# ----------------------------------------------------------------------
# Helpers (same shapes as test_delta_protocol)
# ----------------------------------------------------------------------
def _price_factory(mode):
    def factory(node_id, cost, policy):
        return PriceComputingNode(node_id, cost, policy, mode=mode)

    return factory


FACTORIES = {
    "plain": None,
    "price-monotone": _price_factory(UpdateMode.MONOTONE),
    "price-recompute": _price_factory(UpdateMode.RECOMPUTE),
}

#: Delay/MRAI settings exercised by the parity tests.
TIMINGS = {
    "zero": (ConstantDelay(0.0), None),
    "constant": (ConstantDelay(0.25), None),
    "uniform": (UniformDelay(0.1, 1.0), None),
    "lognormal": (LogNormalDelay(-2.0, 0.8), None),
    "peer-mrai": (UniformDelay(0.1, 1.0), MRAIConfig(1.0, MRAI_PEER, jitter=0.25)),
    "prefix-mrai": (LogNormalDelay(-2.0, 0.8), MRAIConfig(0.5, MRAI_PREFIX)),
}


def _engine_state(engine):
    """Converged model state: routes, price rows, StateReport numbers."""
    state = {}
    for node_id, node in engine.nodes.items():
        routes = sorted(
            (d, e.path, e.cost, tuple(sorted(e.node_costs.items())))
            for d, e in node.routes.items()
        )
        prices = sorted(
            (d, tuple(sorted(row.items())))
            for d, row in getattr(node, "price_rows", {}).items()
        )
        state[node_id] = (routes, prices)
    return state


def _timed_engine(graph, workload="plain", **kwargs):
    factory = FACTORIES[workload]
    if factory is not None:
        kwargs["node_factory"] = factory
    return TimedEngine(graph, **kwargs)


def _assert_reconciled(engine):
    """The two TimedReport accounting invariants, at drain."""
    report = engine.run()  # idempotent on a drained engine
    assert engine.pending_mrai_rows() == 0
    assert report.rows_offered == (
        report.rows_sent + report.mrai_rows_coalesced + report.mrai_rows_discarded
    )
    assert report.rows_sent == report.rows_delivered + report.rows_lost
    return report


@st.composite
def protocol_graphs(draw, min_nodes=4, max_nodes=9):
    n = draw(st.integers(min_nodes, max_nodes))
    costs = draw(st.lists(st.integers(0, 6).map(float), min_size=n, max_size=n))
    chord_pool = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]
    chords = (
        draw(st.lists(st.sampled_from(chord_pool), unique=True, max_size=6))
        if chord_pool
        else []
    )
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    return ASGraph(nodes=list(enumerate(costs)), edges=edges)


# ----------------------------------------------------------------------
# Unit: delay models and MRAI configuration
# ----------------------------------------------------------------------
class TestDelayModels:
    def test_parse_delay_forms(self):
        assert parse_delay("constant:0.5") == ConstantDelay(0.5)
        assert parse_delay("uniform:0.1,1.0") == UniformDelay(0.1, 1.0)
        assert parse_delay("lognormal:-2,0.5") == LogNormalDelay(-2.0, 0.5)

    @pytest.mark.parametrize(
        "spec",
        ["", "gaussian:1", "uniform:1", "uniform:2,1", "constant:-1", "constant:x"],
    )
    def test_parse_delay_rejects_malformed(self, spec):
        with pytest.raises(ProtocolError):
            parse_delay(spec)

    def test_constant_draws_nothing_from_the_rng(self):
        import random

        rng = random.Random(0)
        before = rng.getstate()
        assert ConstantDelay(0.3).sample(rng) == 0.3
        assert rng.getstate() == before

    def test_uniform_matches_async_engine_draw(self):
        import random

        model = UniformDelay(0.1, 1.0)
        assert model.sample(random.Random(7)) == random.Random(7).uniform(0.1, 1.0)

    def test_means(self):
        assert ConstantDelay(0.4).mean() == 0.4
        assert UniformDelay(0.0, 1.0).mean() == 0.5
        assert LogNormalDelay(-2.0, 0.5).mean() > 0.0

    def test_describe_roundtrips_through_parse(self):
        for model in (ConstantDelay(0.5), UniformDelay(0.1, 1.0), LogNormalDelay(-2, 0.8)):
            assert parse_delay(model.describe()) == model


class TestMRAIConfig:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            MRAIConfig(0.0)
        with pytest.raises(ProtocolError):
            MRAIConfig(1.0, mode="session")
        with pytest.raises(ProtocolError):
            MRAIConfig(1.0, jitter=1.5)

    def test_describe(self):
        assert MRAIConfig(1.0, MRAI_PEER, jitter=0.25).describe() == "mrai:peer:1,jitter=0.25"
        assert "prefix" in MRAIConfig(2.0, MRAI_PREFIX).describe()


# ----------------------------------------------------------------------
# Contract 1: the asynchronous run, pinned bit for bit
# ----------------------------------------------------------------------
#: name -> (sha256 of delivery_log, sha256 of the converged routes and
#: price rows, deliveries, rows_sent, rows_suppressed) for TimedEngine's
#: default configuration; "reordered-*" runs with fifo_links=False on
#: the E15 A4 graphs.  Regenerate only for a deliberate schedule change.
ASYNC_PINS = {
    "plain-0": (
        "89a22b91f6ffd1b3617eada5908babeb5732519e8294dae83bc531368ce83fdb",
        "ea1f08604626f9a53596c497e7321a28f1f0ee3df58cabd1c1b228314a0b1586",
        624, 624, 3852,
    ),
    "plain-1": (
        "0942a49bf5671066ac2dc7c1790f4fefd4ed19310fe4c9f73b574b478e5a17bd",
        "03b1be152950b9c86c25a89de88ccb2828d6a955b8ae62760bc15d4961cff682",
        670, 670, 4316,
    ),
    "plain-2": (
        "92de7e632507a7134b4112cf51d05a46227db389d474ace6f1449dd26a55683a",
        "d72d3c2678f5ec8d7aabb59cc4b49d88ed9f3951f5a3c6aa7c5fba697a92767f",
        597, 597, 3610,
    ),
    "plain-3": (
        "49d1de9fa9bcffb12b0227f34aecfed856e2154634232026fbf017dc867b8b07",
        "7f818253fb4e5d9bf5bd4edd295e5a726bd3d7a8904f64e93ca60c019787bafb",
        587, 587, 3495,
    ),
    "plain-4": (
        "6e8736130f7ff29f1a31d4d40066462adf442de6b1c449301acfbc16f6a7d363",
        "2c49ecdcc3aeef24fe3926a25b95aaa5f22325ab9ec59b2f130ba28e8eacb244",
        605, 605, 3655,
    ),
    "price-monotone": (
        "d3b596d17d20788b860446ec6679ea6b132386bc3a77ed60c205f5c7c5f1321c",
        "5fb3c87ac875dc72d62b8f0d3614296a97d797865f46c8e838f79bf3dea0e0f5",
        498, 498, 2796,
    ),
    "price-recompute": (
        "d3b596d17d20788b860446ec6679ea6b132386bc3a77ed60c205f5c7c5f1321c",
        "5fb3c87ac875dc72d62b8f0d3614296a97d797865f46c8e838f79bf3dea0e0f5",
        498, 498, 2796,
    ),
    "reordered-0": (
        "ddf9fcf847be96efdb4b83951a6c4ecee40896a8985b042c0545a6d84d92215d",
        "f93df88fa397eaae0a9bd71ce8df70ec288106709332c3ea8c2ec9a5f3916904",
        809, 5905, 0,
    ),
    "reordered-1": (
        "cd500eb26bcae2c130356dc140dccc77eb822b92221da10d60b081b1edeacd67",
        "ccb04a4c027f2457970a9b407860b721954f0b3731f9468d06c5e560f75e548a",
        809, 6223, 0,
    ),
    "reordered-2": (
        "cfc00cabc7fbff1477c431a5da2ba4ff6de5639c884c54e4e6521c0117735764",
        "c32ecf1dacb7b43e1af35f15f6ab6a2b4ddcd687b764baf365e68e1962055f8e",
        953, 7406, 0,
    ),
    "reordered-3": (
        "f1f1f33a18fda8e85509dbe66fd87443a47b1625a0ec377edaadc0e1b0465b34",
        "7408d8490f101e8204b857cf3770bd0c484b5d695f426ced548d8ec03d0461db",
        828, 6015, 0,
    ),
    "reordered-4": (
        "f6e312a99f499633a8d64a35e779489c6f46aec5ac50e7549e526b25e77f1c04",
        "37b41097e0fadedf7e2c77392b284d9b9a3b677d56edc4588515d23ebaa5f17c",
        1040, 8148, 0,
    ),
    "reordered-5": (
        "2fce650098f67539c4e10bd4a0424d9c0de190733fca29c1c7a8cf2f3a00fb4d",
        "edbf6ee316874a27c87d2080499adee9618bcff7c947e50efa9642670500408d",
        963, 7245, 0,
    ),
    "reordered-6": (
        "ffbfe5d45d3b236e94c27de7e803c8b7bfc454538eb048137c43625c0fa3dab5",
        "3c4a44cb38787545de64fcfd9a72b4803b122b08fb141abaccd1c0747a7c4d6c",
        737, 5485, 0,
    ),
    "reordered-7": (
        "af924ca7635634cf7de00aad329d8aad3fd4b9ff9363c32744d01854eab549ca",
        "3682718aee615daa36f78dd6b06462077afe9dd90724453c320fe08a149d7b4c",
        1056, 8153, 0,
    ),
}


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestAsyncBitIdentity:
    def _assert_pinned(self, name, graph, seed, workload, fifo_links=True):
        engine = _timed_engine(graph, workload, seed=seed, fifo_links=fifo_links)
        engine.delivery_log = []
        engine.initialize()
        report = engine.run()
        observed = (
            _digest(engine.delivery_log),
            _digest(sorted(_engine_state(engine).items())),
            report.deliveries,
            report.rows_sent,
            report.rows_suppressed,
        )
        assert observed == ASYNC_PINS[name]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_schedule_and_model_identical(self, seed):
        graph = isp_like_graph(12, seed=seed, cost_sampler=integer_costs(1, 6))
        self._assert_pinned(f"plain-{seed}", graph, seed, "plain")

    @pytest.mark.parametrize("workload", ["price-monotone", "price-recompute"])
    def test_price_workloads_identical(self, workload):
        graph = isp_like_graph(10, seed=3, cost_sampler=integer_costs(1, 6))
        self._assert_pinned(workload, graph, 3, workload)

    @pytest.mark.parametrize("seed", range(8))
    def test_reordered_links_identical(self, seed):
        graph = random_biconnected_graph(
            9, 0.25, seed=seed, cost_sampler=integer_costs(0, 5)
        )
        self._assert_pinned(
            f"reordered-{seed}", graph, seed, "price-monotone", fifo_links=False
        )

    def test_zero_delay_collapses_virtual_time(self):
        graph = fig1_graph()
        engine = _timed_engine(graph, seed=0, delay=ConstantDelay(0.0))
        engine.initialize()
        report = engine.run()
        assert report.converged
        assert report.clock == 0.0
        assert report.convergence_time == 0.0
        assert verify_against_centralized(
            timed_mechanism(graph, seed=0, delay=ConstantDelay(0.0))
        ).ok


class TestReorderedLinks:
    """fifo_links=False: the reordering ablation's full-table transport."""

    def test_every_transmission_is_a_whole_table(self):
        graph = isp_like_graph(10, seed=3, cost_sampler=integer_costs(1, 6))
        engine = _timed_engine(graph, seed=3, fifo_links=False)
        sent = []
        transmit = engine._transmit

        def spy(link, body, rows):
            assert body == engine.nodes[link[0]].published_table()
            assert rows == len(body)
            sent.append(rows)
            transmit(link, body, rows)

        engine._transmit = spy
        engine.delivery_log = []
        engine.initialize()
        report = engine.run()
        assert report.rows_suppressed == 0
        logged = sum(rows for _when, _sender, _receiver, rows in engine.delivery_log)
        assert report.rows_offered == report.rows_sent == sum(sent) == logged
        assert len(sent) == report.deliveries

    def test_in_order_delivery_converges_exactly(self):
        # a constant delay cannot reorder, so full tables must converge
        # to the centralized model like deltas do
        graph = isp_like_graph(10, seed=3, cost_sampler=integer_costs(1, 6))
        engine = _timed_engine(
            graph, "price-monotone", seed=3, delay=ConstantDelay(0.25), fifo_links=False
        )
        engine.initialize()
        report = engine.run()
        fifo = timed_mechanism(graph, seed=3, delay=ConstantDelay(0.25))
        assert report.rows_sent > fifo.report.rows_sent
        assert _engine_state(engine) == _engine_state(fifo.engine)
        verify_against_centralized(fifo).raise_on_mismatch()

    def test_mrai_rejected(self):
        with pytest.raises(ProtocolError, match="FIFO"):
            TimedEngine(fig1_graph(), fifo_links=False, mrai=MRAIConfig(1.0))


# ----------------------------------------------------------------------
# Contract 2: centralized parity under every timing model
# ----------------------------------------------------------------------
class TestCentralizedParity:
    @pytest.mark.parametrize("timing", sorted(TIMINGS))
    @pytest.mark.parametrize("seed", [0, 11])
    def test_parity_fixed_graphs(self, timing, seed):
        delay, mrai = TIMINGS[timing]
        graph = isp_like_graph(12, seed=seed, cost_sampler=integer_costs(1, 6))
        result = timed_mechanism(graph, seed=seed, delay=delay, mrai=mrai)
        assert result.report.converged
        verify_against_centralized(result).raise_on_mismatch()

    @pytest.mark.slow
    @settings(max_examples=12, deadline=None)
    @given(
        protocol_graphs(min_nodes=4, max_nodes=8),
        st.integers(0, 2**16),
        st.sampled_from(sorted(TIMINGS)),
    )
    def test_parity_random(self, graph, seed, timing):
        delay, mrai = TIMINGS[timing]
        result = timed_mechanism(graph, seed=seed, delay=delay, mrai=mrai)
        assert result.report.converged
        verify_against_centralized(result).raise_on_mismatch()


# ----------------------------------------------------------------------
# Contract 3: virtual-clock monotonicity & deterministic tie-breaking
# ----------------------------------------------------------------------
class TestDeterminism:
    def _trace(self, graph, seed, timing="peer-mrai"):
        delay, mrai = TIMINGS[timing]
        engine = _timed_engine(graph, seed=seed, delay=delay, mrai=mrai)
        engine.event_log = []
        engine.initialize()
        engine.run()
        return engine.event_log

    def test_same_seed_same_event_trace(self):
        graph = isp_like_graph(10, seed=5, cost_sampler=integer_costs(1, 6))
        first = self._trace(graph, seed=42)
        second = self._trace(graph, seed=42)
        assert first == second
        assert first  # non-vacuous

    def test_clock_is_monotone(self):
        graph = isp_like_graph(10, seed=5, cost_sampler=integer_costs(1, 6))
        trace = self._trace(graph, seed=9, timing="lognormal")
        times = [when for when, _kind, _detail in trace]
        assert times == sorted(times)

    @settings(max_examples=10, deadline=None)
    @given(protocol_graphs(), st.integers(0, 2**16), st.sampled_from(sorted(TIMINGS)))
    def test_event_trace_is_a_function_of_the_seed(self, graph, seed, timing):
        delay, mrai = TIMINGS[timing]
        traces = []
        for _ in range(2):
            engine = _timed_engine(graph, seed=seed, delay=delay, mrai=mrai)
            engine.event_log = []
            engine.initialize()
            engine.run()
            traces.append(engine.event_log)
            times = [when for when, _kind, _detail in engine.event_log]
            assert times == sorted(times)
        assert traces[0] == traces[1]

    def test_scheduling_into_the_past_is_rejected(self):
        graph = fig1_graph()
        engine = TimedEngine(graph, seed=0)
        engine.initialize()
        engine.run()
        assert engine.clock > 0.0
        with pytest.raises(ProtocolError):
            engine.schedule_event(0.0, LinkFailure(0, 1))


# ----------------------------------------------------------------------
# Fault sequences: timed failures/restores mid-flight
# ----------------------------------------------------------------------
class TestFaultSequences:
    def _chords(self, graph):
        """Edges whose removal keeps the ring (and biconnectivity)."""
        n = graph.num_nodes
        ring = {(i, (i + 1) % n) for i in range(n)}
        ring |= {(b, a) for a, b in ring}
        return sorted((u, v) for u, v in graph.edges if (u, v) not in ring)

    @pytest.mark.parametrize("timing", ["uniform", "peer-mrai"])
    def test_midflight_fail_and_restore(self, timing):
        delay, mrai = TIMINGS[timing]
        graph = isp_like_graph(12, seed=1, cost_sampler=integer_costs(1, 6))
        chords = self._chords(graph)
        assert chords
        u, v = chords[0]
        # t=0.2 lands inside the initial flood: in-flight messages on
        # the failed link must be dropped, not delivered
        run = timed_scenario(
            graph,
            [
                (0.2, LinkFailure(u, v)),
                (1.5, CostChange(sorted(graph.nodes)[1], 9.0)),
                (2.5, LinkRecovery(u, v)),
            ],
            seed=7,
            delay=delay,
            mrai=mrai,
        )
        assert run.ok
        assert run.events_applied == 3
        run.verification.raise_on_mismatch()
        report = run.report
        assert report.network_events == 3
        if timing == "uniform":
            assert report.messages_lost > 0
        assert report.rows_offered == (
            report.rows_sent + report.mrai_rows_coalesced + report.mrai_rows_discarded
        )
        assert report.rows_sent == report.rows_delivered + report.rows_lost

    @pytest.mark.slow
    @settings(max_examples=8, deadline=None)
    @given(
        protocol_graphs(min_nodes=5, max_nodes=8),
        st.integers(0, 2**16),
        st.sampled_from(["uniform", "peer-mrai", "prefix-mrai"]),
        st.data(),
    )
    def test_random_fault_sequences_converge_with_parity(
        self, graph, seed, timing, data
    ):
        delay, mrai = TIMINGS[timing]
        chords = self._chords(graph)
        events = []
        failed = []
        when = 0.0
        n = graph.num_nodes
        for _ in range(data.draw(st.integers(1, 4), label="num_events")):
            when += data.draw(st.floats(0.1, 2.0, allow_nan=False), label="gap")
            choices = ["change_cost"]
            if chords:
                choices.append("fail_link")
            if failed:
                choices.append("restore_link")
            kind = data.draw(st.sampled_from(choices), label="event")
            if kind == "change_cost":
                node = data.draw(st.integers(0, n - 1), label="node")
                cost = float(data.draw(st.integers(0, 9), label="cost"))
                events.append((when, CostChange(node, cost)))
            elif kind == "fail_link":
                index = data.draw(st.integers(0, len(chords) - 1), label="edge")
                edge = chords.pop(index)
                failed.append(edge)
                events.append((when, LinkFailure(*edge)))
            else:
                index = data.draw(st.integers(0, len(failed) - 1), label="restore")
                edge = failed.pop(index)
                chords.append(edge)
                events.append((when, LinkRecovery(*edge)))
        run = timed_scenario(graph, events, seed=seed, delay=delay, mrai=mrai)
        assert run.report.converged
        run.verification.raise_on_mismatch()
        report = run.report
        assert report.rows_offered == (
            report.rows_sent + report.mrai_rows_coalesced + report.mrai_rows_discarded
        )
        assert report.rows_sent == report.rows_delivered + report.rows_lost


# ----------------------------------------------------------------------
# MRAI accounting
# ----------------------------------------------------------------------
class TestMRAIAccounting:
    def test_suppression_reconciles_with_rows_delivered(self):
        graph = isp_like_graph(16, seed=0, cost_sampler=integer_costs(1, 6))
        engine = _timed_engine(
            graph,
            "price-monotone",
            seed=0,
            delay=UniformDelay(0.1, 1.0),
            mrai=MRAIConfig(1.0, MRAI_PEER, jitter=0.25),
        )
        engine.initialize()
        report = _assert_reconciled(engine)
        assert report.converged
        assert report.mrai_deferrals > 0
        assert report.mrai_flushes > 0
        assert report.mrai_rows_coalesced > 0
        # nothing was lost on a healthy topology
        assert report.rows_lost == 0 and report.messages_lost == 0

    def test_mrai_reduces_deliveries(self):
        graph = isp_like_graph(16, seed=0, cost_sampler=integer_costs(1, 6))
        deliveries = {}
        for label in ("uniform", "peer-mrai"):
            delay, mrai = TIMINGS[label]
            result = timed_mechanism(graph, seed=0, delay=delay, mrai=mrai)
            assert verify_against_centralized(result).ok
            deliveries[label] = result.report.deliveries
        assert deliveries["peer-mrai"] < deliveries["uniform"]

    def test_failure_discards_pending_mrai_rows(self):
        graph = isp_like_graph(12, seed=4, cost_sampler=integer_costs(1, 6))
        n = graph.num_nodes
        ring = {(i, (i + 1) % n) for i in range(n)} | {
            ((i + 1) % n, i) for i in range(n)
        }
        chord = sorted((u, v) for u, v in graph.edges if (u, v) not in ring)[0]
        run = timed_scenario(
            graph,
            [(0.3, LinkFailure(*chord))],
            seed=4,
            delay=UniformDelay(0.1, 1.0),
            mrai=MRAIConfig(2.0, MRAI_PEER),
        )
        assert run.ok
        report = run.report
        # pending rows on the failed session never hit the wire ...
        assert report.mrai_rows_discarded >= 0
        # ... and the books still balance
        assert report.rows_offered == (
            report.rows_sent + report.mrai_rows_coalesced + report.mrai_rows_discarded
        )
        assert report.rows_sent == report.rows_delivered + report.rows_lost
        assert run.engine.pending_mrai_rows() == 0
