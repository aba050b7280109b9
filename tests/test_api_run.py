"""Signature/dispatch-parity suite for the unified ``api.run`` entry point.

``run`` must reproduce each of the four runners it dispatches to
exactly -- same report types, same numbers, same converged state.  The
suite also pins the dispatch validations (substrate-specific knobs
rejected on the wrong substrate), the uniform delay/MRAI spec coercion,
and the per-run ``sanitize=`` override.
"""

from __future__ import annotations

import inspect

import pytest

import repro.api as api
from repro.bgp.delays import ConstantDelay, LogNormalDelay, UniformDelay
from repro.bgp.events import CostChange, LinkFailure, LinkRecovery
from repro.bgp.timed import MRAI_PEER, MRAIConfig, TimedEngine
from repro.core.dynamics import DynamicsRun, TimedScenarioResult
from repro.core.protocol import DistributedPriceResult
from repro.exceptions import (
    ConvergenceError,
    MechanismError,
    ProtocolError,
    SanitizerError,
)
from repro.graphs.asgraph import ASGraph


@pytest.fixture
def line5():
    """Connected but not biconnected: the sanitizer must reject it."""
    return ASGraph(
        nodes=[(i, 1.0) for i in range(5)],
        edges=[(i, i + 1) for i in range(4)],
    )


def _price_state(result: DistributedPriceResult):
    return (result.stages, result.price_rows())


class TestDispatchParity:
    """run(...) == the legacy entry point it collapses, cell by cell."""

    def test_static_delta_matches_distributed_mechanism(self, fig1):
        unified = api.run(fig1)
        legacy = api.distributed_mechanism(fig1)
        assert isinstance(unified, DistributedPriceResult)
        assert _price_state(unified) == _price_state(legacy)

    def test_static_full_transport(self, fig1):
        unified = api.run(fig1, protocol="full")
        legacy = api.distributed_mechanism(fig1, protocol="full")
        assert _price_state(unified) == _price_state(legacy)
        # full tables really were exchanged: the engines record it
        assert unified.engine.incremental is False

    def test_static_asynchronous_seeded(self, square):
        # asynchronous=True is the timed substrate's default configuration
        unified = api.run(square, asynchronous=True, seed=11)
        legacy = api.timed_mechanism(square, seed=11)
        assert isinstance(unified.engine, TimedEngine)
        assert unified.engine.delay == UniformDelay(0.1, 1.0)
        assert unified.report == legacy.report
        assert _price_state(unified) == _price_state(legacy)

    def test_dynamic_scenario_matches(self, fig1):
        events = [LinkFailure(2, 3), CostChange(3, 7.0), LinkRecovery(2, 3)]
        unified = api.run(fig1, events, engine="incremental")
        legacy = api.dynamic_scenario(fig1, events, engine="incremental")
        assert isinstance(unified, DynamicsRun)
        assert unified.all_ok and unified.all_within_bound
        assert [e.stages for e in unified.epochs] == [
            e.stages for e in legacy.epochs
        ]
        assert [e.cold_stages for e in unified.epochs] == [
            e.cold_stages for e in legacy.epochs
        ]

    def test_timed_mechanism_matches(self, fig1):
        kwargs = dict(seed=7, delay=LogNormalDelay(-2.0, 0.8))
        unified = api.run(fig1, protocol="timed", **kwargs)
        legacy = api.timed_mechanism(fig1, **kwargs)
        assert isinstance(unified, DistributedPriceResult)
        assert unified.report.convergence_time == legacy.report.convergence_time
        assert unified.price_rows() == legacy.price_rows()

    def test_timed_scenario_matches(self, fig1):
        events = [(2.0, LinkFailure(2, 3)), (5.0, LinkRecovery(2, 3))]
        kwargs = dict(seed=3, delay=UniformDelay(0.1, 1.0))
        unified = api.run(fig1, events, protocol="timed", **kwargs)
        legacy = api.timed_scenario(fig1, events, **kwargs)
        assert isinstance(unified, TimedScenarioResult)
        assert unified.ok and legacy.ok
        assert unified.events_applied == legacy.events_applied
        assert unified.report.convergence_time == legacy.report.convergence_time

    def test_unknown_protocol_rejected(self, fig1):
        with pytest.raises(MechanismError, match="unknown protocol"):
            api.run(fig1, protocol="quic")


class TestDispatchValidation:
    """Substrate-specific knobs fail fast on the wrong substrate."""

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"delay": ConstantDelay(0.1)}, "timed-substrate knob"),
            ({"mrai": {"interval": 1.0}}, "timed-substrate knob"),
            ({"max_events": 10}, "timed event loop"),
            ({"engine": "incremental"}, "needs events="),
        ],
    )
    def test_staged_static_rejects_timed_knobs(self, fig1, kwargs, match):
        with pytest.raises(MechanismError, match=match):
            api.run(fig1, **kwargs)

    def test_timed_rejects_max_stages(self, fig1):
        with pytest.raises(MechanismError, match="max_stages"):
            api.run(fig1, protocol="timed", max_stages=5)

    def test_timed_rejects_asynchronous(self, fig1):
        with pytest.raises(MechanismError, match="asynchronous"):
            api.run(fig1, protocol="timed", asynchronous=True)

    def test_dynamic_rejects_asynchronous(self, fig1):
        with pytest.raises(MechanismError, match="static runs only"):
            api.run(fig1, [CostChange(3, 7.0)], asynchronous=True)

    def test_asynchronous_rejects_max_stages(self, fig1):
        # an event loop has no stages to bound; accepting the bound
        # would silently ignore it
        with pytest.raises(MechanismError, match="max_stages"):
            api.run(fig1, asynchronous=True, max_stages=1)

    def test_asynchronous_rejects_full_protocol(self, fig1):
        with pytest.raises(MechanismError, match="protocol='full'"):
            api.run(fig1, asynchronous=True, protocol="full")

    def test_asynchronous_honours_max_events(self, fig1):
        with pytest.raises(ConvergenceError):
            api.run(fig1, asynchronous=True, max_events=3)
        bounded = api.run(fig1, asynchronous=True, max_events=10_000)
        assert bounded.report == api.run(fig1, asynchronous=True).report

    def test_timed_rejects_engine(self, fig1):
        with pytest.raises(MechanismError, match="engine="):
            api.run(
                fig1,
                [(1.0, CostChange(3, 7.0))],
                protocol="timed",
                engine="incremental",
            )


class TestSpecCoercion:
    """str | DelayModel and dict | MRAIConfig, one parsing path."""

    def test_delay_spec_string_equals_model(self, fig1):
        by_spec = api.run(fig1, protocol="timed", seed=5, delay="constant:0.3")
        by_model = api.run(
            fig1, protocol="timed", seed=5, delay=ConstantDelay(0.3)
        )
        assert (
            by_spec.report.convergence_time == by_model.report.convergence_time
        )

    def test_mrai_dict_equals_config(self, fig1):
        spec = {"interval": 1.0, "mode": MRAI_PEER, "jitter": 0.25}
        by_dict = api.run(
            fig1, protocol="timed", seed=5, delay="uniform:0.1,1.0", mrai=spec
        )
        by_config = api.run(
            fig1,
            protocol="timed",
            seed=5,
            delay="uniform:0.1,1.0",
            mrai=MRAIConfig(**spec),
        )
        assert (
            by_dict.report.convergence_time
            == by_config.report.convergence_time
        )

    def test_engine_constructor_coerces_too(self, fig1):
        # The coercion lives in TimedEngine itself, so every caller --
        # CLI, benchmarks, direct construction -- shares it.
        engine = TimedEngine(fig1, delay="lognormal:-2.0,0.5", mrai={"interval": 2.0})
        assert engine.delay == LogNormalDelay(-2.0, 0.5)
        assert engine.mrai == MRAIConfig(2.0)

    def test_resolvers_are_exported(self):
        assert api.resolve_delay("constant:0.1") == ConstantDelay(0.1)
        assert api.resolve_delay(None) is None
        model = UniformDelay(0.2, 0.4)
        assert api.resolve_delay(model) is model
        config = MRAIConfig(1.5)
        assert api.resolve_mrai(config) is config
        assert api.resolve_mrai({"interval": 1.5}) == config
        assert api.resolve_mrai(None) is None

    @pytest.mark.parametrize(
        "bad", ["warp:1.0", "constant:a", 3.5, {"delay": 1}]
    )
    def test_malformed_delay_rejected(self, bad):
        with pytest.raises(ProtocolError):
            api.resolve_delay(bad)

    @pytest.mark.parametrize("bad", [{"cadence": 1.0}, "mrai:peer:1", 7])
    def test_malformed_mrai_rejected(self, bad):
        with pytest.raises(ProtocolError):
            api.resolve_mrai(bad)


class TestSanitizeOverride:
    def test_sanitize_true_enforces_preconditions(self, line5):
        with pytest.raises(SanitizerError, match=r"\[sanitize:biconnected\]"):
            api.run(line5, sanitize=True)

    def test_sanitize_false_disables_ambient_checks(self, line5):
        from repro.devtools import sanitize as sanitize_checks

        with sanitize_checks.sanitized():
            result = api.run(line5, sanitize=False)
        assert result.stages > 0  # routes exist; prices were not checked

    def test_override_is_scoped_to_the_run(self, fig1):
        # Whatever the ambient toggle (REPRO_SANITIZE=1 sets it), a run's
        # override must leave it at its prior value.
        from repro.devtools import sanitize as sanitize_checks

        prior = sanitize_checks.enabled()
        for ambient in (False, True):
            with sanitize_checks.sanitized(ambient):
                for override in (True, False):
                    api.run(fig1, sanitize=override)
                    assert sanitize_checks.enabled() is ambient
        assert sanitize_checks.enabled() is prior


class TestSignature:
    """The unified surface is keyword-only past (graph, events)."""

    def test_keyword_only_knobs(self):
        signature = inspect.signature(api.run)
        params = list(signature.parameters.values())
        assert [p.name for p in params[:2]] == ["graph", "events"]
        assert params[1].default is None
        for param in params[2:]:
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, param.name

    def test_every_legacy_knob_is_reachable(self):
        # The union of the four legacy signatures (minus the self-owned
        # dispatch axes) must survive in run()'s keyword surface.
        unified = set(inspect.signature(api.run).parameters)
        for legacy in (
            api.distributed_mechanism,
            api.timed_mechanism,
            api.dynamic_scenario,
            api.timed_scenario,
        ):
            for name in inspect.signature(legacy).parameters:
                assert name in unified, name
