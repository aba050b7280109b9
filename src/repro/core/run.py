"""The unified entry point: one ``run()`` for every protocol flavor.

Distributed runs come in four shapes -- staged without events
(:func:`~repro.core.protocol.distributed_mechanism`), staged with
scripted events (:func:`~repro.core.dynamics.dynamic_scenario`),
discrete-event without events
(:func:`~repro.core.protocol.timed_mechanism`), and discrete-event
with scheduled events (:func:`~repro.core.dynamics.timed_scenario`).
They are four cells of one 2x2 grid (substrate x events), so
:func:`run` dispatches on exactly those two axes:

* ``protocol`` picks the substrate: ``"delta"`` (staged engine,
  incremental row transport -- the default), ``"full"`` (staged engine,
  whole tables on every transmission), or ``"timed"`` (the
  discrete-event simulator of :mod:`repro.bgp.timed`).
* ``events`` picks static vs dynamic: ``None`` runs one convergence to
  quiescence; a sequence of :class:`~repro.bgp.events.NetworkEvent`
  (staged) or ``(virtual_time, event)`` pairs (timed) drives the
  Sect. 6 dynamics.

The return type is the matching runner's report --
:class:`~repro.core.protocol.DistributedPriceResult`,
:class:`~repro.core.dynamics.DynamicsRun`, or
:class:`~repro.core.dynamics.TimedScenarioResult` -- byte-for-byte
identical to what that runner produces, which is what
``tests/test_api_run.py`` asserts.

``asynchronous=True`` is the timed substrate in its default
configuration (uniform [0.1, 1.0] delays, MRAI off); the spelling
remains because the benchmark suite (``benchmarks/suite/workloads.py``)
calls it.

Keyword knobs that only exist on one substrate are validated here, so a
meaningless combination (``mrai=`` on the staged engine, ``engine=`` on
a static run, ``max_stages=`` on an event loop) fails fast with
:class:`MechanismError` instead of being silently dropped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

import repro.obs as obs_mod
from repro.bgp.delays import DelayModel
from repro.bgp.policy import SelectionPolicy
from repro.bgp.timed import MRAIConfig
from repro.core.dynamics import (
    DynamicsRun,
    TimedScenarioResult,
    dynamic_scenario,
    timed_scenario,
)
from repro.core.price_node import UpdateMode
from repro.core.protocol import (
    DistributedPriceResult,
    distributed_mechanism,
    timed_mechanism,
)
from repro.devtools import sanitize as sanitize_checks
from repro.exceptions import MechanismError
from repro.graphs.asgraph import ASGraph

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.routing.engines import EngineSpec

__all__ = ["run", "RunResult"]

#: Everything :func:`run` can return, by dispatch cell.
RunResult = Union[DistributedPriceResult, DynamicsRun, TimedScenarioResult]

_PROTOCOLS = ("delta", "full", "timed")


def _reject(condition: bool, message: str) -> None:
    if condition:
        raise MechanismError(message)


def run(
    graph: ASGraph,
    events: Optional[Sequence] = None,
    *,
    protocol: str = "delta",
    engine: Optional["EngineSpec"] = None,
    delay: Union[str, DelayModel, None] = None,
    mrai: Union[dict, MRAIConfig, None] = None,
    sanitize: Optional[bool] = None,
    obs: Optional[obs_mod.Obs] = None,
    mode: UpdateMode = UpdateMode.MONOTONE,
    policy: Optional[SelectionPolicy] = None,
    seed: int = 0,
    asynchronous: bool = False,
    max_stages: Optional[int] = None,
    max_events: Optional[int] = None,
) -> RunResult:
    """Run the FPSS mechanism: any substrate, static or dynamic.

    Dispatch is on ``(protocol, events is None)``:

    ==========  ===========  ==========================================
    protocol    events       behavior (and return type)
    ==========  ===========  ==========================================
    delta/full  ``None``     staged convergence to quiescence
                             (:class:`DistributedPriceResult`)
    delta/full  sequence     converge, apply each event, reconverge and
                             verify per epoch (:class:`DynamicsRun`)
    timed       ``None``     discrete-event run under *delay*/*mrai*
                             (:class:`DistributedPriceResult`)
    timed       pairs        events fire at virtual timestamps inside
                             one run (:class:`TimedScenarioResult`)
    ==========  ===========  ==========================================

    ``asynchronous=True`` takes the ``timed``/``None`` cell with the
    default delays.

    *delay* accepts a :class:`DelayModel` or a spec string
    (``"uniform:0.1,1.0"``); *mrai* an :class:`MRAIConfig` or a keyword
    dict -- both timed-only.  *engine* (dynamic staged runs only) picks
    the per-epoch verification backend, e.g. ``"incremental"``.
    *sanitize* overrides the global sanitizer switch for this run:
    ``True`` forces the precondition/postcondition checks on, ``False``
    off, ``None`` (default) leaves the ambient setting.  *asynchronous*
    (static runs only) runs the timed substrate with its default
    delays, seeded by *seed* and bounded by *max_events*.
    """
    if protocol not in _PROTOCOLS:
        raise MechanismError(
            f"unknown protocol {protocol!r}; expected one of {_PROTOCOLS}"
        )
    timed = protocol == "timed"
    event_loop = timed or asynchronous
    _reject(
        not timed and delay is not None,
        "delay= is a timed-substrate knob; pass protocol='timed'",
    )
    _reject(
        not timed and mrai is not None,
        "mrai= is a timed-substrate knob; pass protocol='timed'",
    )
    _reject(
        not event_loop and max_events is not None,
        "max_events= bounds the timed event loop; pass protocol='timed' "
        "or asynchronous=True (staged runs are bounded by max_stages=)",
    )
    _reject(
        event_loop and max_stages is not None,
        "max_stages= bounds the staged engine; the timed event loop "
        "(protocol='timed' or asynchronous=True) is bounded by max_events=",
    )
    _reject(
        timed and asynchronous,
        "asynchronous= is the timed substrate's default configuration; "
        "pass protocol='timed' or asynchronous=True, not both",
    )
    _reject(
        asynchronous and protocol == "full",
        "asynchronous= runs the timed substrate's delta transport; "
        "protocol='full' is staged-only",
    )
    _reject(
        asynchronous and events is not None,
        "asynchronous= applies to static runs only; scripted scenarios "
        "reconverge on the staged synchronous engine",
    )
    _reject(
        engine is not None and (timed or events is None),
        "engine= selects the per-epoch verification backend of a staged "
        "dynamic scenario; it needs events= and a non-timed protocol",
    )

    def dispatch() -> RunResult:
        if event_loop:
            if events is None:
                return timed_mechanism(
                    graph,
                    mode,
                    policy,
                    seed=seed,
                    delay=delay,
                    mrai=mrai,
                    max_events=max_events,
                    obs=obs,
                )
            return timed_scenario(
                graph,
                events,
                mode,
                policy,
                seed=seed,
                delay=delay,
                mrai=mrai,
                max_events=max_events,
                obs=obs,
            )
        if events is None:
            return distributed_mechanism(
                graph,
                mode,
                policy,
                max_stages=max_stages,
                obs=obs,
                protocol=protocol,
            )
        return dynamic_scenario(
            graph,
            events,
            mode,
            policy,
            max_stages,
            engine=engine,
            protocol=protocol,
            obs=obs,
        )

    if sanitize is None:
        return dispatch()
    with sanitize_checks.sanitized(bool(sanitize)):
        return dispatch()
