"""E10: reconvergence after route changes.

Section 6 states that convergence (routes and prices) restarts whenever
a route changes.  The experiment scripts a failure / recovery / cost
re-declaration sequence on each family, reconverges after every event,
and checks that (a) prices equal the centralized mechanism on the
mutated graph and (b) the reconvergence stages respect the mutated
instance's ``max(d, d')``.

Events are chosen to preserve biconnectivity (otherwise the mechanism
is undefined, and :mod:`repro.core.dynamics` refuses to proceed).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.report import Table
from repro.bgp.events import CostChange, LinkFailure, LinkRecovery, NetworkEvent
from repro.core.dynamics import dynamic_scenario
from repro.experiments.instances import standard_instances
from repro.experiments.registry import ExperimentResult
from repro.graphs.asgraph import ASGraph
from repro.graphs.biconnectivity import is_biconnected


def _removable_edge(graph: ASGraph) -> Optional[Tuple[int, int]]:
    """An edge whose removal keeps the graph biconnected."""
    for u, v in graph.edges:
        if is_biconnected(graph.without_edge(u, v)):
            return (u, v)
    return None


def _script_for(graph: ASGraph) -> List[NetworkEvent]:
    events: List[NetworkEvent] = []
    edge = _removable_edge(graph)
    if edge is not None:
        events.append(LinkFailure(*edge))
        events.append(LinkRecovery(*edge))
    # Double the cost of the busiest node (ties broken by id).
    busiest = max(graph.nodes, key=lambda node: (graph.degree(node), -node))
    events.append(CostChange(busiest, graph.cost(busiest) * 2.0 + 1.0))
    return events


def run(
    scale: str = "small",
    seed: int = 0,
    engine: Optional[str] = None,
    protocol: str = "delta",
) -> ExperimentResult:
    """*engine* selects the centralized verification backend (e.g.
    ``incremental`` reuses cached route trees across the event script);
    *protocol* selects the BGP transport (``delta`` | ``full``).  Both
    are forwarded from the CLI's ``--engine`` / ``--protocol`` flags and
    never change the verdict -- every backend/transport is held to the
    same bit-identical routes and tolerance-checked prices.  The stage
    bounds need the staged engine, so under ``timed`` (which
    ``repro-cli all --protocol timed`` forwards here) the script runs
    on the ``delta`` transport.
    """
    staged = "delta" if protocol == "timed" else protocol
    out = Table(
        title="Reconvergence under dynamics (Sect. 6)",
        headers=[
            "family",
            "event",
            "restart stages",
            "cold stages",
            "bound",
            "within",
            "prices ok",
        ],
    )
    bgp_warm = Table(
        title="Plain-BGP warm reconvergence (routes only, for comparison)",
        headers=["family", "event", "warm stages", "d"],
    )
    passed = True
    for family, graph in standard_instances(scale, seed=seed):
        events = _script_for(graph)
        run_result = dynamic_scenario(
            graph, events, engine=engine, protocol=staged
        )
        for epoch in run_result.epochs:
            passed = passed and epoch.ok and epoch.within_bound
            out.add_row(
                family,
                epoch.description,
                epoch.stages,
                epoch.cold_stages,
                epoch.bound.stages,
                epoch.within_bound,
                epoch.ok,
            )
        # Plain BGP is left warm across events (no restart): measure its
        # incremental route reconvergence for comparison.
        from repro.bgp.engine import SynchronousEngine
        from repro.core.convergence import convergence_bound
        from repro.core.dynamics import apply_event_to_graph

        warm_bgp = SynchronousEngine(graph)
        warm_bgp.initialize()
        warm_bgp.run()
        current = graph
        for event in events:
            current = apply_event_to_graph(current, event)
            event.apply(warm_bgp)
            report = warm_bgp.run()
            bgp_warm.add_row(
                family, event.describe(), report.stages, convergence_bound(current).d
            )
    out.add_note(
        "a network event triggers the Sect. 6 restart: the price network "
        "reconverges from scratch on the mutated topology, so restart stages "
        "must respect the new instance's max(d, d'); cold stages cross-check "
        "with a fresh engine"
    )
    bgp_warm.add_note(
        "plain BGP needs no restart; warm incremental reconvergence can be "
        "faster or slower than d (path exploration) and is reported unasserted"
    )
    return ExperimentResult(
        experiment_id="E10",
        title="Reconvergence under dynamics",
        paper_artifact="Sect. 6's restart-on-route-change model",
        expectation="after every event the network reconverges to the mutated "
        "instance's exact prices; from-scratch convergence respects max(d, d')",
        tables=[out, bgp_warm],
        passed=passed,
    )
