"""E9: the BGP substrate itself, and the hop-count baseline.

Two claims from the paper's framing:

* Section 5: plain BGP (lowest-cost policy) converges within ``d``
  stages and matches the centralized LCPs.
* Section 1's caveat: unmodified BGP routes by hop count; the
  experiment measures the transit-cost penalty ("stretch") that the
  paper's trivial lowest-cost modification removes.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.baselines.hopcount_bgp import route_stretch
from repro.bgp.engine import SynchronousEngine
from repro.bgp.timed import TimedEngine
from repro.core.convergence import convergence_bound
from repro.core.protocol import staged_incremental
from repro.experiments.instances import standard_instances
from repro.experiments.registry import ExperimentResult
from repro.routing.allpairs import all_pairs_lcp


def run(scale: str = "small", seed: int = 0, protocol: str = "delta") -> ExperimentResult:
    """*protocol* selects the transport: ``delta`` (incremental, the
    default), ``full`` (whole tables on every transmission), or
    ``timed`` (the discrete-event simulator; virtual time replaces
    stages).  All model measures are identical between delta and full;
    the rows columns show what the delta transport saves."""
    if protocol == "timed":
        return _run_timed(scale, seed)
    incremental = staged_incremental(protocol)
    substrate = Table(
        title=f"Plain BGP substrate (Sect. 5; {protocol} transport)",
        headers=[
            "family",
            "n",
            "d",
            "stages",
            "within d",
            "routes match",
            "rows sent",
            "rows saved",
        ],
    )
    stretch_table = Table(
        title="Hop-count BGP vs lowest-cost routing (Sect. 1 caveat)",
        headers=[
            "family",
            "n",
            "pairs",
            "suboptimal pairs",
            "mean stretch",
            "max stretch",
            "aggregate stretch",
        ],
    )
    passed = True
    for family, graph in standard_instances(scale, seed=seed):
        bound = convergence_bound(graph)
        engine = SynchronousEngine(graph, incremental=incremental)
        engine.initialize()
        report = engine.run()
        routes = all_pairs_lcp(graph)
        match = all(
            engine.node(source).route(destination) is not None
            and engine.node(source).route(destination).path
            == routes.path(source, destination)
            for source in graph.nodes
            for destination in graph.nodes
            if source != destination
        )
        within = report.stages <= bound.d
        passed = passed and within and match
        substrate.add_row(
            family,
            graph.num_nodes,
            bound.d,
            report.stages,
            within,
            match,
            report.total_rows_sent,
            report.total_rows_suppressed,
        )

        stretch = route_stretch(graph)
        stretch_table.add_row(
            family,
            graph.num_nodes,
            stretch.pairs,
            stretch.pairs_suboptimal,
            stretch.mean_stretch,
            stretch.max_stretch,
            stretch.aggregate_stretch,
        )
    stretch_table.add_note(
        "stretch = transit cost of the hop-count route / transit cost of the LCP"
    )
    return ExperimentResult(
        experiment_id="E9",
        title="BGP substrate & hop-count baseline",
        paper_artifact="the Sect. 5 computational model and the Sect. 1 hop-count caveat",
        expectation="BGP matches centralized LCPs within d stages; hop-count stretch >= 1",
        tables=[substrate, stretch_table],
        passed=passed,
    )


def _run_timed(scale: str, seed: int) -> ExperimentResult:
    """E9 on the timed substrate: stages give way to virtual time, but
    the converged routes still match the centralized LCPs exactly."""
    substrate = Table(
        title="Plain BGP substrate (timed discrete-event transport)",
        headers=[
            "family",
            "n",
            "deliveries",
            "virtual time (s)",
            "routes match",
            "rows sent",
            "rows saved",
        ],
    )
    passed = True
    for family, graph in standard_instances(scale, seed=seed):
        engine = TimedEngine(graph, seed=seed)
        engine.initialize()
        report = engine.run()
        routes = all_pairs_lcp(graph)
        match = all(
            engine.node(source).route(destination) is not None
            and engine.node(source).route(destination).path
            == routes.path(source, destination)
            for source in graph.nodes
            for destination in graph.nodes
            if source != destination
        )
        passed = passed and match and report.converged
        substrate.add_row(
            family,
            graph.num_nodes,
            report.deliveries,
            round(report.convergence_time, 3),
            match,
            report.rows_sent,
            report.rows_suppressed,
        )
    substrate.add_note(
        "uniform [0.1, 1.0] s link jitter, MRAI off; seeded and reproducible"
    )
    return ExperimentResult(
        experiment_id="E9",
        title="BGP substrate & hop-count baseline",
        paper_artifact="the Sect. 5 computational model on the timed substrate",
        expectation="timed BGP converges to the centralized LCPs under link jitter",
        tables=[substrate],
        passed=passed,
    )
