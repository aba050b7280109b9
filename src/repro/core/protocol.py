"""One-call runners for the distributed mechanism.

:func:`distributed_mechanism` wires price-computing nodes into the
staged synchronous engine, runs to quiescence, and packages the
network-wide result; :func:`timed_mechanism` does the same on the
discrete-event timed substrate, whose default configuration is the
asynchronous run.  Both are normally reached through the unified
dispatcher :func:`repro.core.run.run`.
:func:`verify_against_centralized` compares every route and every price
against the centralized Theorem 1 reference -- the end-to-end
correctness statement of the reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import repro.obs as obs_mod
from repro.bgp.delays import DelayModel
from repro.bgp.engine import SynchronousEngine
from repro.bgp.timed import MRAIConfig, TimedEngine
from repro.devtools import sanitize
from repro.bgp.metrics import ConvergenceReport, TimedReport
from repro.bgp.policy import LowestCostPolicy, SelectionPolicy
from repro.core.price_node import PriceComputingNode, UpdateMode
from repro.exceptions import MechanismError
from repro.graphs.asgraph import ASGraph
from repro.mechanism.vcg import PriceTable, compute_price_table
from repro.types import Cost, NodeId, PathTuple

PairKey = Tuple[NodeId, NodeId]


@dataclass
class Mismatch:
    """One disagreement between distributed and centralized results."""

    kind: str  # "path" or "price"
    source: NodeId
    destination: NodeId
    k: Optional[NodeId]
    distributed: object
    centralized: object

    def __str__(self) -> str:
        where = f"({self.source} -> {self.destination}"
        if self.k is not None:
            where += f", k={self.k}"
        where += ")"
        return (
            f"{self.kind} mismatch {where}: distributed={self.distributed!r} "
            f"centralized={self.centralized!r}"
        )


@dataclass
class VerificationReport:
    """Outcome of the distributed-vs-centralized comparison."""

    pairs_checked: int
    prices_checked: int
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def raise_on_mismatch(self) -> None:
        if self.mismatches:
            preview = "; ".join(str(m) for m in self.mismatches[:5])
            raise MechanismError(
                f"{len(self.mismatches)} mismatches vs centralized reference: "
                f"{preview}"
            )


@dataclass
class DistributedPriceResult:
    """Everything the distributed protocol computed."""

    graph: ASGraph
    engine: Union[SynchronousEngine, TimedEngine]
    report: Union[ConvergenceReport, TimedReport]
    mode: UpdateMode

    def node(self, node_id: NodeId) -> PriceComputingNode:
        node = self.engine.nodes[node_id]
        assert isinstance(node, PriceComputingNode)
        return node

    def path(self, source: NodeId, destination: NodeId) -> PathTuple:
        entry = self.node(source).route(destination)
        if entry is None:
            raise MechanismError(
                f"distributed protocol has no route {source} -> {destination}"
            )
        return entry.path

    def cost(self, source: NodeId, destination: NodeId) -> Cost:
        entry = self.node(source).route(destination)
        if entry is None:
            raise MechanismError(
                f"distributed protocol has no route {source} -> {destination}"
            )
        return entry.cost

    def price(self, k: NodeId, source: NodeId, destination: NodeId) -> Cost:
        return self.node(source).price(k, destination)

    def price_rows(self) -> Dict[PairKey, Dict[NodeId, Cost]]:
        """All price rows, shaped like the centralized PriceTable rows."""
        rows: Dict[PairKey, Dict[NodeId, Cost]] = {}
        for node_id, node in self.engine.nodes.items():
            for destination, row in node.price_rows.items():
                rows[(node_id, destination)] = dict(row)
        return rows

    @property
    def stages(self) -> int:
        return self.report.stages


def distributed_mechanism(
    graph: ASGraph,
    mode: UpdateMode = UpdateMode.MONOTONE,
    policy: Optional[SelectionPolicy] = None,
    max_stages: Optional[int] = None,
    obs: Optional[obs_mod.Obs] = None,
    *,
    protocol: str = "delta",
) -> DistributedPriceResult:
    """Run the full FPSS protocol (routes + prices) to quiescence on the
    staged Sect. 5 engine.

    *obs* names an explicit :class:`repro.obs.Obs` observer, forwarded
    to the protocol engine so the run's stage/message/table metrics are
    recorded; ``None`` reports to the global default observer iff
    observability is enabled.

    *protocol* selects the BGP transport: ``delta`` (incremental row
    exchanges, the default) or ``full`` (literal Sect. 5 full routing
    tables); the converged result is bit-identical either way.
    """
    if protocol not in ("delta", "full"):
        raise MechanismError(
            f"unknown transport protocol {protocol!r}; expected 'delta' or 'full'"
        )
    policy = policy or LowestCostPolicy()
    if sanitize.enabled():
        # Theorem 1 precondition: without biconnectivity some k-avoiding
        # path is missing and the prices the protocol would converge to
        # are undefined (monopoly positions).
        sanitize.check_biconnected(graph)

    def factory(node_id: NodeId, cost: Cost, pol: SelectionPolicy) -> PriceComputingNode:
        return PriceComputingNode(node_id, cost, pol, mode=mode)

    engine = SynchronousEngine(
        graph,
        policy=policy,
        node_factory=factory,
        incremental=protocol != "full",
        obs=obs,
    )
    engine.initialize()
    report = engine.run(max_stages=max_stages)
    if sanitize.enabled():
        # End-to-end validation of the converged state: every selected
        # route re-verified against Dijkstra, every price against the
        # Theorem 1 identity recomputed from scratch.
        sanitize.check_distributed_prices(
            graph,
            {node_id: node.routes for node_id, node in engine.nodes.items()},
            {
                node_id: getattr(node, "price_rows", {})
                for node_id, node in engine.nodes.items()
            },
        )
    return DistributedPriceResult(graph=graph, engine=engine, report=report, mode=mode)


def timed_mechanism(
    graph: ASGraph,
    mode: UpdateMode = UpdateMode.MONOTONE,
    policy: Optional[SelectionPolicy] = None,
    *,
    seed: int = 0,
    delay: Union[str, DelayModel, None] = None,
    mrai: Union[dict, MRAIConfig, None] = None,
    max_events: Optional[int] = None,
    obs: Optional[obs_mod.Obs] = None,
) -> DistributedPriceResult:
    """Run the FPSS protocol on the discrete-event timed substrate.

    *delay* is the seeded per-link delay distribution (default: the
    asynchronous run's uniform [0.1, 1.0] jitter), given either as a
    :class:`DelayModel` or as a ``"kind:params"`` spec string
    (:func:`repro.bgp.delays.parse_delay`); *mrai* is the optional
    hold-down timer configuration, an :class:`MRAIConfig` or a keyword
    dict for one -- see :mod:`repro.bgp.timed`.  Whatever the timing,
    the converged routes
    and prices are the same LCPs and VCG payments the centralized
    reference computes (:func:`verify_against_centralized`); timing only
    moves the virtual-clock and transport accounting in the report.
    """
    policy = policy or LowestCostPolicy()
    if sanitize.enabled():
        sanitize.check_biconnected(graph)

    def factory(node_id: NodeId, cost: Cost, pol: SelectionPolicy) -> PriceComputingNode:
        return PriceComputingNode(node_id, cost, pol, mode=mode)

    engine = TimedEngine(
        graph,
        policy=policy,
        node_factory=factory,
        seed=seed,
        delay=delay,
        mrai=mrai,
        obs=obs,
    )
    engine.initialize()
    report = engine.run(max_events=max_events)
    if sanitize.enabled():
        sanitize.check_distributed_prices(
            graph,
            {node_id: node.routes for node_id, node in engine.nodes.items()},
            {
                node_id: getattr(node, "price_rows", {})
                for node_id, node in engine.nodes.items()
            },
        )
    return DistributedPriceResult(graph=graph, engine=engine, report=report, mode=mode)


def verify_against_centralized(
    result: DistributedPriceResult,
    table: Optional[PriceTable] = None,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-9,
) -> VerificationReport:
    """Compare all routes and prices with the centralized reference.

    Routes must match *exactly* (identical tie-breaking by design);
    prices are compared with floating-point tolerance because the
    distributed arithmetic associates additions differently.
    """
    table = table or compute_price_table(result.graph)
    routes = table.routes
    report = VerificationReport(pairs_checked=0, prices_checked=0)
    for destination in result.graph.nodes:
        tree = routes.tree(destination)
        for source in result.graph.nodes:
            if source == destination:
                continue
            report.pairs_checked += 1
            expected_path = tree.path(source)
            actual_path = result.path(source, destination)
            if actual_path != expected_path:
                report.mismatches.append(
                    Mismatch(
                        kind="path",
                        source=source,
                        destination=destination,
                        k=None,
                        distributed=actual_path,
                        centralized=expected_path,
                    )
                )
                continue
            expected_row = table.row(source, destination)
            actual_row = result.node(source).price_rows.get(destination, {})
            keys = set(expected_row) | set(actual_row)
            for k in sorted(keys):
                report.prices_checked += 1
                expected = expected_row.get(k)
                actual = actual_row.get(k)
                if expected is None or actual is None:
                    report.mismatches.append(
                        Mismatch("price", source, destination, k, actual, expected)
                    )
                    continue
                if math.isinf(actual) or not math.isclose(
                    actual, expected, rel_tol=rel_tol, abs_tol=abs_tol
                ):
                    report.mismatches.append(
                        Mismatch("price", source, destination, k, actual, expected)
                    )
    return report
