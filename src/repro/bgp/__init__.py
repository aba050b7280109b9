"""The BGP computational model of Section 5.

An abstraction of BGP after Griffin and Wilfong, exactly as the paper
adopts it: the network is the AS graph; every node stores, per
destination, a selected path and its cost; computation proceeds in
stages (receive tables -> local computation -> send own table if it
changed); complexity is measured in stages to convergence, messages and
routing-table size.

The engine is generic over the node type: plain
:class:`~repro.bgp.node.BGPNode` computes routes only, while the FPSS
:class:`~repro.core.price_node.PriceComputingNode` rides the same
message exchange to compute VCG prices (Sect. 6's "no new messages"
requirement is structural here -- the engine has no other channel).
"""

from repro.bgp.messages import RouteAdvertisement
from repro.bgp.node import BGPNode
from repro.bgp.policy import HopCountPolicy, LowestCostPolicy, SelectionPolicy
from repro.bgp.engine import SynchronousEngine
from repro.bgp.events import CostChange, LinkFailure, LinkRecovery
from repro.bgp.metrics import ConvergenceReport, StateReport, TimedReport
from repro.bgp.delays import (
    ConstantDelay,
    DelayModel,
    LogNormalDelay,
    UniformDelay,
    parse_delay,
    resolve_delay,
)
from repro.bgp.timed import (
    MRAI_PEER,
    MRAI_PREFIX,
    MRAIConfig,
    TimedEngine,
    resolve_mrai,
)

__all__ = [
    "RouteAdvertisement",
    "BGPNode",
    "HopCountPolicy",
    "LowestCostPolicy",
    "SelectionPolicy",
    "SynchronousEngine",
    "TimedEngine",
    "CostChange",
    "LinkFailure",
    "LinkRecovery",
    "ConvergenceReport",
    "StateReport",
    "TimedReport",
    "DelayModel",
    "ConstantDelay",
    "UniformDelay",
    "LogNormalDelay",
    "parse_delay",
    "resolve_delay",
    "resolve_mrai",
    "MRAIConfig",
    "MRAI_PEER",
    "MRAI_PREFIX",
]
