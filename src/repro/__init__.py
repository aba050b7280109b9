"""repro: a reproduction of "A BGP-based mechanism for lowest-cost routing".

Feigenbaum, Papadimitriou, Sami, Shenker (PODC 2002; Distributed
Computing 18(1), 2005).

The library implements the paper end to end:

* the AS-graph model with per-node transit costs (:mod:`repro.graphs`,
  :mod:`repro.traffic`);
* centralized lowest-cost routing and k-avoiding paths
  (:mod:`repro.routing`);
* the unique strategyproof VCG pricing scheme of Theorem 1
  (:mod:`repro.mechanism`);
* the Griffin-Wilfong-style BGP computational model of Section 5
  (:mod:`repro.bgp`);
* the paper's contribution -- the BGP-based distributed price
  computation of Section 6 with its ``max(d, d')`` convergence bound
  (:mod:`repro.core`);
* accounting (:mod:`repro.accounting`), strategic-agent simulation
  (:mod:`repro.strategic`), prior-work baselines
  (:mod:`repro.baselines`), and the experiment harness
  (:mod:`repro.experiments`).

The *stable* import surface is :mod:`repro.api` -- prefer it in
downstream code; observability (spans, counters, JSONL traces of the
Section 5 complexity measures) lives in :mod:`repro.obs`.

Quickstart::

    from repro import api

    graph = api.fig1_graph()
    table = api.compute_price_table(graph)          # centralized Theorem 1
    result = api.run(graph)                         # BGP-based, Sect. 6
    assert result.price(3, 4, 5) == table.price(3, 4, 5) == 9.0
"""

from repro.core.convergence import ConvergenceBound, convergence_bound
from repro.core.price_node import PriceComputingNode, UpdateMode
from repro.core.protocol import (
    DistributedPriceResult,
    distributed_mechanism,
    verify_against_centralized,
)
from repro.core.run import run
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import fig1_graph
from repro.mechanism.vcg import PriceTable, compute_price_table, vcg_price
from repro.routing.allpairs import AllPairsRoutes, all_pairs_lcp
from repro.traffic.matrix import TrafficMatrix

__version__ = "1.0.0"

__all__ = [
    "ASGraph",
    "AllPairsRoutes",
    "ConvergenceBound",
    "DistributedPriceResult",
    "PriceComputingNode",
    "PriceTable",
    "TrafficMatrix",
    "UpdateMode",
    "all_pairs_lcp",
    "compute_price_table",
    "convergence_bound",
    "distributed_mechanism",
    "fig1_graph",
    "run",
    "vcg_price",
    "verify_against_centralized",
    "__version__",
]
