"""Known-bad fixture: RPR011 -- imports of deprecated in-tree shims."""

import repro.routing.scipy_engine

from repro.routing.scipy_engine import all_pairs_costs

from repro.routing.engines import flat_price_rows


def uses_shim(graph):
    costs = all_pairs_costs(graph)
    return costs, repro.routing.scipy_engine, flat_price_rows
