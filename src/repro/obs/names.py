"""Canonical metric names: the paper's complexity measures, spelled out.

Section 5 of the paper measures BGP-based computation in three
currencies; every instrumented hot path emits them under the stable
names below so that a recorded trace -- not bespoke per-experiment code
-- reproduces the complexity claims:

=========================  =======  =============================================
metric                     kind     paper measure
=========================  =======  =============================================
``bgp.stages``             counter  stages to convergence (Theorem 2 ``max(d, d')``)
``bgp.stage.nodes_changed`` gauge   per-stage change accounting (label ``stage``)
``bgp.messages``           counter  total communication, by ``type`` label
``bgp.messages.received``  counter  receiver-side message accounting
``bgp.entries_sent``       counter  communication volume in table entries
``bgp.rows_sent``          counter  rows actually transmitted (transport level)
``bgp.rows_suppressed``    counter  rows the delta transport avoided resending
``bgp.deliveries``         counter  timed-engine (event-loop) deliveries
``bgp.node.loc_rib_entries``    gauge  per-node routing-table state (``O(nd)``)
``bgp.node.adj_rib_in_entries`` gauge  per-node Adj-RIB-In state
``bgp.node.price_entries``      gauge  per-node price-array state
=========================  =======  =============================================

Engine-level metrics (the ROADMAP's production-scaling story):

``mechanism.price_rows`` counts price-row throughput per engine.
The flat engine's demand-restricted sweep is accounted by
``routing.flat.{solves,rows,masked}`` (masked Dijkstra calls, distance
rows computed, stored CSR entries masked in place).  Its canonical
route build is accounted by
``routing.forest.{blocks,fallbacks}`` (batched scipy solves, and
destinations whose ties forced the exact reference kernel).

Span names (``obs.span``) cover the end-to-end pipeline:
``bgp.stage``, ``bgp.sync.run``, ``bgp.timed.run`` (asynchronous runs
included: they are the timed engine's default configuration),
``routing.all_pairs``, ``mechanism.price_table``,
``engine.all_pairs``, ``engine.price_table``, ``experiment.run``.
"""

from __future__ import annotations

# -- paper complexity measures (Sect. 5) -------------------------------
STAGES = "bgp.stages"
STAGE_NODES_CHANGED = "bgp.stage.nodes_changed"
MESSAGES = "bgp.messages"
MESSAGES_RECEIVED = "bgp.messages.received"
ENTRIES_SENT = "bgp.entries_sent"
ROWS_SENT = "bgp.rows_sent"
ROWS_SUPPRESSED = "bgp.rows_suppressed"
DELIVERIES = "bgp.deliveries"
LOC_RIB_ENTRIES = "bgp.node.loc_rib_entries"
ADJ_RIB_IN_ENTRIES = "bgp.node.adj_rib_in_entries"
PRICE_ENTRIES = "bgp.node.price_entries"

# -- timed substrate (discrete-event simulator) ------------------------
# Virtual-clock gauges and MRAI/loss accounting of repro.bgp.timed.
TIMED_CLOCK = "bgp.timed.clock"
TIMED_CONVERGENCE_TIME = "bgp.timed.convergence_time"
TIMED_MESSAGES_LOST = "bgp.timed.messages_lost"
TIMED_NETWORK_EVENTS = "bgp.timed.network_events"
TIMED_MRAI_DEFERRALS = "bgp.timed.mrai.deferrals"
TIMED_MRAI_FLUSHES = "bgp.timed.mrai.flushes"
TIMED_MRAI_COALESCED = "bgp.timed.mrai.rows_coalesced"

# -- engine-level metrics ----------------------------------------------
PRICE_ROWS = "mechanism.price_rows"
ROUTE_TREES = "routing.route_trees"

# -- flat-engine sweep accounting --------------------------------------
# solves: masked Dijkstra calls (one per distinct transit node k);
# rows: distance rows computed across them -- the demand-restriction
# win is rows << solves * n; masked: stored CSR entries masked in
# place (sum of deg(k) over solves) instead of rebuilt.
FLAT_SOLVES = "routing.flat.solves"
FLAT_ROWS = "routing.flat.rows"
FLAT_MASKED = "routing.flat.masked"

# -- canonical forest build (the flat engine's all_pairs) ---------------
# blocks: batched scipy distance solves; fallbacks: destinations whose
# ties (or near-ties) the distances could not resolve, rebuilt by the
# reference Dijkstra kernel.
FOREST_BLOCKS = "routing.forest.blocks"
FOREST_FALLBACKS = "routing.forest.fallbacks"

# -- incremental-engine cache accounting -------------------------------
# hits: trees served from cache; misses: trees computed from scratch;
# invalidations: cached trees an event touched (repaired in place).
CACHE_HITS = "routing.cache.hits"
CACHE_MISSES = "routing.cache.misses"
CACHE_INVALIDATIONS = "routing.cache.invalidations"
# In-place repair work (dynamic SSSP): labels settled by improve
# waves / dropped from orphaned cones / re-established by re-anchor
# waves.  relaxed + reanchored over the average tree size is the
# "Dijkstra-equivalent" cost of the repair path.
REPAIR_RELAXED = "routing.repair.relaxed"
REPAIR_DETACHED = "routing.repair.detached"
REPAIR_REANCHORED = "routing.repair.reanchored"

# -- span names --------------------------------------------------------
SPAN_STAGE = "bgp.stage"
SPAN_SYNC_RUN = "bgp.sync.run"
SPAN_TIMED_RUN = "bgp.timed.run"
SPAN_ALL_PAIRS = "routing.all_pairs"
SPAN_PRICE_TABLE = "mechanism.price_table"
SPAN_ENGINE_ALL_PAIRS = "engine.all_pairs"
SPAN_ENGINE_PRICE_TABLE = "engine.price_table"
SPAN_EXPERIMENT = "experiment.run"
