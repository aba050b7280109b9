"""E3: the distributed protocol computes exactly the Theorem 1 prices.

For every topology family, run the FPSS protocol (monotone and
recompute modes, synchronous engine; plus an asynchronous run, the
timed engine's default configuration) and compare all n(n-1) routes and
every per-pair price row against the centralized mechanism.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.core.price_node import UpdateMode
from repro.core.protocol import (
    distributed_mechanism,
    timed_mechanism,
    verify_against_centralized,
)
from repro.experiments.instances import standard_instances
from repro.experiments.registry import ExperimentResult
from repro.mechanism.vcg import compute_price_table


def run(scale: str = "small", seed: int = 0) -> ExperimentResult:
    out = Table(
        title="Distributed vs centralized prices (paper Fig. 3 / Sect. 6.2)",
        headers=[
            "family",
            "n",
            "mode",
            "engine",
            "stages",
            "pairs",
            "prices",
            "mismatches",
        ],
    )
    passed = True
    for family, graph in standard_instances(scale, seed=seed):
        reference = compute_price_table(graph)
        for mode in (UpdateMode.MONOTONE, UpdateMode.RECOMPUTE):
            result = distributed_mechanism(graph, mode=mode)
            verification = verify_against_centralized(result, table=reference)
            passed = passed and verification.ok
            out.add_row(
                family,
                graph.num_nodes,
                mode.value,
                "sync",
                result.stages,
                verification.pairs_checked,
                verification.prices_checked,
                len(verification.mismatches),
            )
        async_result = timed_mechanism(graph, mode=UpdateMode.MONOTONE, seed=seed)
        async_verification = verify_against_centralized(async_result, table=reference)
        passed = passed and async_verification.ok
        out.add_row(
            family,
            graph.num_nodes,
            UpdateMode.MONOTONE.value,
            "async",
            "-",
            async_verification.pairs_checked,
            async_verification.prices_checked,
            len(async_verification.mismatches),
        )
    out.add_note(
        "async rows have no stage count: the event-driven engine has no "
        "synchronous stages (correctness only)"
    )
    return ExperimentResult(
        experiment_id="E3",
        title="Distributed prices = centralized VCG",
        paper_artifact="the algorithm of Fig. 3 and its correctness argument (Sect. 6.2)",
        expectation="zero mismatches on every pair, every mode, every engine",
        tables=[out],
        passed=passed,
    )
