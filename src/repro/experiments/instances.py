"""Shared topology instance sets for the experiment harness.

Two scales are supported everywhere:

* ``small`` -- seconds-fast instances used by the test suite and the
  default benchmark runs;
* ``full``  -- the larger instances behind the numbers in
  EXPERIMENTS.md.

Instances are deterministic in (scale, seed), so every table in the
repository can be regenerated exactly.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.exceptions import ExperimentError
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import (
    barabasi_albert_graph,
    grid_graph,
    integer_costs,
    isp_like_graph,
    random_biconnected_graph,
    ring_graph,
    waxman_graph,
    wheel_graph,
)

Instance = Tuple[str, ASGraph]

SCALES = ("small", "full")


def _check_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ExperimentError(f"unknown scale {scale!r}; use one of {SCALES}")


def standard_instances(scale: str = "small", seed: int = 0) -> List[Instance]:
    """The default family sweep used by most experiments."""
    _check_scale(scale)
    if scale == "small":
        return [
            ("ring", ring_graph(8, seed=seed, cost_sampler=integer_costs(1, 5))),
            ("wheel", wheel_graph(9, seed=seed, cost_sampler=integer_costs(0, 4))),
            ("grid", grid_graph(3, 4, seed=seed, cost_sampler=integer_costs(1, 6))),
            ("random", random_biconnected_graph(12, 0.25, seed=seed, cost_sampler=integer_costs(0, 5))),
            ("waxman", waxman_graph(12, seed=seed, cost_sampler=integer_costs(1, 8))),
            ("barabasi-albert", barabasi_albert_graph(14, seed=seed, cost_sampler=integer_costs(0, 5))),
            ("isp-like", isp_like_graph(16, seed=seed, cost_sampler=integer_costs(1, 6))),
        ]
    return [
        ("ring", ring_graph(24, seed=seed, cost_sampler=integer_costs(1, 5))),
        ("wheel", wheel_graph(25, seed=seed, cost_sampler=integer_costs(0, 4))),
        ("grid", grid_graph(5, 6, seed=seed, cost_sampler=integer_costs(1, 6))),
        ("random", random_biconnected_graph(30, 0.15, seed=seed, cost_sampler=integer_costs(0, 5))),
        ("waxman", waxman_graph(28, seed=seed, cost_sampler=integer_costs(1, 8))),
        ("barabasi-albert", barabasi_albert_graph(32, seed=seed, cost_sampler=integer_costs(0, 5))),
        ("isp-like", isp_like_graph(36, seed=seed, cost_sampler=integer_costs(1, 6))),
    ]
