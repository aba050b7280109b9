"""Unified registry of route/price computation engines.

Every backend that can answer "all selected LCPs" / "all Theorem 1
prices" for an :class:`~repro.graphs.asgraph.ASGraph` registers here
under a stable name:

=========== =============================================================
name        backend
=========== =============================================================
reference   serial pure Python (semantics-defining)
flat        canonical forest + flat-CSR price sweep
incremental epoch-cached warm-start (stateful)
=========== =============================================================

Every engine returns the canonical routes, so all three answer
``all_pairs``, ``price_table`` and ``cost_matrix``.

Callers select an engine by name through the ``engine=`` parameter of
:func:`repro.routing.allpairs.all_pairs_lcp` and
:func:`repro.mechanism.vcg.compute_price_table`, the ``--engine`` flag
of the CLI, or directly via :func:`get_engine`.  The differential test
harness (``tests/test_engine_differential.py``) holds every registered
engine to the reference answers, and the golden fixtures pin the
Fig. 1 / Fig. 2 artifacts bit-for-bit, so registration is a correctness
contract, not just a lookup convenience.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type, Union

from repro.exceptions import EngineError
from repro.routing.engines.base import CostMatrix, Engine
from repro.routing.engines.flat import FlatEngine, FlatSweepStats
from repro.routing.engines.incremental import CacheStats, IncrementalEngine
from repro.routing.engines.reference import ReferenceEngine

__all__ = [
    "CacheStats",
    "CostMatrix",
    "Engine",
    "EngineSpec",
    "FlatEngine",
    "FlatSweepStats",
    "IncrementalEngine",
    "ReferenceEngine",
    "engine_names",
    "get_engine",
    "register",
    "resolve_engine",
]

#: A caller-facing engine selector: a registry name or an instance.
EngineSpec = Union[str, Engine]

_REGISTRY: Dict[str, Type[Engine]] = {}


def register(engine_class: Type[Engine]) -> Type[Engine]:
    """Register an engine class under its :attr:`Engine.name`.

    Usable as a decorator by out-of-tree backends; re-registering a
    name is an error (engine names are a stable CLI surface).
    """
    name = engine_class.name
    if name in _REGISTRY:
        raise EngineError(f"engine name {name!r} is already registered")
    _REGISTRY[name] = engine_class
    return engine_class


def engine_names() -> Tuple[str, ...]:
    """All registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def engine_classes() -> List[Type[Engine]]:
    """All registered engine classes, in name order."""
    return [_REGISTRY[name] for name in engine_names()]


def get_engine(name: str) -> Engine:
    """Instantiate a registered engine by name."""
    try:
        engine_class = _REGISTRY[name]
    except KeyError:
        known = ", ".join(engine_names())
        raise EngineError(f"unknown engine {name!r}; registered: {known}") from None
    return engine_class()


def resolve_engine(engine: EngineSpec) -> Engine:
    """Normalize an ``engine=`` argument (name or instance) to an
    :class:`Engine` instance."""
    if isinstance(engine, Engine):
        return engine
    return get_engine(engine)


register(ReferenceEngine)
register(FlatEngine)
register(IncrementalEngine)
