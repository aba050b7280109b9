"""Seeded per-link propagation-delay models for the timed substrate.

The timed engine (:mod:`repro.bgp.timed`) samples one delay per
(transmission, neighbor) from a :class:`DelayModel`.  Three shapes cover
the timing-realism experiments:

* :class:`ConstantDelay` -- every transmission takes exactly ``delay``
  seconds of virtual time (``0.0`` gives the degenerate instant-delivery
  schedule used by the determinism tests);
* :class:`UniformDelay` -- i.i.d. uniform jitter in
  ``[min_delay, max_delay]``, one ``rng.uniform`` call per scheduled
  transmission.  ``UniformDelay(0.1, 1.0)`` is the timed engine's
  default, the asynchronous run (``run(asynchronous=True)``);
* :class:`LogNormalDelay` -- heavy-tailed propagation times
  (``rng.lognormvariate``), the classic model for wide-area RTTs.

Models are stateless: all randomness flows through the engine's single
seeded :class:`random.Random`, so a run is a pure function of
``(graph, seed, configuration)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.exceptions import ProtocolError


@dataclass(frozen=True)
class DelayModel:
    """Base class: a distribution of per-transmission link delays."""

    def sample(self, rng: random.Random) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def mean(self) -> float:  # pragma: no cover - abstract
        """Expected delay (used by experiments to normalize virtual time)."""
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantDelay(DelayModel):
    """Every transmission takes exactly ``delay`` (no RNG draw)."""

    delay: float = 0.0

    def __post_init__(self) -> None:
        if not self.delay >= 0.0:
            raise ProtocolError(f"constant delay must be >= 0, got {self.delay}")

    def sample(self, rng: random.Random) -> float:
        return self.delay

    def mean(self) -> float:
        return self.delay

    def describe(self) -> str:
        return f"constant:{self.delay:g}"


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """I.i.d. uniform delay in ``[min_delay, max_delay]``.

    One ``rng.uniform(min_delay, max_delay)`` draw per scheduled
    transmission; the golden schedule pins of the asynchronous run
    (``tests/test_timed_protocol.py``) depend on exactly this pattern.
    """

    min_delay: float = 0.1
    max_delay: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_delay <= self.max_delay:
            raise ProtocolError(
                f"invalid delay range [{self.min_delay}, {self.max_delay}]"
            )

    def sample(self, rng: random.Random) -> float:
        # rng.uniform's documented equation, inlined: the same draw and
        # the same bits, one Python call fewer per transmission.
        return self.min_delay + (self.max_delay - self.min_delay) * rng.random()

    def mean(self) -> float:
        return (self.min_delay + self.max_delay) / 2.0

    def describe(self) -> str:
        return f"uniform:{self.min_delay:g},{self.max_delay:g}"


@dataclass(frozen=True)
class LogNormalDelay(DelayModel):
    """Heavy-tailed delay: ``exp(N(mu, sigma))`` seconds."""

    mu: float = -2.0
    sigma: float = 0.5

    def __post_init__(self) -> None:
        if not self.sigma >= 0.0:
            raise ProtocolError(f"lognormal sigma must be >= 0, got {self.sigma}")

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(self.mu, self.sigma)

    def mean(self) -> float:
        import math

        return math.exp(self.mu + self.sigma**2 / 2.0)

    def describe(self) -> str:
        return f"lognormal:{self.mu:g},{self.sigma:g}"


def parse_delay(spec: str) -> DelayModel:
    """Parse a CLI/benchmark delay spec: ``constant:0.1``,
    ``uniform:0.05,0.5``, or ``lognormal:-2.0,0.5``."""
    kind, _, rest = spec.partition(":")
    try:
        params = [float(part) for part in rest.split(",")] if rest else []
    except ValueError:
        raise ProtocolError(f"malformed delay spec {spec!r}") from None
    if kind == "constant" and len(params) <= 1:
        return ConstantDelay(*params)
    if kind == "uniform" and len(params) == 2:
        return UniformDelay(*params)
    if kind == "lognormal" and len(params) == 2:
        return LogNormalDelay(*params)
    raise ProtocolError(
        f"unknown delay spec {spec!r}; expected constant:D, "
        "uniform:MIN,MAX, or lognormal:MU,SIGMA"
    )


def resolve_delay(spec: "str | DelayModel | None") -> "DelayModel | None":
    """Coerce any accepted delay spelling to a :class:`DelayModel`.

    Every surface that takes a delay -- ``api.run``, the timed runners,
    the CLI, the benchmarks -- accepts either a model instance or a
    :func:`parse_delay` spec string; this is the one coercion point.
    ``None`` passes through (the engine applies its own default).
    """
    if spec is None or isinstance(spec, DelayModel):
        return spec
    if isinstance(spec, str):
        return parse_delay(spec)
    raise ProtocolError(
        f"delay must be a DelayModel, a spec string, or None; "
        f"got {type(spec).__name__}"
    )
