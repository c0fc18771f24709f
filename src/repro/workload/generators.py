"""Workload generators: who submits queries, when, and what mix.

Two client models, both deterministic given their seed:

* **Open loop** (:class:`OpenLoopStream`) — a Poisson arrival process at a
  target QPS, independent of the system's state.  The right model for
  internet-facing traffic: load does not slow down because the server is
  slow, which is what exposes saturation (arrival rate > service capacity
  makes queues grow without bound).
* **Closed loop** (:class:`ClosedLoopStream`) — N clients that submit one
  query, wait for its completion, think for an exponentially distributed
  pause, and submit again.  In-flight queries never exceed N, so a closed
  stream self-throttles; the right model for interactive tenants.

Each stream owns a query mix: weighted template names sampled per
submission from the stream's own RNG, so two streams never perturb each
other's sequences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class QueryMix:
    """Weighted choice over job-template names."""

    weights: Tuple[Tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ConfigurationError("a query mix needs at least one template")
        for name, weight in self.weights:
            if weight <= 0:
                raise ConfigurationError(
                    f"query mix weight for {name!r} must be positive"
                )
        # The draw table, built once with the arithmetic each draw used
        # to redo (``sum`` for the total, a running float for the
        # bounds), so every draw is bit-identical.  Plain attributes,
        # not fields: equality, repr and cache keys see only ``weights``.
        cumulative = 0.0
        bounds = []
        for name, weight in self.weights:
            cumulative += weight
            bounds.append((cumulative, name))
        object.__setattr__(self, "_total", sum(w for _, w in self.weights))
        object.__setattr__(self, "_bounds", tuple(bounds))

    @classmethod
    def of(cls, weights: Mapping[str, float]) -> "QueryMix":
        return cls(tuple(weights.items()))

    @property
    def template_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.weights)

    def sample(self, rng: random.Random) -> str:
        """One weighted draw from the mix."""
        point = rng.random() * self._total
        for bound, name in self._bounds:
            if point < bound:
                return name
        return self.weights[-1][0]


class Arrival(NamedTuple):
    """One query submission: when, from which stream, which template."""

    time_s: float
    stream: str
    template: str
    client: int = -1  # closed-loop client id; -1 for open-loop arrivals


@dataclass(frozen=True)
class OpenLoopStream:
    """Poisson arrivals at ``qps`` with a per-stream seed and mix.

    ``start_s``/``end_s`` optionally window the stream inside the run —
    the building block for diurnal load shapes (a peak is just extra
    streams active only during the peak window).  The defaults reproduce
    the historical full-duration stream byte-for-byte.
    """

    name: str
    qps: float
    mix: QueryMix
    seed: int = 1
    start_s: float = 0.0
    end_s: Optional[float] = None  # None: the run's duration

    def __post_init__(self) -> None:
        if self.qps <= 0:
            raise ConfigurationError(
                f"stream {self.name!r}: qps must be positive"
            )
        if self.start_s < 0:
            raise ConfigurationError(
                f"stream {self.name!r}: start_s must be non-negative"
            )
        if self.end_s is not None and self.end_s <= self.start_s:
            raise ConfigurationError(
                f"stream {self.name!r}: end_s must be past start_s"
            )

    def arrivals(self, duration_s: float) -> List[Arrival]:
        """All arrivals in ``[start_s, min(end_s, duration_s))``."""
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        horizon = duration_s if self.end_s is None else min(self.end_s, duration_s)
        rng = random.Random(self.seed)
        qps, name, sample = self.qps, self.name, self.mix.sample
        out: List[Arrival] = []
        t = self.start_s + rng.expovariate(qps)
        while t < horizon:
            out.append(Arrival(t, name, sample(rng)))
            t += rng.expovariate(qps)
        return out


@dataclass(frozen=True)
class ClosedLoopStream:
    """N think-time clients; the engine drives resubmission on completion."""

    name: str
    clients: int
    think_s: float
    mix: QueryMix
    seed: int = 1

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConfigurationError(
                f"stream {self.name!r}: needs at least one client"
            )
        if self.think_s < 0:
            raise ConfigurationError(
                f"stream {self.name!r}: think time must be non-negative"
            )

    def session_rng(self) -> random.Random:
        """The stream's private RNG (the engine owns its state)."""
        return random.Random(self.seed)

    def initial_arrivals(self, rng: random.Random) -> List[Arrival]:
        """Each client's first submission, staggered over one think period."""
        stagger = self.think_s if self.think_s > 0 else 0.001
        return [
            Arrival(rng.random() * stagger, self.name, self.mix.sample(rng), client)
            for client in range(self.clients)
        ]

    def next_arrival(
        self, rng: random.Random, client: int, finished_at_s: float
    ) -> Arrival:
        """The client's next submission after finishing at ``finished_at_s``."""
        pause = rng.expovariate(1.0 / self.think_s) if self.think_s > 0 else 0.0
        return Arrival(
            finished_at_s + pause, self.name, self.mix.sample(rng), client
        )
