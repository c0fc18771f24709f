"""The cluster scheduler: many shard schedulers, one simulated clock.

:class:`ClusterScheduler` multiplexes N :class:`~repro.workload.scheduler.
WorkloadScheduler` instances — one per enclave shard — against a single
global event order.  Each iteration picks the earliest pending event across

* every shard scheduler's internal heap (finishes, wakes, retries),
* the globally sorted open-loop arrival list, and
* the cluster's own control timeline (shard-crash edges, elastic ticks),

breaking same-instant ties exactly like one scheduler would: finishes
before wakes before arrivals, and shard-internal events before new global
arrivals, with the shard id as the final tie-break.  The result is fully
deterministic: serial runs, ``--jobs N`` workers, and cached replays see
the same interleaving byte-for-byte.

Routing places each arrival through the configured router; when the
placed shard differs from the tenant's *natural* (consistent-hash) shard
— load-aware divergence, failover, or a rebalance-storm diversion — the
query's working set must move from its data's home socket, and the
transfer is priced through :meth:`Topology.cross_socket_bytes` (the
calibrated UPI crypto-engine bandwidth model) or, across machines, a
flat 100 GbE link.  The shuffle rides the query's service time, so
off-home placement is visible in latency, not just in a counter.

Shard crashes evict the victim's queued + running queries; with failover
enabled they re-route (keeping their original arrival time, so the lost
attempt stays in their latency), otherwise they fail terminally and new
arrivals routed at the dead shard are shed.  The elastic policy grows and
shrinks the active pool between ``min_shards`` and ``max_shards`` on a
watermark controller, charging EDMM page-add time before a grown shard
serves (see :mod:`repro.cluster.elastic`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.cluster.config import ClusterConfig
from repro.cluster.routing import HashRouter, make_router
from repro.cluster.spec import ShardSpec
from repro.hardware.calibration import CostParameters
from repro.hardware.spec import HardwareSpec
from repro.hardware.topology import Topology
from repro.trace.breakdown import FAILOVER, ROUTE, SCALE
from repro.trace.tracer import current_tracer
from repro.workload.generators import Arrival, ClosedLoopStream, OpenLoopStream
from repro.workload.jobs import JobCost
from repro.workload.metrics import MetricsRegistry, WorkloadMetrics
from repro.workload.scheduler import _ARRIVAL, WorkloadScheduler

#: Cross-machine transfers leave the UPI domain entirely: a flat 100 GbE
#: link (12.5 GB/s) — optimistic for TLS-terminated enclave traffic, but
#: the point is the order-of-magnitude gap to the 67.2 GB/s UPI path.
CROSS_MACHINE_BANDWIDTH_BYTES = 12.5e9

#: Shards take disjoint query-id ranges so cluster-wide merged records
#: never collide; 10M ids per shard is far beyond any simulated run.
QUERY_ID_STRIDE = 10_000_000

# Control events sort before every same-instant scheduler event kind
# (finish=0): a crash at t must evict before a finish at t completes.
_CONTROL = -1
# A global arrival's shard tie-break key: after every real shard id, so a
# shard-internal retry at (t, _ARRIVAL) precedes a new global arrival.
_GLOBAL = 1 << 30

# What one multiplex iteration does: nothing is left, step a shard,
# place the next global arrival, or apply the next control edge.
_IDLE, _STEP_SHARD, _PLACE_ARRIVAL, _RUN_CONTROL = range(4)


@dataclass
class ShardRuntime:
    """One shard's live serving state inside the cluster."""

    spec: ShardSpec
    scheduler: WorkloadScheduler
    active: bool = True  # in the elastic pool
    activates_at_s: float = 0.0  # EDMM growth completes here
    down: bool = False  # inside a crash window
    routed: int = 0  # arrivals placed on this shard

    def routable(self, now: float) -> bool:
        return self.active and not self.down and self.activates_at_s <= now


@dataclass
class ClusterResult:
    """A cluster run's merged metrics plus the routing layer's activity."""

    metrics: WorkloadMetrics  # cluster-wide, merged deterministically
    registry: MetricsRegistry  # per-shard metrics, by shard label
    routed: int = 0
    failovers: int = 0  # queries re-routed off a down shard
    rejected: int = 0  # arrivals shed at a dead shard (no failover)
    diverted: int = 0  # storm diversions off the natural shard
    scale_ups: int = 0
    scale_downs: int = 0
    shuffle_s: float = 0.0  # summed cross-socket/-machine transfer time
    peak_active: int = 0  # most shards simultaneously in the pool

    def describe(self) -> str:
        return (
            f"{self.routed} routed, {self.failovers} failovers, "
            f"{self.rejected} rejected, {self.diverted} diverted, "
            f"{self.scale_ups} up / {self.scale_downs} down "
            f"(peak {self.peak_active} shards), "
            f"shuffle {self.shuffle_s:.2f} s"
        )


class ClusterScheduler:
    """Serves one workload over a shard map of enclave schedulers."""

    def __init__(
        self,
        *,
        cluster: ClusterConfig,
        shards: Sequence[ShardSpec],
        schedulers: Sequence[WorkloadScheduler],
        costs: Dict[str, JobCost],
        spec: HardwareSpec,
        params: CostParameters,
    ) -> None:
        if len(shards) != len(schedulers):
            raise ConfigurationError("one scheduler per shard required")
        if not shards:
            raise ConfigurationError("a cluster needs at least one shard")
        self._cluster = cluster
        self._shards = tuple(shards)
        self._schedulers = tuple(schedulers)
        self._costs = dict(costs)
        self._spec = spec
        self._params = params
        self._topology = Topology(spec)
        self._router = make_router(cluster.routing, shards)
        # The natural (data-home) shard is always the consistent hash,
        # regardless of the serving router: tenant data lives where the
        # ring puts it, and off-home placement pays the shuffle.
        self._home_router = (
            self._router
            if isinstance(self._router, HashRouter)
            else HashRouter(shards)
        )

    # -- transfer pricing -------------------------------------------------

    def _shuffle_s(
        self, home: ShardSpec, target: ShardSpec, cost: JobCost
    ) -> float:
        """Seconds to move the query's working set home -> target."""
        if home.shard_id == target.shard_id:
            return 0.0
        if home.machine != target.machine:
            return cost.working_set_bytes / CROSS_MACHINE_BANDWIDTH_BYTES
        if home.socket == target.socket:
            return 0.0  # same EPC domain; local bandwidth priced elsewhere
        return self._topology.cross_socket_bytes(
            home.home_core(self._spec),
            target.home_core(self._spec),
            cost.working_set_bytes,
            saturated=cost.threads > 1,
            params=self._params,
        )

    # -- the multiplexed loop ---------------------------------------------

    def run(
        self,
        *,
        open_streams: Sequence[OpenLoopStream] = (),
        closed_streams: Sequence[ClosedLoopStream] = (),
        duration_s: float,
    ) -> ClusterResult:
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if not open_streams and not closed_streams:
            raise ConfigurationError("the workload needs at least one stream")
        tracer = current_tracer()
        cluster = self._cluster
        elastic = cluster.elastic

        # Closed-loop streams are *pinned*: a closed client's session
        # state (its RNG, its think-time chain) lives on one shard for
        # the whole run, placed by consistent hash over the initial pool.
        initial_pool = (
            set(range(elastic.min_shards))
            if elastic is not None
            else {s.shard_id for s in self._shards}
        )
        pinned: Dict[int, List[ClosedLoopStream]] = {}
        for stream in closed_streams:
            owner = self._home_router.route(
                stream.name, initial_pool, lambda sid: 0.0
            )
            pinned.setdefault(owner, []).append(stream)

        runtimes: List[ShardRuntime] = []
        for shard, scheduler in zip(self._shards, self._schedulers):
            scheduler.start(
                closed_streams=tuple(pinned.get(shard.shard_id, ())),
                duration_s=duration_s,
            )
            runtimes.append(
                ShardRuntime(
                    spec=shard,
                    scheduler=scheduler,
                    active=shard.shard_id in initial_pool,
                )
            )

        # Open-loop arrivals, globally ordered.  (time, stream) is a total
        # order: stream names are unique and one stream's arrivals never
        # collide (strictly increasing exponential gaps).
        arrivals: List[Arrival] = []
        for stream in open_streams:
            arrivals.extend(stream.arrivals(duration_s))
        arrivals.sort(key=lambda a: (a.time_s, a.stream))

        # The control timeline: crash edges then elastic ticks, ordered.
        controls: List[Tuple[float, int, str, int]] = []
        for time_s, edge, shard_id in cluster.faults.crash_edges():
            if shard_id >= len(runtimes):
                raise ConfigurationError(
                    f"fault plan targets shard {shard_id} but the cluster "
                    f"has {len(runtimes)}"
                )
            controls.append((time_s, 0 if edge == "down" else 1, edge, shard_id))
        if elastic is not None:
            tick = elastic.interval_s
            while tick < duration_s:
                controls.append((tick, 2, "tick", -1))
                tick += elastic.interval_s
        controls.sort(key=lambda c: (c[0], c[1], c[3]))

        result = ClusterResult(
            metrics=None,  # type: ignore[arg-type]  # filled at the end
            registry=MetricsRegistry(),
            peak_active=len(initial_pool),
        )
        route_seq = 0
        arrival_idx = 0
        control_idx = 0

        def load_of(shard_id: int) -> float:
            return runtimes[shard_id].scheduler.load_score

        # The shard pools a placement reads.  They change only when a
        # shard changes state (crash, recovery, elastic growth or shrink,
        # each of which calls ``stale_pools``) or when the clock reaches a
        # grown shard's ``activates_at_s``, so they are rebuilt then rather
        # than for every arrival.  The clock never runs backwards.
        home_pool: Set[int] = set()
        alive_pool: Set[int] = set()
        pools_expire_s = -math.inf
        # Consistent-hash placements read only (key, pool), so they are
        # kept per stream until the pools are rebuilt: the natural home,
        # and the target too when the serving router is the hash ring.
        home_of: Dict[str, int] = {}
        hashed_target_of: Dict[str, int] = {}
        hash_routing = self._router is self._home_router
        storms = cluster.faults.active

        def stale_pools() -> None:
            nonlocal pools_expire_s
            pools_expire_s = -math.inf

        def pools(now: float) -> Tuple[Set[int], Set[int]]:
            """(home, alive): the pool that defines each key's natural home
            (down-ness ignored; every active shard while none has finished
            activating) and the shards that can serve at ``now``."""
            nonlocal home_pool, alive_pool, pools_expire_s
            if now >= pools_expire_s:
                home_pool = {
                    rt.spec.shard_id
                    for rt in runtimes
                    if rt.active and rt.activates_at_s <= now
                } or {rt.spec.shard_id for rt in runtimes if rt.active}
                alive_pool = {
                    rt.spec.shard_id for rt in runtimes if rt.routable(now)
                }
                pools_expire_s = min(
                    (
                        rt.activates_at_s
                        for rt in runtimes
                        if rt.active and rt.activates_at_s > now
                    ),
                    default=math.inf,
                )
                home_of.clear()
                hashed_target_of.clear()
            return home_pool, alive_pool

        def place(arrival: Arrival, now: float) -> None:
            nonlocal route_seq
            nominal, alive = pools(now)
            stream = arrival.stream
            home_id = home_of.get(stream)
            if home_id is None:
                home_id = home_of[stream] = self._home_router.route(
                    stream, nominal, load_of
                )
            diverted = False
            if not alive:
                # Every shard is down: nothing can serve or even shed
                # gracefully — charge the rejection to the natural home.
                runtimes[home_id].scheduler.reject(arrival, now)
                result.rejected += 1
                route_seq += 1
                return
            home_down = runtimes[home_id].down
            if home_down and not cluster.failover:
                # The tenant's shard crashed and nothing re-routes for it.
                runtimes[home_id].scheduler.reject(arrival, now)
                result.rejected += 1
                route_seq += 1
                return
            # Both routers place onto live shards only; the natural home
            # being down makes the placement a failover by definition.
            if not hash_routing:
                target_id = self._router.route(stream, alive, load_of)
            else:
                target_id = hashed_target_of.get(stream)
                if target_id is None:
                    target_id = hashed_target_of[stream] = self._router.route(
                        stream, alive, load_of
                    )
            failover = home_down
            if failover:
                result.failovers += 1
            if storms and cluster.faults.storm_diverts(now, route_seq):
                # A rebalance storm throws the arrival at a hashed other
                # shard, natural or not (the routing table is thrashing).
                candidates = sorted(alive - {target_id}) or sorted(alive)
                pick = self._cluster.faults.seed + route_seq
                target_id = candidates[pick % len(candidates)]
                diverted = True
                result.diverted += 1
            target = runtimes[target_id]
            shuffle = self._shuffle_s(
                self._shards[home_id],
                target.spec,
                self._costs[arrival.template],
            )
            result.shuffle_s += shuffle
            if tracer.enabled:
                attrs = {
                    "stream": arrival.stream,
                    "template": arrival.template,
                    "shard": target.spec.label,
                    "natural": self._shards[home_id].label,
                    "routing": cluster.routing,
                    "shuffle_s": shuffle,
                }
                if failover:
                    attrs["failover"] = True
                if diverted:
                    attrs["diverted"] = True
                tracer.event(ROUTE, attrs, now)
            target.scheduler.submit(arrival, shuffle_s=shuffle)
            target.routed += 1
            result.routed += 1
            route_seq += 1

        def crash(shard_id: int, now: float) -> None:
            rt = runtimes[shard_id]
            rt.down = True
            stale_pools()
            victims = rt.scheduler.evict(now)
            alive = pools(now)[1]
            if tracer.enabled:
                tracer.event(
                    FAILOVER,
                    {
                        "shard": rt.spec.label,
                        "phase": "down",
                        "queries": len(victims),
                        "rerouted": bool(cluster.failover and alive),
                    },
                    time_s=now,
                )
            for pending in victims:
                if cluster.failover and alive:
                    target_id = self._router.route(
                        pending.stream, alive, load_of
                    )
                    target = runtimes[target_id]
                    shuffle = self._shuffle_s(
                        rt.spec, target.spec, self._costs[pending.template]
                    )
                    result.shuffle_s += shuffle
                    target.scheduler.submit(
                        Arrival(
                            now, pending.stream, pending.template,
                            pending.client,
                        ),
                        shuffle_s=shuffle,
                        arrival_s=pending.arrival_s,
                        attempt=pending.attempt,
                    )
                    result.failovers += 1
                else:
                    rt.scheduler.fail_evicted(pending, now)

        def recover(shard_id: int, now: float) -> None:
            rt = runtimes[shard_id]
            rt.down = False
            stale_pools()
            if tracer.enabled:
                tracer.event(
                    FAILOVER,
                    {
                        "shard": rt.spec.label,
                        "phase": "up",
                        "queries": 0,
                        "rerouted": False,
                    },
                    time_s=now,
                )

        def elastic_tick(now: float) -> None:
            pool = [rt for rt in runtimes if rt.active]
            serving = [rt for rt in pool if rt.routable(now)]
            if not serving:
                return
            mean_load = sum(rt.scheduler.load_score for rt in serving) / len(
                serving
            )
            if (
                mean_load > elastic.high_watermark
                and len(pool) < elastic.max_shards
            ):
                grown = next(
                    (rt for rt in runtimes if not rt.active), None
                )
                if grown is None:
                    return
                mean_ws = sum(
                    c.working_set_bytes for c in self._costs.values()
                ) / len(self._costs)
                delay = elastic.activation_delay_s(
                    mean_ws, self._spec, self._params
                )
                grown.active = True
                grown.activates_at_s = now + delay
                stale_pools()
                result.scale_ups += 1
                result.peak_active = max(
                    result.peak_active,
                    sum(1 for rt in runtimes if rt.active),
                )
                if tracer.enabled:
                    tracer.event(
                        SCALE,
                        {
                            "direction": "up",
                            "shard": grown.spec.label,
                            "pool": sum(1 for rt in runtimes if rt.active),
                            "mean_load": mean_load,
                            "activation_delay_s": delay,
                        },
                        time_s=now,
                    )
            elif (
                mean_load < elastic.low_watermark
                and len(pool) > elastic.min_shards
            ):
                shrunk = max(pool, key=lambda rt: rt.spec.shard_id)
                shrunk.active = False
                stale_pools()
                result.scale_downs += 1
                if tracer.enabled:
                    tracer.event(
                        SCALE,
                        {
                            "direction": "down",
                            "shard": shrunk.spec.label,
                            "pool": sum(1 for rt in runtimes if rt.active),
                            "mean_load": mean_load,
                        },
                        time_s=now,
                    )

        # The multiplex: always advance the globally earliest event, keyed
        # (time, kind, tie-break id) — control edges, each shard's heap
        # head (read in place: a (time, kind, seq, payload) tuple), then
        # the next global arrival.  Ties on time compare the rest of the
        # key, exactly like the tuple comparison they stand for.
        heads = [
            (rt.scheduler._events, rt.spec.shard_id, rt.scheduler.step)
            for rt in runtimes
        ]
        while True:
            action = _IDLE
            if control_idx < len(controls):
                control = controls[control_idx]
                best_t, best_k, best_id = control[0], _CONTROL, control[3]
                action = _RUN_CONTROL
            for events, shard_id, step in heads:
                if not events:
                    continue
                head = events[0]
                time_s = head[0]
                if (
                    action == _IDLE
                    or time_s < best_t
                    or (
                        time_s == best_t
                        and (head[1], shard_id) < (best_k, best_id)
                    )
                ):
                    best_t, best_k, best_id = time_s, head[1], shard_id
                    best_step = step
                    action = _STEP_SHARD
            if arrival_idx < len(arrivals):
                arrival = arrivals[arrival_idx]
                time_s = arrival.time_s
                if (
                    action == _IDLE
                    or time_s < best_t
                    or (
                        time_s == best_t
                        and (_ARRIVAL, _GLOBAL) < (best_k, best_id)
                    )
                ):
                    action = _PLACE_ARRIVAL
            if action == _STEP_SHARD:
                best_step()
            elif action == _PLACE_ARRIVAL:
                arrival_idx += 1
                place(arrival, time_s)
            elif action == _RUN_CONTROL:
                control_idx += 1
                time_s, _, edge, shard_id = control
                if edge == "down":
                    crash(shard_id, time_s)
                elif edge == "up":
                    recover(shard_id, time_s)
                else:
                    elastic_tick(time_s)
            else:
                break

        for rt in runtimes:
            result.registry.register(rt.spec.label, rt.scheduler.result())
        result.metrics = result.registry.merged()
        return result
