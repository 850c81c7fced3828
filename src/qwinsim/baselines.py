"""Baseline core allocators: static partition, shared strict-priority pool,
congestion-triggered increments, and interval tail feedback.

All of them reuse the backend's transfer mechanics, so core conservation and
the finish-current-request-first handoff hold exactly as they do for the
adaptive allocator; only the decision logic differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import quantile_from_counts
from .sim_core import EventKind, SEC, US


class _PlainLcStep:
    """Shared LC-core behaviour for baselines: FIFO dequeue, no windows, no yield."""

    def lc_step(self, core, t, now):
        queue = t.queue
        if queue:
            return queue.popleft()
        return None


@dataclass(frozen=True)
class StaticParams:
    # label -> core count; may include "be" for the leftover pool explicitly.
    counts: dict = field(default_factory=dict)

    def validate(self, pool_total: int, lc_labels: list):
        counts = dict(self.counts)
        be = counts.pop("be", None)
        unknown = set(counts) - set(lc_labels)
        if unknown:
            raise ValueError(f"static counts name unknown LC tenants: {sorted(unknown)}")
        missing = set(lc_labels) - set(counts)
        if missing:
            raise ValueError(f"static counts missing LC tenants: {sorted(missing)}")
        for label, n in counts.items():
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"static count for {label} must be an integer >= 1")
        lc_sum = sum(counts.values())
        if be is None:
            be = pool_total - lc_sum
            if be < 0:
                raise ValueError(
                    f"static counts sum to {lc_sum} > pool total {pool_total}")
        else:
            if not isinstance(be, int) or be < 0:
                raise ValueError("static 'be' count must be an integer >= 0")
            if lc_sum + be != pool_total:
                raise ValueError(
                    f"static counts sum to {lc_sum}+{be} != pool total {pool_total}")
        return counts, be


class StaticAllocator(_PlainLcStep):
    """Fixed partition; cores never move."""

    name = "static"
    per_tenant_cores = True

    def __init__(self, params: StaticParams):
        self.params = params

    def setup(self, backend):
        counts, _be = self.params.validate(
            backend.pool_total, [t.label for t in backend.lc_tenants])
        cid = 0
        for t in backend.lc_tenants:
            for _ in range(counts[t.label]):
                backend.assign_core(backend.cores[cid], t)
                cid += 1


class PriorityAllocator:
    """One fully shared pool; LC requests always dispatch before BE requests."""

    name = "priority"
    per_tenant_cores = False

    def setup(self, backend):
        backend.pool_serves_lc = True

    def lc_step(self, core, t, now):  # pragma: no cover - no LC-owned cores exist
        raise RuntimeError("priority allocator runs every core out of the shared pool")


@dataclass(frozen=True)
class CongestionParams:
    """Head-of-queue congestion probe (Shenango-style core churn)."""
    probe_interval_ns: int = 100 * US

    def validate(self):
        if self.probe_interval_ns < 1:
            raise ValueError("probe_interval_ns must be >= 1")


class CongestionAllocator(_PlainLcStep):
    """Every probe interval: if the same request still heads a tenant's queue,
    add one core; if the queue is empty, drop back to one core at once."""

    name = "shenango"
    per_tenant_cores = True

    def __init__(self, params: CongestionParams | None = None):
        self.params = params or CongestionParams()
        self.params.validate()
        self.backend = None

    def setup(self, backend):
        self.backend = backend
        backend.assign_lc_cores()
        backend.engine.schedule(self.params.probe_interval_ns,
                                EventKind.POLICY_PROBE, self._probe, None)

    def _probe(self, _payload, now):
        backend = self.backend
        hub = backend.hub
        for t in backend.lc_tenants:
            queue = t.queue
            if not queue:
                t.last_head_seq = -1
                if t.num > 1:
                    old = t.num
                    backend.release_cores(t, old - 1, now, t.label)
                    hub.alloc_event(now, t.label, old, t.num, "reclaim")
                continue
            head_seq = queue[0].seq
            if head_seq == t.last_head_seq:
                old = t.num
                got = backend.grant_cores(t, 1, now, t.label)
                if got:
                    hub.alloc_event(now, t.label, old, t.num, "congestion")
            t.last_head_seq = head_seq
        backend.engine.schedule(now + self.params.probe_interval_ns,
                                EventKind.POLICY_PROBE, self._probe, None)


@dataclass(frozen=True)
class FeedbackParams:
    """Interval tail feedback (Cake-style proportional share nudging)."""
    interval_ns: int = 1 * SEC
    step: int = 1
    headroom: float = 0.7          # shed a core when tail < headroom * SLO
    min_samples: int = 100         # fewer completions in the interval: hold

    def validate(self):
        if self.interval_ns < 1:
            raise ValueError("interval_ns must be >= 1")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if not 0 < self.headroom <= 1:
            raise ValueError("headroom must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


class FeedbackAllocator(_PlainLcStep):
    """At each interval, compare the previous interval's measured tail with the
    SLO: too slow -> add cores, comfortably fast -> shed one (never below 1)."""

    name = "cake"
    per_tenant_cores = True

    def __init__(self, params: FeedbackParams | None = None):
        self.params = params or FeedbackParams()
        self.params.validate()
        self.backend = None

    def setup(self, backend):
        self.backend = backend
        backend.assign_lc_cores()
        backend.engine.schedule(self.params.interval_ns,
                                EventKind.POLICY_PROBE, self._tick, None)

    def _tick(self, _payload, now):
        backend = self.backend
        hub = backend.hub
        step = self.params.step
        for t in backend.lc_tenants:
            n = t.probe_n
            if n >= self.params.min_samples:
                tail = quantile_from_counts(t.probe_counts, n, t.slo_q)
                old = t.num
                if tail > t.slo_ns:
                    got = backend.grant_cores(t, step, now, t.label)
                    if got:
                        hub.alloc_event(now, t.label, old, t.num, "feedback_up")
                elif tail < t.slo_ns * self.params.headroom and old > 1:
                    drop = min(step, old - 1)
                    backend.release_cores(t, drop, now, t.label)
                    hub.alloc_event(now, t.label, old, t.num, "feedback_down")
            t.reset_probe_hist()
        backend.engine.schedule(now + self.params.interval_ns,
                                EventKind.POLICY_PROBE, self._tick, None)
