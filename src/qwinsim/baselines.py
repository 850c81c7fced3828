"""Baseline core allocators: static partition, shared strict-priority pool,
congestion-triggered increments, and interval tail feedback.

All of them reuse the backend's transfer mechanics, so core conservation and
the finish-current-request-first handoff hold exactly as they do for the
adaptive allocator; only the decision logic differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    # LC tenant label -> core count; the BE pool keeps the rest.
    counts: dict = field(default_factory=dict)


class StaticAllocator(_PlainLcStep):
    """Fixed partition; cores never move."""

    Params = StaticParams
    reads_estimators = False

    def __init__(self, params: StaticParams, backend):
        self.params = params
        backend.allocator = self
        backend.assign_lc_cores(params.counts)


class PriorityAllocator:
    """One fully shared pool; LC requests always dispatch before BE requests.

    No core is ever owned by an LC tenant, so lc_step is never called."""

    Params = None
    reads_estimators = False

    def __init__(self, _params, backend):
        backend.allocator = self
        backend.pool_tiers.insert(0, [list(backend.lc_tenants), 0])
        for t in backend.lc_tenants:
            t.wake_idle = backend.be_idle


class _PeriodicAllocator(_PlainLcStep):
    """Starts each LC tenant on one core, then every `period` ns applies the
    per-tenant rule `step` to the LC tenants in order."""

    def __init__(self, params, backend):
        self.params = params
        self.backend = backend
        backend.allocator = self
        backend.assign_lc_cores()
        backend.engine.schedule(self.period, EventKind.POLICY_PROBE, self._tick, None)

    def _tick(self, _payload, now):
        for t in self.backend.lc_tenants:
            self.step(t, now)
        self.backend.engine.schedule(now + self.period, EventKind.POLICY_PROBE,
                                     self._tick, None)


@dataclass(frozen=True)
class CongestionParams:
    """Head-of-queue congestion probe (Shenango-style core churn)."""
    probe_interval_ns: int = 100 * US


class CongestionAllocator(_PeriodicAllocator):
    """Every probe interval: if the same request still heads a tenant's queue,
    add one core; if the queue is empty, drop back to one core at once."""

    Params = CongestionParams
    reads_estimators = False

    @property
    def period(self):
        return self.params.probe_interval_ns

    def step(self, t, now):
        queue = t.queue
        if not queue:
            t.last_head_seq = -1
            if t.num > 1:
                self.backend.release_cores(t, t.num - 1, now, "reclaim")
            return
        head_seq = queue[0].seq
        if head_seq == t.last_head_seq:
            self.backend.grant_cores(t, 1, now, "congestion")
        t.last_head_seq = head_seq


@dataclass(frozen=True)
class FeedbackParams:
    """Interval tail feedback (Cake-style proportional share nudging)."""
    interval_ns: int = 1 * SEC
    step: int = 1
    headroom: float = 0.7          # shed a core when tail < headroom * SLO
    min_samples: int = 100         # fewer completions in the interval: hold


class FeedbackAllocator(_PeriodicAllocator):
    """At each interval, compare the previous interval's measured tail with the
    SLO: too slow -> add cores, comfortably fast -> shed one (never below 1)."""

    Params = FeedbackParams
    reads_estimators = False

    @property
    def period(self):
        return self.params.interval_ns

    def step(self, t, now):
        p = self.params
        tm = t.metrics
        n, tail = tm.since_mark(t.slo_q)
        if n >= p.min_samples:
            if tail > t.slo_ns:
                self.backend.grant_cores(t, p.step, now, "feedback_up")
            elif tail < t.slo_ns * p.headroom and t.num > 1:
                self.backend.release_cores(t, min(p.step, t.num - 1), now,
                                           "feedback_down")
        tm.mark()
