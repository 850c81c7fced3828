"""The simulated storage backend: tenant queues, worker cores, completion plumbing.

Core ownership model: every core is owned either by one LC tenant or by the
shared BE pool.  Ownership flips are pure accounting and take effect
immediately; a core that is mid-request simply finishes that request first
and only then starts serving its new owner (the completion event is the
natural handoff point).  LC-owned cores are never taken by another tenant's
demand -- they move only when their own tenant shrinks or yields.

The complete-io handler is the simulator's hot path; it is written flat on
purpose and every sub-structure it touches is O(1).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from operator import attrgetter

from .sim_core import REQUEST_ARRIVAL
from .workload import NOT_SCHEDULED

BE = None  # owner sentinel for the shared best-effort pool
BE_LABEL = "be"


class Core:
    __slots__ = ("cid", "owner", "busy", "pending_marks")

    def __init__(self, cid):
        self.cid = cid
        self.owner = BE
        self.busy = None          # Request currently being served
        self.pending_marks = None  # [(from_label, to_label, marked_ns, initiator)]

    def __repr__(self):
        who = self.owner.label if self.owner is not None else BE_LABEL
        return f"<core {self.cid} owner={who} busy={self.busy is not None}>"


class Tenant:
    """Per-tenant state: queue, window bookkeeping, allocation fields.  An LC
    window ends when its members complete, or at its last dequeue if not end_on_complete."""

    __slots__ = ("label", "lc", "slo_q", "slo_ns", "queue", "source",
                 "arrivals", "prev_boundary", "completed_gap",
                 "win", "wcnt", "budget", "policy", "num",
                 "estimator", "log_sample", "metrics", "idle", "wake_idle",
                 "probes_attempted", "end_on_complete", "windows_established",
                 "last_head_seq")

    def __init__(self, label, lc, slo_q=0.999, slo_ns=0, end_on_complete=True):
        self.label = label
        self.lc = lc
        self.slo_q = slo_q
        self.slo_ns = slo_ns
        self.queue = deque()
        self.source = None
        self.arrivals = 0
        self.prev_boundary = 0
        self.completed_gap = 0
        self.win = None
        self.wcnt = 0
        self.budget = 1
        self.policy = None
        self.num = 0
        self.estimator = None
        self.log_sample = None    # LC: the estimator's intake (see add_tenant)
        self.metrics = None
        self.idle = []            # sorted cids of this tenant's parked cores
        self.wake_idle = None     # the parked-core list an arrival wakes from
        self.probes_attempted = 0
        self.end_on_complete = end_on_complete
        self.windows_established = 0
        self.last_head_seq = -1   # congestion-probe baseline state

    def __repr__(self):
        kind = "lc" if self.lc else "be"
        return f"<tenant {self.label} {kind} num={self.num} q={len(self.queue)}>"


class Backend:
    """Wires tenants, cores, and the device together around one engine."""

    def __init__(self, engine, device, pool_total: int, hub):
        self.engine = engine
        self.device = device
        self.hub = hub
        self.pool_total = pool_total
        self.cores = [Core(i) for i in range(pool_total)]
        self.tenants: list[Tenant] = []
        self.lc_tenants: list[Tenant] = []
        self.be_tenants: list[Tenant] = []
        self.be_idle: list[int] = list(range(pool_total))
        self.be_count = pool_total   # cores owned by the BE pool
        # The tenant groups the BE pool serves, in order: [tenants, next index].
        self.pool_tiers: list[list] = [[self.be_tenants, 0]]
        self.allocator = None
        device.on_complete_fn = self._on_io_complete

    @property
    def completed(self) -> int:
        """Requests completed: every request the device started and no longer serves."""
        return self.device.started - self.device.in_service

    # -- construction -------------------------------------------------------

    def add_tenant(self, tenant: Tenant, source, estimator=None):
        tenant.source = source
        # Requests must carry the Tenant object so enqueue and the completion
        # handler reach queue/window/metrics state without a dict lookup.
        source.tenant = tenant
        tenant.estimator = estimator
        tenant.wake_idle = tenant.idle if tenant.lc else self.be_idle
        self.tenants.append(tenant)
        if tenant.lc:
            self.lc_tenants.append(tenant)
        else:
            self.be_tenants.append(tenant)
        tenant.metrics = self.hub.register_tenant(tenant.label, tenant.lc, tenant.slo_q)
        if estimator is not None:
            tenant.log_sample = estimator.log_sample
            if estimator.deferred:   # each metrics fold settles, bounding the log
                tenant.metrics.on_fold = estimator.settle
        return tenant

    def assign_lc_cores(self, counts=None):
        """Hand out the starting cores before the run, in tenant order and cid
        order: `counts[label]` to each LC tenant, or one each; the BE pool
        keeps the rest.  No trace rows, no handoff."""
        cid = 0
        for t in self.lc_tenants:
            n = 1 if counts is None else counts[t.label]
            if cid + n > self.pool_total:
                raise ValueError("more LC tenants than cores in the pool")
            for core in self.cores[cid:cid + n]:
                core.owner = t
            t.idle.extend(range(cid, cid + n))
            t.num = n
            cid += n
        del self.be_idle[:cid]
        self.be_count -= cid

    def start(self):
        """Publish the starting core counts and start every tenant's source.
        Every core starts parked; an arrival wakes one that may serve it."""
        self.hub.start_cores({t.label: t.num for t in self.lc_tenants})
        for t in self.tenants:
            t.source.start(self.engine, self.enqueue)

    # -- enqueue side ---------------------------------------------------------

    def enqueue(self, req, now):
        """Admit a request at its arrival instant (`now` is `req.arrive_at`)."""
        tenant = req.tenant
        tenant.arrivals += 1
        req.seq = tenant.arrivals
        tenant.queue.append(req)
        # Wake one parked core that is allowed to serve this tenant.
        idle = tenant.wake_idle
        if idle:
            core = self.cores[idle.pop(0)]
            self.core_step(core, now)

    # -- dispatch ------------------------------------------------------------

    def core_step(self, core, now):
        """Give an un-parked, not-busy core its next piece of work.  A step
        can move only the core it runs on, and only by yielding it to the BE
        pool (a release never picks a core that is neither busy nor parked)."""
        owner = core.owner
        if owner is BE:
            req = self._be_dequeue()
        else:
            req = self.allocator.lc_step(core, owner, now)
            if req is None:
                if core.owner is owner:
                    insort(owner.idle, core.cid)
                    return
                req = self._be_dequeue()   # the step yielded this core
        if req is None:
            insort(self.be_idle, core.cid)
            return
        # Serve: hand the dequeued request to the device (inline: hot path).
        core.busy = req
        req.core = core
        req.dequeued_at = now
        dev = self.device
        if dev.in_service < dev.capacity:
            dev._start(req, now)
        else:
            dev.fifo.append(req)

    def _be_dequeue(self):
        # The pool's tenant groups in order (under priority the LC group
        # comes first), round-robin among the tenants of each group.
        for tier in self.pool_tiers:
            ts, i = tier
            n = len(ts)
            for _ in range(n):
                t = ts[i]
                i += 1
                if i == n:
                    i = 0
                if t.queue:
                    tier[1] = i
                    return t.queue.popleft()
        return None

    # -- completion side (hot) -------------------------------------------------

    def _on_io_complete(self, req, now):
        # Free the device slot first so the core (or the device FIFO) can
        # overlap the next request with everything below.
        dev = self.device
        dev.in_service -= 1
        if dev.fifo:
            dev._start(dev.fifo.popleft(), now)
        core = req.core
        t = req.tenant
        t.metrics.record(now - req.arrive_at, req.size, now)
        if t.lc:
            t.log_sample(now - req.dequeued_at)
            win = t.win
            seq = req.seq
            if seq > t.prev_boundary:
                t.completed_gap += 1
            elif win is not None and seq >= win.boundary_lo:
                win.outstanding -= 1
                if win.outstanding == 0 and t.end_on_complete:
                    t.win = None
        src = t.source
        if src.closed:
            # The replacement is the completed request, arriving now: draw the
            # op (carried in mu), then the size, and enqueue inline.  The freed
            # core steps below, so wake another only if one is parked.
            op = src.op_const
            if op is None:
                op = src.rng.random() < src.read_ratio
            cum = src.size_cum
            i = 0 if cum is None else bisect_left(cum, src.rng.random())
            req.size = src.size_vals[i]
            req.mu = src.mu_table[op][i]
            req.arrive_at = now
            req.finish_at = NOT_SCHEDULED
            t.arrivals += 1
            req.seq = t.arrivals
            t.queue.append(req)
            idle = t.wake_idle
            if idle:
                other = self.cores[idle.pop(0)]
                self.core_step(other, now)
        else:
            src.on_completion(req)
        core.busy = None
        if core.pending_marks is not None:
            for from_l, to_l, marked, initiator in core.pending_marks:
                self.hub.transfer_rows.append((core.cid, from_l, to_l, marked, now, initiator))
            core.pending_marks = None
        # Step the freed core as core_step does.
        owner = core.owner
        if owner is BE:
            nxt = self._be_dequeue()
        else:
            nxt = self.allocator.lc_step(core, owner, now)
            if nxt is None:
                if core.owner is owner:
                    insort(owner.idle, core.cid)
                    return
                nxt = self._be_dequeue()
        if nxt is None:
            insort(self.be_idle, core.cid)
            return
        core.busy = nxt
        nxt.core = core
        nxt.dequeued_at = now
        if dev.in_service < dev.capacity:
            dev._start(nxt, now)
        else:
            dev.fifo.append(nxt)

    # -- ownership transfers -----------------------------------------------------

    def _flip(self, core, new_owner, now, initiator):
        """Move a core between owners; busy cores hand off at completion."""
        old = core.owner
        core.owner = new_owner
        from_l = BE_LABEL if old is BE else old.label
        to_l = BE_LABEL if new_owner is BE else new_owner.label
        if core.busy is None:
            self.hub.transfer_rows.append((core.cid, from_l, to_l, now, now, initiator))
        elif core.pending_marks is None:
            # Accounting changes now; the physical handoff happens when the
            # in-flight request completes.
            core.pending_marks = [(from_l, to_l, now, initiator)]
        else:
            core.pending_marks.append((from_l, to_l, now, initiator))

    def _flip_cores(self, src, dst, count, now, initiator):
        """Flip `count` of `src`'s cores to `dst`: idle ones first, then busy
        ones, soonest completion first.  Returns the idle cores flipped.
        `src` owns that many idle or busy cores: a grant takes at most the
        pool's, and a release leaves its tenant a core, the one it may be
        stepping on (check_invariants catches a slip)."""
        idle = self.be_idle if src is BE else src.idle
        flipped = []
        while len(flipped) < count and idle:
            core = self.cores[idle.pop(0)]
            self._flip(core, dst, now, initiator)
            flipped.append(core)
        if len(flipped) < count:
            busy = [c for c in self.cores
                    if c.owner is src and c.busy is not None]
            busy.sort(key=attrgetter("busy.finish_at", "cid"))
            for core in busy[:count - len(flipped)]:
                self._flip(core, dst, now, initiator)
        return flipped

    def grant_cores(self, tenant, want: int, now: int, trigger: str) -> int:
        """Move up to `want` BE-pool cores to an LC tenant; returns the grant.
        The alloc row names `trigger`, or `shortfall` if the pool fell short."""
        grant = want if want <= self.be_count else self.be_count
        if grant <= 0:
            return 0
        wake = self._flip_cores(BE, tenant, grant, now, tenant.label)
        self.be_count -= grant
        old = tenant.num
        tenant.num = old + grant
        # Granted idle cores go to work for their new owner immediately; the
        # row follows any rows their first steps write.
        for core in wake:
            self.core_step(core, now)
        self.hub.alloc_rows.append((now, tenant.label, old, old + grant,
                                    trigger if grant == want else "shortfall"))
        return grant

    def release_cores(self, tenant, count: int, now: int, trigger: str) -> int:
        """Return `count` of tenant's cores to the BE pool (idle first); the
        alloc row names `trigger`."""
        redispatch = self._flip_cores(tenant, BE, count, now, tenant.label)
        old = tenant.num
        tenant.num = old - count
        self.be_count += count
        for core in redispatch:
            self.core_step(core, now)
        self.hub.alloc_rows.append((now, tenant.label, old, tenant.num, trigger))
        return count

    def yield_core(self, core, tenant, now):
        """Voluntary single-core yield by the core's own tenant (hot-ish)."""
        old = tenant.num
        tenant.num = old - 1
        self.be_count += 1
        # Never busy (only a core with no request is stepped): the row is written now.
        self._flip(core, BE, now, tenant.label)
        self.hub.alloc_rows.append((now, tenant.label, old, old - 1, "yield"))

    # -- invariants (used by tests and --validate paths) -------------------------

    def check_invariants(self):
        """Raise AssertionError if core ownership, the parked-core lists, the
        alloc trace or a tenant's requests are inconsistent, or a core is
        parked beside work it may serve; explicit raises, so `python -O`
        checks too."""
        def need(ok, msg):
            if not ok:
                raise AssertionError(msg)

        owned = sum(t.num for t in self.tenants if t.lc)
        need(owned + self.be_count == self.pool_total,
             f"core conservation broken: {owned} LC + {self.be_count} BE != {self.pool_total}")
        by_owner = {}
        not_busy = {}
        for c in self.cores:
            by_owner[id(c.owner)] = by_owner.get(id(c.owner), 0) + 1
            if c.busy is None:
                not_busy.setdefault(id(c.owner), []).append(c.cid)
        for t in self.lc_tenants:
            if t.wake_idle is t.idle:   # not served by the BE pool
                need(t.num >= 1, f"{t.label} dropped below 1 core")
                need(by_owner.get(id(t), 0) == t.num,
                     f"{t.label}.num={t.num} but owns {by_owner.get(id(t), 0)} cores")
        need(by_owner.get(id(BE), 0) == self.be_count,
             f"BE pool count {self.be_count} but it owns {by_owner.get(id(BE), 0)} cores")
        # Each owner's parked list is exactly its non-busy cores, in cid
        # order, and no core stays parked while a queue it may serve holds a
        # request.
        pooled = [t for ts, _ in self.pool_tiers for t in ts]
        for label, owner, parked, serves in (
                (BE_LABEL, BE, self.be_idle, pooled),
                *((t.label, t, t.idle, (t,)) for t in self.lc_tenants)):
            want = not_busy.get(id(owner), [])
            need(parked == want,
                 f"{label} parks cores {parked} but its non-busy cores are {want}")
            for t in serves:
                need(not (parked and t.queue),
                     f"{label} parks cores {parked} while {t.label} queues "
                     f"{len(t.queue)} requests")
        replayed = self.hub.lc_cores()   # mean_cores is integrated from the alloc rows
        for t in self.lc_tenants:
            need(replayed[t.label] == t.num,
                 f"{t.label}.num={t.num} but its alloc rows replay to {replayed[t.label]}")
        # Each request a source made and has not retired is queued, on a core
        # (in service or in the device FIFO) or yet to arrive, so none was
        # lost or duplicated; a closed loop made no more than its cap.
        held = [c.busy.tenant for c in self.cores if c.busy is not None]
        held += [ev[3].tenant for ev in self.engine._heap if ev[2] == REQUEST_ARRIVAL]
        for t in self.tenants:
            src = t.source
            n = len(t.queue) + held.count(t)
            need(n == src.in_flight,
                 f"{t.label} holds {n} requests but its source has {src.in_flight} in flight")
            need(not src.closed or src.in_flight <= src.spec.in_flight_cap,
                 f"{t.label} has {src.in_flight} in flight, over its cap {src.spec.in_flight_cap}")
