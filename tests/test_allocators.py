"""Allocator behaviours: adaptive policy machinery, transfers, and baselines."""

import math
from bisect import insort

import pytest

from qwinsim import (AGGRESSIVE, CONSERVATIVE, SLO_AWARE,
                     Backend, CongestionAllocator, CongestionParams, Device,
                     DeviceParams, Engine, FeedbackAllocator, FeedbackParams,
                     MetricsHub, PolicyParams, QwinAllocator, StaticAllocator,
                     StaticParams, Tenant, WorkloadSpec, WorkloadSource,
                     calculate_cores, compute_budget, make_np_stream,
                     make_stream, select_policy)
from qwinsim import new_window
from qwinsim.backend import BE
from qwinsim.config import parse_config, scenario
from qwinsim.harness import run_experiment
from qwinsim.sim_core import MS, SEC, US
from qwinsim.workload import Request


def _by_label(backend):
    return {t.label: t for t in backend.tenants}


def _fill(t, n, now=0):
    """Stamp n ready-to-dequeue 4 KiB reads straight into a tenant's queue,
    counted as its source's; their mu is that of the rig's default device
    medians."""
    mu = math.log(DeviceParams().median_ns(True, 4096))
    for _ in range(n):
        r = Request(t, 4096, arrive_at=now, mu=mu)
        t.arrivals += 1
        r.seq = t.arrivals
        t.queue.append(r)
        t.source.in_flight += 1


def _feed(t, latency_ns, count, now=0):
    """Record `count` completions of `latency_ns` in a tenant's metrics."""
    for _ in range(count):
        t.metrics.record(latency_ns, 4096, now)


def _since_mark(t):
    return t.metrics.since_mark(t.slo_q)[0]


# ---------------------------------------------------------------------------
# Policy selection
# ---------------------------------------------------------------------------


def test_policy_regions_at_default_thresholds():
    p = PolicyParams()
    assert select_policy(1_000_001, p) == CONSERVATIVE
    assert select_policy(5_000_000, p) == CONSERVATIVE
    assert select_policy(1_000_000, p) == SLO_AWARE     # boundary stays slo_aware
    assert select_policy(650_000, p) == SLO_AWARE
    assert select_policy(300_000, p) == SLO_AWARE       # boundary stays slo_aware
    assert select_policy(299_999, p) == AGGRESSIVE
    assert select_policy(0, p) == AGGRESSIVE
    assert select_policy(-2_000_000, p) == AGGRESSIVE


def test_policy_regions_with_custom_thresholds():
    p = PolicyParams(slack_low_ns=100 * US, slack_high_ns=2 * MS)
    assert select_policy(2 * MS + 1, p) == CONSERVATIVE
    assert select_policy(150 * US, p) == SLO_AWARE
    assert select_policy(99 * US, p) == AGGRESSIVE


# ---------------------------------------------------------------------------
# Mini simulation rig
# ---------------------------------------------------------------------------


def _rig(pool=4, allocator=QwinAllocator, section=None, device=None,
         tenants=(("lc0", True, 4 * MS), ("be0", False, 0)),
         workloads=None, seed=7, warmup=0):
    """A backend with `tenants`, and `allocator` built on it from `section`
    (by default its Params' defaults)."""
    eng = Engine()
    dev = Device(device or DeviceParams(capacity=4),
                 make_np_stream(seed, 0), eng)
    hub = MetricsHub("rig", warmup_ns=warmup, pool_total=pool)
    backend = Backend(eng, dev, pool, hub)
    for i, (label, lc, slo) in enumerate(tenants):
        spec = (workloads or {}).get(
            label, WorkloadSpec(iodepth=8, numjobs=1,
                                sizes=((4096, 1.0),) if lc else ((65536, 1.0),)))
        src = WorkloadSource(spec, make_stream(seed, 1 + i), dev.params)
        t = Tenant(label, lc, slo_ns=slo) if lc else Tenant(label, False)
        est = None
        if lc:
            from qwinsim import ServiceEstimator
            est = ServiceEstimator(nominal_mean_ns=106_600.0, nominal_tail_ns=260_000)
        backend.add_tenant(t, src, est)
    if section is None and allocator.Params:
        section = allocator.Params()
    alloc = allocator(section, backend)
    # publish initial core counts so transfers can be accounted before (or
    # without) backend.start(); start() re-publishes the same values at t=0
    hub.start_cores({t.label: t.num for t in backend.lc_tenants})
    return eng, backend, hub, alloc


# The allocators that start every LC tenant on one core and move cores later.
ONE_CORE_START = {"qwin": QwinAllocator, "shenango": CongestionAllocator,
                  "cake": FeedbackAllocator}


def test_setup_gives_each_lc_tenant_one_core():
    for kind, make in ONE_CORE_START.items():
        eng, backend, hub, alloc = _rig(
            allocator=make,
            tenants=(("lc0", True, 4 * MS), ("lc1", True, 5 * MS), ("be0", False, 0)))
        lc0, lc1 = _by_label(backend)["lc0"], _by_label(backend)["lc1"]
        assert lc0.num == lc1.num == 1, kind
        assert backend.be_count == 2
        assert backend.cores[0].owner is lc0 and backend.cores[1].owner is lc1
        backend.check_invariants()


@pytest.mark.parametrize("kind", sorted(ONE_CORE_START))
def test_setup_rejects_more_lc_tenants_than_cores(kind):
    with pytest.raises(ValueError, match="more LC tenants than cores"):
        _rig(pool=2, allocator=ONE_CORE_START[kind],
             tenants=tuple((f"lc{i}", True, 4 * MS) for i in range(3)))


def test_adjust_grow_and_shrink_arithmetic():
    eng, backend, hub, alloc = _rig()
    lc = _by_label(backend)["lc0"]
    # queued work plus an active window: granted cores go straight to serving
    # instead of re-planning (or yielding back out of an empty queue)
    _fill(lc, 8)
    new_window(lc, 0)
    alloc.adjust_cores(lc, 3, 0, "window_start")
    assert lc.num == 3 and backend.be_count == 1
    assert list(hub.alloc_rows)[-1] == (0, "lc0", 1, 3, "window_start")
    alloc.adjust_cores(lc, 1, 0, "window_start")
    assert lc.num == 1 and backend.be_count == 3
    assert list(hub.alloc_rows)[-1] == (0, "lc0", 3, 1, "window_start")
    # conservation after every move
    backend.check_invariants()


def test_adjust_beyond_pool_records_shortfall():
    eng, backend, hub, alloc = _rig(pool=4)
    lc = _by_label(backend)["lc0"]
    _fill(lc, 8)
    new_window(lc, 0)
    # the pool only has 3 spare cores; asking for 8 total falls short
    alloc.adjust_cores(lc, 8, 0, "probe")
    assert lc.num == 4                       # everything the pool had
    assert list(hub.alloc_rows)[-1][4] == "shortfall"
    # _fill wakes no core: step the parked one as an arrival would
    backend.core_step(backend.cores[lc.idle.pop(0)], 0)
    assert len(lc.queue) == 4
    backend.check_invariants()


def test_adjust_noop_emits_no_row():
    eng, backend, hub, alloc = _rig()
    lc = _by_label(backend)["lc0"]
    before = len(hub.alloc_rows)
    alloc.adjust_cores(lc, lc.num, 0, "probe")
    assert len(hub.alloc_rows) == before


# ---------------------------------------------------------------------------
# Grants and releases write their own alloc rows
# ---------------------------------------------------------------------------


def test_short_baseline_grant_is_written_as_shortfall():
    # cake asks for 2 cores at a violation; the pool has only 1 spare
    eng, backend, hub, alloc = _rig(
        pool=2, allocator=FeedbackAllocator, section=FeedbackParams(step=2, min_samples=10))
    lc = _by_label(backend)["lc0"]
    _feed(lc, 10 * MS, 50)
    alloc._tick(None, 100 * US)
    assert list(hub.alloc_rows) == [(100 * US, "lc0", 1, 2, "shortfall")]
    backend.check_invariants()


def test_grant_on_an_empty_pool_writes_no_row():
    eng, backend, hub, alloc = _rig(pool=1)
    lc = _by_label(backend)["lc0"]
    assert backend.be_count == 0
    assert backend.grant_cores(lc, 1, 0, "probe") == 0
    assert lc.num == 1 and not hub.alloc_rows


def test_release_writes_old_and_new_count_with_the_callers_trigger():
    eng, backend, hub, alloc = _rig(pool=4)
    lc = _by_label(backend)["lc0"]
    # queued work and an active window keep the granted cores from yielding
    _fill(lc, 8)
    new_window(lc, 0)
    assert backend.grant_cores(lc, 2, 0, "window_start") == 2
    assert backend.release_cores(lc, 1, 5, "reclaim") == 1
    assert list(hub.alloc_rows) == [(0, "lc0", 1, 3, "window_start"),
                                    (5, "lc0", 3, lc.num, "reclaim")]
    assert lc.num == 2
    backend.check_invariants()


def test_core_step_serves_the_be_pool_on_a_core_its_own_step_yields():
    # lc0 holds two cores: core 0 parked, and BE core 1, granted while busy,
    # finishing its BE request.  Its queue is empty and it has no window, and
    # a BE request waits while every pool core is busy.
    eng, backend, hub, alloc = _rig(pool=3)
    lc, be0 = _by_label(backend)["lc0"], _by_label(backend)["be0"]
    _fill(be0, 3)
    for _ in range(2):
        backend.core_step(backend.cores[backend.be_idle.pop(0)], 0)
    assert backend.grant_cores(lc, 1, 0, "probe") == 1
    assert lc.idle == [0] and not backend.be_idle and len(be0.queue) == 1
    backend.check_invariants()
    core = backend.cores[lc.idle.pop(0)]
    backend.core_step(core, 0)
    assert core.owner is BE and core.busy.tenant is be0 and not be0.queue
    assert lc.num == 1 and backend.be_count == 2
    assert [r for r in hub.alloc_rows if r[4] == "yield"] == [(0, "lc0", 2, 1, "yield")]
    backend.check_invariants()


def test_a_run_whose_probe_rows_are_lost_fails_at_the_end(monkeypatch):
    # The end-of-run check replays the alloc trace: a count change that
    # skips its row fails the run instead of skewing mean_cores.
    init = MetricsHub.__init__

    def lossy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        keep = self.alloc_rows.append   # drops every probe row appended
        self.alloc_rows.append = lambda row: row[4] == "probe" or keep(row)

    monkeypatch.setattr(MetricsHub, "__init__", lossy_init)
    cfg = parse_config({**scenario("duo"), "duration_s": 0.1, "warmup_s": 0.0})
    with pytest.raises(AssertionError, match="lc0.num=.* but its alloc rows replay to"):
        run_experiment(cfg, write=False)


@pytest.mark.parametrize("fault", ["parked cid dropped", "busy cid parked"])
def test_check_invariants_catches_a_parked_list_out_of_step(fault):
    # Waking a core removes its cid from its owner's parked list without a
    # guard, so every non-busy core must be parked there, and only those.
    eng, backend, hub, alloc = _rig(pool=4)
    be0 = _by_label(backend)["be0"]
    backend.enqueue(be0.source.make_request(0), 0)   # wakes BE core 1
    backend.check_invariants()
    lc = _by_label(backend)["lc0"]
    if fault == "parked cid dropped":
        lc.idle.remove(0)
        match = r"lc0 parks cores \[\] but its non-busy cores are \[0\]"
    else:
        insort(backend.be_idle, 1)
        match = r"be parks cores \[1, 2, 3\] but its non-busy cores are \[2, 3\]"
    with pytest.raises(AssertionError, match=match):
        backend.check_invariants()


@pytest.mark.parametrize("kind, queued, match", [
    ("qwin", "lc0", r"lc0 parks cores \[0\] while lc0 queues 1 requests"),
    ("qwin", "be0", r"be parks cores \[1, 2, 3\] while be0 queues 1 requests"),
    ("priority", "lc0", r"be parks cores \[0, 1, 2, 3\] while lc0 queues 1 requests"),
], ids=["lc core", "be core", "priority pool"])
def test_check_invariants_catches_a_core_parked_beside_work(kind, queued, match):
    # An arrival wakes a parked core that may serve it, so no core stays
    # parked while such a queue holds a request; _fill wakes none.
    from qwinsim import PriorityAllocator
    eng, backend, hub, alloc = _rig(
        pool=4, allocator=PriorityAllocator if kind == "priority" else QwinAllocator)
    backend.check_invariants()
    _fill(_by_label(backend)[queued], 1)
    with pytest.raises(AssertionError, match=match):
        backend.check_invariants()


@pytest.mark.parametrize("fault", ["dropped", "duplicated"])
def test_check_invariants_catches_a_lost_or_duplicated_request(fault):
    # Each closed loop keeps its whole population, queued or on a core.
    eng, backend, hub, alloc = _rig(pool=4)
    backend.start()
    eng.run_until(10 * MS)
    backend.check_invariants()
    lc = _by_label(backend)["lc0"]
    assert lc.source.in_flight == lc.source.spec.in_flight_cap == 8
    assert len(lc.queue) == 7
    if fault == "dropped":
        lc.queue.pop()
        match = "lc0 holds 7 requests but its source has 8 in flight"
    else:
        lc.queue.append(lc.queue[0])
        match = "lc0 holds 9 requests but its source has 8 in flight"
    with pytest.raises(AssertionError, match=match):
        backend.check_invariants()


def test_budget_for_policy_per_policy():
    eng, backend, hub, alloc = _rig()
    lc = _by_label(backend)["lc0"]
    _fill(lc, 1)
    win = new_window(lc, 0)           # its head arrived now: no wait
    assert win.tw == 0
    lc.policy = CONSERVATIVE
    assert alloc._budget_for_policy(lc, win) == 0
    lc.policy = AGGRESSIVE
    assert alloc._budget_for_policy(lc, win) == 1
    lc.policy = SLO_AWARE
    want = compute_budget(lc.slo_ns, lc.estimator.tail_ns, 0, lc.estimator.mean_ns)
    assert alloc._budget_for_policy(lc, win) == want


def test_refresh_policy_needs_samples_and_keeps_hist():
    eng, backend, hub, alloc = _rig()
    lc = _by_label(backend)["lc0"]
    lc.policy = AGGRESSIVE
    _feed(lc, 100_000, 500)   # below min_tail_samples
    alloc._refresh_policy(lc, 0)
    assert lc.policy == AGGRESSIVE               # kept
    assert _since_mark(lc) == 500                # histogram not thrown away


def test_refresh_policy_switches_on_measured_slack():
    eng, backend, hub, alloc = _rig()
    lc = _by_label(backend)["lc0"]                 # slo 4ms
    lc.policy = AGGRESSIVE
    # measured tail ~1ms -> slack ~3ms > 1ms threshold -> conservative
    _feed(lc, 1 * MS, 2_000)
    alloc._refresh_policy(lc, 123)
    assert lc.policy == CONSERVATIVE
    assert _since_mark(lc) == 0                  # consumed and reset
    assert list(hub.policy_rows)[-1][:4] == (123, "lc0", "aggressive", "conservative")
    # measured tail just under the SLO -> slack tiny -> aggressive
    _feed(lc, lc.slo_ns - 10_000, 2_000)
    alloc._refresh_policy(lc, 456)
    assert lc.policy == AGGRESSIVE
    # measured tail leaves mid slack -> slo_aware
    mid = lc.slo_ns - 600_000                    # slack ~600us between thresholds
    _feed(lc, mid, 2_000)
    alloc._refresh_policy(lc, 789)
    assert lc.policy == SLO_AWARE


def test_pinned_policy_never_refreshes():
    eng, backend, hub, alloc = _rig(section=PolicyParams(pin=AGGRESSIVE))
    lc = _by_label(backend)["lc0"]
    assert lc.policy == AGGRESSIVE
    _feed(lc, 1 * MS, 5_000)
    alloc._refresh_policy(lc, 0)
    assert lc.policy == AGGRESSIVE
    assert _since_mark(lc) == 5_000              # untouched


def test_budget_one_probe_grows_to_the_live_queue_demand():
    # pool 8, so the BE pool has 7 parked cores a probe can take at once
    eng, backend, hub, alloc = _rig(pool=8)
    lc = _by_label(backend)["lc0"]
    assert lc.policy == AGGRESSIVE and lc.budget == 1
    _fill(lc, 1)
    new_window(lc, 0)                 # a one-request window: demand 1
    _fill(lc, 3, now=1_000)           # the next window's arrivals pile up
    now = 3_641_000
    est = lc.estimator
    # The probe runs after the dequeue, over the 3 requests still queued,
    # whose head has waited 3.64ms: slack = 4ms - 260us - 3.64ms = 100us,
    # and ceil(3 * 106.6us / 100us) = 4 (2 or 4 queued would give 3 or 5).
    want = calculate_cores(3, now - 1_000, lc.slo_ns, est.tail_ns, est.mean_ns, 8)
    assert want == 4
    req = alloc.lc_step(backend.cores[0], lc, now)
    assert req.seq == 1
    assert lc.num == want
    # the granted cores dequeue and probe at once, over a shorter queue, so
    # only the first probe grows
    assert [r for r in hub.alloc_rows if r[4] == "probe"] == [
        (now, "lc0", 1, want, "probe")]
    lc.source.in_flight -= 1          # req was dequeued onto no core: retire it
    backend.check_invariants()


def test_tenants_start_aggressive():
    eng, backend, hub, alloc = _rig()
    assert _by_label(backend)["lc0"].policy == AGGRESSIVE


# ---------------------------------------------------------------------------
# End-to-end adaptive behaviour on a short run
# ---------------------------------------------------------------------------


def test_short_run_probes_never_shrink_and_conservation_holds():
    eng, backend, hub, alloc = _rig(
        workloads={"lc0": WorkloadSpec(iodepth=32, numjobs=4)})
    backend.start()
    eng.run_until(2 * SEC)
    backend.check_invariants()
    assert backend.completed > 10_000
    nums = {"lc0": 1}
    for now, label, old, new, trigger in hub.alloc_rows:
        assert nums[label] == old                # continuity
        if trigger == "probe":
            assert new > old                     # probes only grow
        nums[label] = new
        assert 1 <= new <= backend.pool_total


def test_short_run_emits_windows_with_contiguous_wids():
    eng, backend, hub, alloc = _rig()
    backend.start()
    eng.run_until(SEC)
    wids = [row[1] for row in hub.window_rows if row[0] == "lc0"]
    assert wids and wids[0] == 1
    assert wids == list(range(1, len(wids) + 1))
    # ql recorded at establishment is always >= 1
    assert all(row[2] >= 1 for row in hub.window_rows)


def test_busy_core_transfers_defer_to_their_completion():
    """A granted busy core hands off exactly when its in-flight IO completes."""
    eng, backend, hub, alloc = _rig(pool=3)
    # wrap the completion callback to know which core completes at what time
    completions = []
    orig = backend.device.on_complete_fn

    def spy(req, now):
        completions.append((req.core.cid, now))
        orig(req, now)

    backend.device.on_complete_fn = spy
    backend.start()
    eng.run_until(2 * SEC)
    deferred = [r for r in hub.transfer_rows if r[4] > r[3]]
    assert deferred, "expected at least one busy-core handoff in 2 simulated seconds"
    comp = set(completions)
    for cid, frm, to, marked, eff, initiator in deferred:
        assert (cid, eff) in comp, "handoff must coincide with that core's completion"


def test_idle_core_transfers_are_instant():
    # keep the BE pool idle so grants come from parked cores
    eng, backend, hub, alloc = _rig(
        workloads={"lc0": WorkloadSpec(iodepth=32, numjobs=4),
                   "be0": WorkloadSpec(iodepth=1, numjobs=1,
                                       sizes=((65536, 1.0),))})
    backend.start()
    eng.run_until(SEC)
    instant = [r for r in hub.transfer_rows if r[4] == r[3]]
    assert instant                                # idle grants/yields exist
    for row in hub.transfer_rows:
        assert row[4] >= row[3]                   # never effective before marked


def test_lc_cores_move_only_voluntarily():
    eng, backend, hub, alloc = _rig(
        workloads={"lc0": WorkloadSpec(iodepth=32, numjobs=4)})
    backend.start()
    eng.run_until(2 * SEC)
    for cid, frm, to, marked, eff, initiator in hub.transfer_rows:
        if frm == "lc0":
            assert to == "be"                     # LC cores only return to the pool
            assert initiator == "lc0"             # and only the owner lets go
        if to == "lc0":
            assert frm == "be"                    # grants come from the pool only


# ---------------------------------------------------------------------------
# Static allocator
# ---------------------------------------------------------------------------


def test_static_partition_never_moves():
    eng, backend, hub, alloc = _rig(
        allocator=StaticAllocator, section=StaticParams({"lc0": 2}))
    lc = _by_label(backend)["lc0"]
    assert lc.num == 2 and backend.be_count == 2
    backend.start()
    eng.run_until(SEC)
    assert lc.num == 2 and backend.be_count == 2
    assert not hub.alloc_rows and not hub.transfer_rows


# ---------------------------------------------------------------------------
# Congestion (head-probe) allocator
# ---------------------------------------------------------------------------


def test_congestion_probe_grows_on_stuck_head_and_reclaims_when_empty():
    # no BE tenant: the LC queue can actually drain on the slow device
    eng, backend, hub, alloc = _rig(
        allocator=CongestionAllocator, section=CongestionParams(probe_interval_ns=50 * US),
        device=DeviceParams(capacity=1, read_median_us=10_000.0, sigma=0.0,
                            p_spike=0.0),
        tenants=(("lc0", True, 4 * MS),),
        workloads={"lc0": WorkloadSpec(iodepth=4, numjobs=1)})
    lc = _by_label(backend)["lc0"]
    backend.start()
    # 10ms service on a capacity-1 device: the head stays stuck; probes every
    # 50us escalate one core at a time to the whole pool, then the drained
    # queue hands everything back at once.  The cycle repeats per completion.
    eng.run_until(60 * MS)
    grows = [r for r in hub.alloc_rows if r[4] == "congestion"]
    reclaims = [r for r in hub.alloc_rows if r[4] == "reclaim"]
    assert grows and all(new == old + 1 for _, _, old, new, _ in grows)
    assert max(r[3] for r in grows) == backend.pool_total
    # second probe on the same stuck head already grows: within a few ticks
    assert grows[0][0] <= 10 * 50 * US
    assert reclaims and all(r[3] == 1 for r in reclaims)


# ---------------------------------------------------------------------------
# Interval-feedback allocator
# ---------------------------------------------------------------------------


def _feedback_rig(interval_us=100):
    return _rig(
        allocator=FeedbackAllocator,
        section=FeedbackParams(interval_ns=interval_us * US, min_samples=10),
        device=DeviceParams(capacity=4, sigma=0.0, p_spike=0.0))


def test_feedback_scales_up_on_violation_and_down_with_headroom():
    eng, backend, hub, alloc = _feedback_rig()
    lc = _by_label(backend)["lc0"]
    # synthetic: violation in the first interval
    _feed(lc, 10 * MS, 50)
    alloc._tick(None, 100 * US)
    assert lc.num == 2
    assert list(hub.alloc_rows)[-1][4] == "feedback_up"
    assert _since_mark(lc) == 0                   # feedback resets each interval
    # comfortable tail -> shed one
    _feed(lc, 100_000, 50)
    alloc._tick(None, 200 * US)
    assert lc.num == 1
    assert list(hub.alloc_rows)[-1][4] == "feedback_down"
    # never below one core
    _feed(lc, 100_000, 50)
    alloc._tick(None, 300 * US)
    assert lc.num == 1


def test_feedback_holds_without_enough_samples():
    eng, backend, hub, alloc = _feedback_rig()
    lc = _by_label(backend)["lc0"]
    _feed(lc, 10 * MS, 5)       # under min_samples
    alloc._tick(None, 100 * US)
    assert lc.num == 1 and not hub.alloc_rows
    assert _since_mark(lc) == 0                   # but the stale hist is dropped


# ---------------------------------------------------------------------------
# Priority (shared-pool) allocator
# ---------------------------------------------------------------------------


def test_priority_pool_serves_lc_first():
    from qwinsim import PriorityAllocator
    eng, backend, hub, alloc = _rig(
        allocator=PriorityAllocator,
        workloads={"lc0": WorkloadSpec(iodepth=64, numjobs=4),
                   "be0": WorkloadSpec(iodepth=64, numjobs=4,
                                       sizes=((65536, 1.0),))})
    assert backend.pool_tiers == [[[_by_label(backend)["lc0"]], 0],
                                  [[_by_label(backend)["be0"]], 0]]
    assert backend.pool_tiers[1][0] is backend.be_tenants
    backend.start()
    eng.run_until(SEC)
    lc = _by_label(backend)["lc0"]
    be = _by_label(backend)["be0"]
    # saturating LC load on a strict-priority pool starves BE almost entirely
    lc_dequeues = lc.arrivals - len(lc.queue)
    be_dequeues = be.arrivals - len(be.queue)
    assert lc_dequeues > 20_000
    assert be_dequeues < lc_dequeues * 0.05
    backend.check_invariants()


def test_priority_pool_dequeue_order_round_robins_each_group():
    # The pool serves the LC tenants round-robin before any BE tenant, and
    # each group resumes where it left off, also after calls that found
    # every LC queue empty.
    from qwinsim import PriorityAllocator
    eng, backend, hub, alloc = _rig(
        allocator=PriorityAllocator,
        tenants=(("lc0", True, 4 * MS), ("lc1", True, 4 * MS),
                 ("be0", False, 0), ("be1", False, 0)))
    t = _by_label(backend)
    for label, n in (("lc0", 2), ("lc1", 1), ("be0", 2), ("be1", 2)):
        _fill(t[label], n)

    def served(calls):
        out = []
        for _ in range(calls):
            req = backend._be_dequeue()
            out.append(None if req is None else (req.tenant.label, req.seq))
        return out

    assert served(5) == [("lc0", 1), ("lc1", 1), ("lc0", 2),
                         ("be0", 1), ("be1", 1)]
    _fill(t["lc0"], 1)
    _fill(t["lc1"], 1)
    assert served(5) == [("lc1", 2), ("lc0", 3), ("be0", 2), ("be1", 2), None]
