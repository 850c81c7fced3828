"""Window establishment, membership bookkeeping, and the freeze semantics."""

import pytest

from qwinsim import (Backend, Device, DeviceParams, Engine, MetricsHub,
                     PolicyParams, QwinAllocator, ServiceEstimator, WorkloadSpec,
                     WorkloadSource, make_np_stream, make_stream, new_window)
from qwinsim.backend import Tenant
from qwinsim.sim_core import MS, SEC
from qwinsim.workload import OPEN, Request


def _enq(t, now, n=1):
    for _ in range(n):
        r = Request(t.label, 4096, arrive_at=now)
        t.arrivals += 1
        r.seq = t.arrivals
        t.queue.append(r)


def test_new_window_freezes_queue_and_ranges():
    t = Tenant("lc0", True, slo_ns=4_000_000)
    _enq(t, 100, 5)
    win = new_window(t, 250)
    assert win.wid == 1 and t.windows_established == 1
    assert win.ql == 5
    assert win.tw == 150                       # head waited 250 - 100
    assert (win.boundary_lo, win.boundary_hi) == (1, 5)
    assert win.outstanding == 5
    assert win.boundary_hi - win.boundary_lo + 1 == 5
    assert t.win is win and t.prev_boundary == 5


def test_new_window_requires_queue_and_no_active_window():
    t = Tenant("lc0", True)
    with pytest.raises(ValueError):
        new_window(t, 0)
    _enq(t, 0, 1)
    new_window(t, 0)
    _enq(t, 1, 1)
    with pytest.raises(ValueError):
        new_window(t, 1)


def test_windows_partition_the_arrival_sequence():
    t = Tenant("lc0", True)
    _enq(t, 0, 3)
    w1 = new_window(t, 0)
    # next window takes exactly the arrivals after w1's boundary
    t.queue.clear()
    t.win = None
    _enq(t, 10, 4)
    w2 = new_window(t, 10)
    assert (w1.boundary_lo, w1.boundary_hi) == (1, 3)
    assert (w2.boundary_lo, w2.boundary_hi) == (4, 7)
    assert w2.wid == w1.wid + 1


def test_completed_gap_reduces_next_window_outstanding():
    # two requests of the *next* window completed before it was established
    # (dequeued past the boundary by a multi-core tenant)
    t = Tenant("lc0", True)
    _enq(t, 0, 3)
    new_window(t, 0)
    t.win = None                # current window retired
    _enq(t, 5, 4)               # arrivals 4..7
    t.completed_gap = 2         # two of them already completed
    t.queue = type(t.queue)(list(t.queue)[2:])  # and left the queue
    w2 = new_window(t, 5)
    assert w2.boundary_hi - w2.boundary_lo + 1 == 4
    assert w2.outstanding == 2
    assert t.completed_gap == 0  # consumed


def test_window_establishment_resets_dequeue_counter():
    t = Tenant("lc0", True)
    t.wcnt = 17
    _enq(t, 0, 1)
    new_window(t, 0)
    assert t.wcnt == 0


# ---------------------------------------------------------------------------
# window_end: dequeue, on a running backend
# ---------------------------------------------------------------------------


class _WatchedTenant(Tenant):
    """A tenant that logs every change of its active window as
    (time, new window or None, arrival index of its last dequeue)."""

    __slots__ = ("log", "clock")

    def __init__(self, *args, **kw):
        self.log = []
        self.clock = lambda: 0
        super().__init__(*args, **kw)

    @property
    def win(self):
        return Tenant.win.__get__(self)

    @win.setter
    def win(self, new):
        self.log.append((self.clock(), new, self.arrivals - len(self.queue)))
        Tenant.win.__set__(self, new)


def _dequeue_mode_run(seed):
    """Open-loop LC traffic on an 8-core pool whose windows end at their last
    member's dequeue.  Returns the tenant, each member's completion time by
    arrival index, and the late completions: members of an ended window
    completing under the next one, with its outstanding count before and
    after."""
    eng = Engine()
    dev = Device(DeviceParams(read_median_us=50.0, capacity=8),
                 make_np_stream(seed, 0), eng)
    backend = Backend(eng, dev, 8, MetricsHub("dq", warmup_ns=0, pool_total=8))
    spec = WorkloadSpec(mode=OPEN, rate_per_s=55_000.0, sizes=((4096, 1.0),),
                        read_ratio=0.9)
    t = _WatchedTenant("lc0", True, slo_ns=4 * MS, end_on_complete=False)
    t.clock = lambda: eng.now
    backend.add_tenant(t, WorkloadSource(spec, make_stream(seed, 1), dev.params),
                       ServiceEstimator(nominal_mean_ns=52_300.0,
                                        nominal_tail_ns=200_000))
    QwinAllocator(PolicyParams(), backend)
    done_at, late = {}, []
    on_complete = dev.on_complete_fn

    def complete(req, now):
        win = t.win
        outstanding = win.outstanding if win is not None else None
        done_at[req.seq] = now
        on_complete(req, now)
        if win is not None and req.seq < win.boundary_lo:
            late.append((req.seq, win.wid, outstanding, win.outstanding))

    dev.on_complete_fn = complete
    backend.start()
    eng.run_until(SEC // 5)
    return t, done_at, late


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dequeue_mode_ends_windows_at_the_last_dequeue(seed):
    t, done_at, late = _dequeue_mode_run(seed)
    log = t.log[1:]                       # [0] is the constructor's None
    windows = [win for _, win, _ in log[::2]]
    assert t.arrivals >= 10_000 and len(windows) >= 100
    # Establishments and ends alternate: no window is replaced unended.
    assert all(win is not None for win in windows)
    assert all(win is None for _, win, _ in log[1::2])
    # Each window ended as its last member left the queue, before that
    # member completed: at the dequeue, not at the completion.
    completed_later = 0
    for win, (now, _, dequeued) in zip(windows, log[1::2]):
        assert dequeued == win.boundary_hi, win
        if win.boundary_hi in done_at:
            assert done_at[win.boundary_hi] > now, win
            completed_later += 1
    assert completed_later >= len(windows) - 8   # the rest still in flight
    # A late member's completion leaves the next window's count alone.
    assert len(late) >= 100
    for seq, wid, before, after in late:
        assert after == before, (seq, wid, before, after)
    # Windows still partition the arrival sequence.
    assert windows[0].boundary_lo == 1
    for prev, win in zip(windows, windows[1:]):
        assert win.boundary_lo == prev.boundary_hi + 1
        assert win.wid == prev.wid + 1
    assert all(w.boundary_hi >= w.boundary_lo for w in windows)
