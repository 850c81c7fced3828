"""Window establishment, membership bookkeeping, and the freeze semantics."""

import pytest

from qwinsim import new_window
from qwinsim.backend import Tenant
from qwinsim.workload import Request


def _enq(t, now, n=1):
    for _ in range(n):
        r = Request(t.label, True, 4096, arrive_at=now)
        r.enqueued_at = now
        t.arrivals += 1
        r.seq = t.arrivals
        t.queue.append(r)


def test_new_window_freezes_queue_and_ranges():
    t = Tenant("lc0", True, slo_ns=4_000_000)
    _enq(t, 100, 5)
    win = new_window(t, 250)
    assert win.wid == 1 and t.wid == 1
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
