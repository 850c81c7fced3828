"""Request-based windows and the queue-drain core-count model.

A window captures the tenant's entire queue at establishment; requests that
arrive while it is active belong to the next window.  Windows partition the
arrival sequence: member ship is decided by per-tenant arrival index ranges
(boundary_lo..boundary_hi), which stays well-defined even when worker cores
dequeue past the boundary before the current window has fully completed.

From each window the allocator derives a core demand: the queue must drain
within the slack that remains after subtracting the device tail and the time
the window's first request has already waited, and by Little's law sustaining
that drain rate costs drain_rate * mean_service_time cores.
"""

from __future__ import annotations

import math


class Window:
    __slots__ = ("wid", "ql", "tw", "boundary_lo", "boundary_hi", "outstanding")

    def __init__(self, wid, ql, tw, boundary_lo, boundary_hi, outstanding):
        self.wid = wid
        self.ql = ql
        self.tw = tw
        self.boundary_lo = boundary_lo
        self.boundary_hi = boundary_hi
        self.outstanding = outstanding

    def __repr__(self):
        return (f"<win {self.wid} ql={self.ql} tw={self.tw} "
                f"range=[{self.boundary_lo},{self.boundary_hi}] out={self.outstanding}>")


def new_window(tenant, now) -> Window:
    """Establish the tenant's next window over its current queue.

    The tenant must have a non-empty queue and no active window.  Updates the
    tenant's window bookkeeping (windows_established, wcnt, boundary high-water
    mark, and the count of next-window members that completed early).
    """
    queue = tenant.queue
    if not queue:
        raise ValueError(f"cannot establish a window for {tenant.label}: queue is empty")
    if tenant.win is not None:
        raise ValueError(f"{tenant.label} already has an active window")
    tenant.windows_established += 1
    tenant.wcnt = 0
    lo = tenant.prev_boundary + 1
    hi = tenant.arrivals
    # Members that were dequeued *and completed* before this window even got
    # established still belong to it; they are already done, so they must not
    # count as outstanding work.
    outstanding = (hi - lo + 1) - tenant.completed_gap
    tenant.completed_gap = 0
    tenant.prev_boundary = hi
    win = Window(tenant.windows_established, len(queue), now - queue[0].arrive_at,
                 lo, hi, outstanding)
    tenant.win = win
    return win


def calculate_cores(ql: int, tw_ns: int, slo_ns: int,
                    tail_io_ns: int, t_io_avg_ns: float, pool_total: int) -> int:
    """Cores needed to drain ql requests inside the remaining slack.

    slack = slo - device_tail - time_already_waited.  Non-positive slack means
    the SLO is already at risk: demand the whole pool.  Otherwise demand
    ceil(drain_rate * mean_service), clamped to [1, pool_total].
    """
    slack = slo_ns - tail_io_ns - tw_ns
    if slack <= 0:
        return pool_total
    n = math.ceil(ql * t_io_avg_ns / slack)
    if n < 1:
        return 1
    if n > pool_total:
        return pool_total
    return n

