"""SLO-aware adaptive core allocation driven by request windows.

Each LC worker core runs the same iteration: establish a window over the
queue if none is active (refreshing the core policy every policy_window
windows and resizing to the window's demand), serve one request FIFO, and --
depending on the policy's probe budget -- snapshot the queue mid-window to
catch load spikes early.  Mid-window probes only ever grow the allocation;
shrinking happens at window establishment or through voluntary yields when a
core finds nothing left to do.

Policies:
  conservative  never probes mid-window (budget 0); cheapest, slowest to react
  aggressive    probes after every dequeue (budget 1); fastest, steals the most
  slo_aware     probes every budget-th dequeue, where the budget is how many
                mean service times fit in the window's remaining slack

The active policy is re-picked every policy_window windows from the measured
latency slack: lots of slack -> conservative, scarce slack -> aggressive,
in between -> slo_aware.  A tenant starts aggressive until measurements
accumulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .sim_core import US
from .window_runtime import calculate_cores, new_window

CONSERVATIVE = "conservative"
AGGRESSIVE = "aggressive"
SLO_AWARE = "slo_aware"
POLICIES = (CONSERVATIVE, AGGRESSIVE, SLO_AWARE)


@dataclass(frozen=True)
class PolicyParams:
    policy_window: int = 2000          # windows between policy refreshes
    slack_low_ns: int = 300 * US       # below: aggressive
    slack_high_ns: int = 1000 * US     # above: conservative
    min_tail_samples: int = 1000       # fewer since last refresh: keep policy
    pin: str | None = None             # force one policy for the whole run


def select_policy(slack_ns: int, params: PolicyParams) -> str:
    """Pure slack -> policy mapping."""
    if slack_ns > params.slack_high_ns:
        return CONSERVATIVE
    if slack_ns < params.slack_low_ns:
        return AGGRESSIVE
    return SLO_AWARE


def compute_budget(slo_ns: int, tail_io_ns: int, tw_ns: int, t_io_avg_ns: float) -> int:
    """How many dequeues fit between probes under the slo_aware policy.

    floor(remaining slack / mean service time), at least 1.  A non-positive
    slack leaves no room for complacency: probe every dequeue.
    """
    slack = slo_ns - tail_io_ns - tw_ns
    if slack <= 0:
        return 1
    b = math.floor(slack / t_io_avg_ns)
    return b if b >= 1 else 1


class QwinAllocator:
    """Per-LC-core adaptive allocation (window demand + probes + policy)."""

    Params = PolicyParams
    reads_estimators = True   # lc_step reads the mean and tail at windows and probes

    def __init__(self, params: PolicyParams, backend):
        self.params = params
        self.backend = backend
        self.pool = backend.pool_total
        backend.allocator = self
        backend.assign_lc_cores()
        for t in backend.lc_tenants:
            t.policy = params.pin or AGGRESSIVE

    # -- policy ----------------------------------------------------------------

    def _refresh_policy(self, t, now):
        """Re-pick the policy from measured latency slack (every policy_window windows)."""
        if self.params.pin is not None:
            return
        tm = t.metrics
        n, measured = tm.since_mark(t.slo_q)
        if n < self.params.min_tail_samples:
            return  # not enough evidence; keep the current policy
        tm.mark()
        slack = t.slo_ns - measured
        new = select_policy(slack, self.params)
        if new != t.policy:
            self.backend.hub.policy_rows.append((now, t.label, t.policy, new, slack))
            t.policy = new

    def _budget_for_policy(self, t, win):
        policy = t.policy
        if policy == CONSERVATIVE:
            return 0
        if policy == AGGRESSIVE:
            return 1
        est = t.estimator
        return compute_budget(t.slo_ns, est.tail_ns, win.tw, est.mean_ns)

    # -- Algorithm: one LC core iteration ------------------------------------------

    def lc_step(self, core, t, now):
        queue = t.queue
        if t.win is None and queue:
            win = new_window(t, now)
            if t.windows_established % self.params.policy_window == 0:
                self._refresh_policy(t, now)
            t.budget = self._budget_for_policy(t, win)
            est = t.estimator
            demand = calculate_cores(win.ql, win.tw, t.slo_ns,
                                     est.tail_ns, est.mean_ns, self.pool)
            self.adjust_cores(t, demand, now, "window_start")
            self.backend.hub.window_rows.append((t.label, win.wid, win.ql, win.tw, t.num, t.policy))
        if queue:
            req = queue.popleft()
            t.wcnt += 1
            win = t.win
            if win is not None:
                # The window opened over the whole queue, so its last member
                # is the one with index boundary_hi.
                if not t.end_on_complete and req.seq == win.boundary_hi:
                    t.win = None
                budget = t.budget
                if budget and t.wcnt % budget == 0 and t.win is not None:
                    t.probes_attempted += 1
                    # A probe sizes the live queue as if it were a window
                    # and only ever scales up, so with every pool core
                    # already owned there is nothing to compute.
                    if queue and t.num < self.pool:
                        est = t.estimator
                        tmp = calculate_cores(len(queue), now - queue[0].arrive_at,
                                              t.slo_ns, est.tail_ns, est.mean_ns,
                                              self.pool)
                        if tmp > t.num:
                            self.adjust_cores(t, tmp, now, "probe")
            return req
        if t.win is None and t.num > 1:
            # Nothing queued and no window pending: this core is surplus.
            self.backend.yield_core(core, t, now)
        return None

    # -- Algorithm: resize to target ----------------------------------------------

    def adjust_cores(self, t, target: int, now, origin: str) -> int:
        """Resize tenant's allocation toward target; returns the new num.

        Shrinks release to the BE pool immediately (idle victims first, the
        executing core never).  Grows take BE cores: parked ones right away,
        busy ones marked to transfer as their in-flight request completes.
        """
        num = t.num
        if target > num:
            self.backend.grant_cores(t, target - num, now, origin)
        elif target < num:
            self.backend.release_cores(t, num - target, now, origin)
        return t.num
