"""Workload generation: fio-style closed loops and open-loop Poisson arrivals.

A closed-loop source keeps exactly iodepth*numjobs requests in flight per
tenant: every completion immediately issues a replacement on the same job
slot (zero think time).  An open-loop source draws exponential inter-arrival
gaps at a configured rate, optionally alternating between a base phase and a
burst phase (off first, then on, repeating).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from math import log

from .sim_core import REQUEST_ARRIVAL, SEC

READ = True
WRITE = False
NOT_SCHEDULED = 1 << 62  # Request.finish_at while not in service

CLOSED = "closed_loop"
OPEN = "open_loop"


class Request:
    """One I/O request.  Timestamps are integer ns; -1 means "not yet".

    mu, the request's one record of its op, is the log of the device's median
    service time for this op and size; the device draws around it.
    """

    __slots__ = (
        "tenant", "size", "mu",
        "arrive_at", "dequeued_at",
        "seq", "core", "finish_at",
    )

    def __init__(self, tenant, size, arrive_at, mu=None):
        self.tenant = tenant
        self.size = size
        self.mu = mu
        self.arrive_at = arrive_at
        self.dequeued_at = -1
        self.seq = -1          # per-tenant arrival index, stamped at enqueue
        self.core = None       # core currently serving this request
        self.finish_at = NOT_SCHEDULED  # set once device service starts

    def __repr__(self):
        return f"<Req {self.tenant}#{self.seq} {self.size}B t={self.arrive_at}>"


@dataclass(frozen=True)
class Burst:
    """On/off modulation for open-loop sources: off_ns at base rate, then on_ns at rate_per_s."""
    on_ns: int
    off_ns: int
    rate_per_s: float


@dataclass(frozen=True)
class WorkloadSpec:
    mode: str = CLOSED
    sizes: tuple = ((4096, 1.0),)      # (bytes, weight) pairs
    read_ratio: float = 1.0
    iodepth: int = 16                  # closed loop
    numjobs: int = 1                   # closed loop
    rate_per_s: float = 0.0            # open loop, base rate
    burst: Burst | None = None         # open loop only

    @property
    def in_flight_cap(self) -> int:
        return self.iodepth * self.numjobs if self.mode == CLOSED else 0


def _fio(bs, iodepth, numjobs, read_ratio):
    return WorkloadSpec(mode=CLOSED, sizes=((bs, 1.0),), read_ratio=read_ratio,
                        iodepth=iodepth, numjobs=numjobs)


# Named workload presets.  A-D are 4KB latency-critical style loads at
# descending read ratios; E-H are 64KB throughput loads; J and K approximate
# database/webserver request mixes as closed loops over a size distribution;
# P is a deeper 4KB mixed load.
PRESETS: dict[str, WorkloadSpec] = {
    "A": _fio(4096, 16, 8, 1.00),
    "B": _fio(4096, 16, 8, 0.95),
    "C": _fio(4096, 16, 8, 0.90),
    "D": _fio(4096, 16, 8, 0.85),
    "E": _fio(65536, 16, 2, 1.00),
    "F": _fio(65536, 16, 2, 0.99),
    "G": _fio(65536, 16, 2, 0.95),
    "H": _fio(65536, 16, 2, 0.90),
    # OLTP-like: small random reads/writes, 2:1 read:write, 2KB/8KB mix.
    "J": WorkloadSpec(mode=CLOSED, sizes=((2048, 0.5), (8192, 0.5)),
                      read_ratio=0.67, iodepth=8, numjobs=8),
    # Webserver-like: mostly reads across small-to-medium sizes plus log appends.
    "K": WorkloadSpec(mode=CLOSED, sizes=((4096, 0.35), (16384, 0.40), (65536, 0.25)),
                      read_ratio=0.95, iodepth=4, numjobs=16),
    "P": _fio(4096, 32, 8, 0.90),
}

# Preset -> conventional tenant class ("lc" or "be"); a config may override.
PRESET_CLASS = {
    "A": "lc", "B": "lc", "C": "lc", "D": "lc",
    "E": "be", "F": "be", "G": "be", "H": "be",
    "J": "lc", "K": "lc", "P": "lc",
}


class WorkloadSource:
    """Per-tenant request generator bound to one RNG stream.

    The enqueue callback is supplied by the backend at start(); the source
    only decides *what* arrives *when*.  Each request carries the log median
    of `device` (a DeviceParams) for its op and size.
    """

    def __init__(self, spec: WorkloadSpec, rng, device):
        self.spec = spec
        self.rng = rng
        self.tenant = None           # the Tenant its requests carry, set by add_tenant
        self.in_flight = 0
        self._enqueue = None
        self._free = []              # completed open-loop requests, for reuse
        self._engine = self._arrive = None   # an open loop's, set at start()
        # The backend's completion handler draws a closed loop's replacement
        # from these tables.  The op is constant when the mix is pure.
        self.closed = spec.mode == CLOSED
        rr = spec.read_ratio
        self.read_ratio = rr
        self.op_const = READ if rr >= 1.0 else (WRITE if rr <= 0.0 else None)
        # Size sampler: either a constant or cumulative weights.
        sizes = spec.sizes
        self.size_vals = [s for s, _ in sizes]
        if len(sizes) == 1:
            self.size_cum = None
        else:
            total = sum(w for _, w in sizes)
            acc = list(itertools.accumulate(w / total for _, w in sizes))
            acc[-1] = 1.0
            self.size_cum = acc
        # Log median per [is_read][size index], computed once per source.
        self.mu_table = [[math.log(device.median_ns(op, s)) for s in self.size_vals]
                         for op in (WRITE, READ)]
        # Open loop: the current phase's rate (requests per ns) and end.  The
        # off phase comes first; without a burst the one phase never ends.
        burst = spec.burst
        self._base_rate = spec.rate_per_s / SEC
        self._burst_rate = burst.rate_per_s / SEC if burst else None
        self._on = False
        self._rate = self._base_rate
        self._phase_end = burst.off_ns if burst else math.inf

    # -- draws ------------------------------------------------------------

    def make_request(self, arrive_at) -> Request:
        self.in_flight += 1
        # The op is drawn before the size, as for a closed-loop replacement.
        op = self.op_const
        if op is None:
            op = self.rng.random() < self.read_ratio
        cum = self.size_cum
        i = 0 if cum is None else bisect.bisect_left(cum, self.rng.random())
        return Request(self.tenant, self.size_vals[i], arrive_at, self.mu_table[op][i])

    # -- lifecycle ---------------------------------------------------------

    def start(self, engine, enqueue):
        """Schedule the initial arrivals.  enqueue(request, now) admits one request."""
        self._enqueue = enqueue
        if self.spec.mode == CLOSED:
            # The whole iodepth*numjobs population arrives at t=0, one event
            # per request so arrival order is well defined.
            for _ in range(self.spec.in_flight_cap):
                engine.schedule(0, REQUEST_ARRIVAL, enqueue, self.make_request(0))
        else:
            self._engine = engine
            self._arrive = self._open_arrive   # bound once: every arrival event holds it
            self._open_arrive(None, 0)

    # -- open loop ----------------------------------------------------------

    def _next_phase(self, t):
        """Step to the phase that holds t (t >= _phase_end); return its end.

        Off and on phases alternate, so a zero-length off phase is stepped
        over at once.
        """
        burst = self.spec.burst
        on = self._on
        end = self._phase_end
        while t >= end:
            on = not on
            end += burst.on_ns if on else burst.off_ns
        self._on = on
        self._rate = self._burst_rate if on else self._base_rate
        self._phase_end = end
        return end

    def _open_arrive(self, req, now):
        # Admit req (None at the first draw), then draw the next arrival: the
        # gap, the op, the size.  A gap that crosses the phase end is drawn
        # again from the end at the next rate (memorylessness keeps this an
        # exact piecewise-Poisson process); a phase holds [start, end).
        if req is not None:
            self._enqueue(req, now)
        t = now
        end = self._phase_end
        random = self.rng.random
        while True:
            if t >= end:
                end = self._next_phase(t)
            gap = -log(1.0 - random()) / self._rate
            if t + gap <= end:
                t += round(gap)
                break
            t = end
        self.in_flight += 1
        op = self.op_const
        if op is None:
            op = random() < self.read_ratio
        cum = self.size_cum
        i = 0 if cum is None else bisect.bisect_left(cum, random())
        if self._free:
            # A completed request, refreshed as a closed loop's replacement is.
            req = self._free.pop()
            req.size = self.size_vals[i]
            req.mu = self.mu_table[op][i]
            req.arrive_at = t
            req.finish_at = NOT_SCHEDULED
        else:
            req = Request(self.tenant, self.size_vals[i], t, self.mu_table[op][i])
        self._engine.schedule(t, REQUEST_ARRIVAL, self._arrive, req)

    # -- completions ----------------------------------------------------------

    def on_completion(self, req):
        """Open loop: keep the completed request for a later arrival to reuse.

        Nothing holds a reference to a completed request once its latency
        has been recorded.  A closed loop's replacement is drawn by the
        backend's completion handler instead, which reuses the request the
        same way.
        """
        self.in_flight -= 1
        self._free.append(req)
