"""Stochastic storage device and the online service-time estimators.

Service times are lognormal around a per-(op, size) median, with an optional
Bernoulli latency spike multiplier modelling internal device hiccups (GC,
wear-levelling).  The device serves at most `capacity` requests concurrently;
beyond that, submissions wait in an internal FIFO.

The estimators condense completions into the two statistics the allocation
model consumes: an EWMA of observed service time and a sliding-window
histogram quantile of it.  "Service time" here is what a worker core
observes: dequeue-to-completion, including any device-internal queueing.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from math import exp
from statistics import NormalDist

import numpy as np

from .metrics import quantile_need
from .sim_core import IO_COMPLETE, MS, US

_INV_CDF = NormalDist().inv_cdf


@dataclass(frozen=True)
class DeviceParams:
    read_median_us: float = 100.0
    write_median_us: float = 100.0
    sigma: float = 0.3
    p_spike: float = 0.001
    m_spike: float = 20.0
    capacity: int = 8
    ref_block_bytes: int = 4096
    # Median scales with (size/ref)**size_exponent; 0.5 gives a 64KB request
    # about 4x the 4KB median, a reasonable NVMe large-block slowdown.
    size_exponent: float = 0.5

    # -- analytic helpers ---------------------------------------------------

    def median_ns(self, is_read: bool, size: int) -> float:
        base = self.read_median_us if is_read else self.write_median_us
        scale = (size / self.ref_block_bytes) ** self.size_exponent
        return base * 1000.0 * scale

    def nominal_mean_ns(self, is_read: bool, size: int) -> float:
        """Analytic mean of the service distribution (estimator cold-start seed)."""
        m = self.median_ns(is_read, size) * math.exp(self.sigma ** 2 / 2.0)
        return m * (1.0 + self.p_spike * (self.m_spike - 1.0))

    def nominal_quantile_ns(self, is_read: bool, size: int, q: float) -> float:
        """Approximate q-quantile of the service distribution (cold-start seed only)."""
        base = self.median_ns(is_read, size)
        if self.sigma > 0 and 0.0 < q < 1.0:
            base *= math.exp(self.sigma * _INV_CDF(q))
        if self.p_spike > 0 and q > 1.0 - self.p_spike:
            base *= self.m_spike
        return base


def sample_service_time(params: DeviceParams, is_read: bool, size: int, rng) -> int:
    """Draw one service time in integer ns (>= 1)."""
    mu = math.log(params.median_ns(is_read, size))
    t = rng.lognormvariate(mu, params.sigma)
    if params.p_spike > 0 and rng.random() < params.p_spike:
        t *= params.m_spike
    return max(1, round(t))


DRAW_BLOCK = 8192   # variates drawn per refill of the device's blocks


class Device:
    """Runtime device instance: capacity-bounded concurrency plus a FIFO.

    The backend supplies the completion callback and keeps the slot
    accounting (in_service, fifo) inline on its hot path; the device draws
    service times and schedules IO_COMPLETE events.

    Variates are drawn from a numpy Generator in fixed-size blocks (one
    standard normal and one uniform per request, the uniform kept as its
    spike multiplier) purely for speed; the distribution is exactly the one
    sample_service_time() implements, and the consumed sequence depends only
    on the stream key, so runs replay bit-for-bit.  One request started is
    one draw consumed, so `started` is counted from the refills and the
    position in the current block.
    """

    def __init__(self, params: DeviceParams, rng, engine):
        self.params = params
        self.rng = rng               # numpy Generator (see make_np_stream)
        self.engine = engine
        self.capacity = params.capacity  # plain attribute: hot-path load
        self.in_service = 0
        self.fifo = deque()
        self.on_complete_fn = None   # set by the backend at wiring time
        self._z = None               # block of sigma * N(0,1) draws
        self._k = None               # block of spike multipliers
        self._zi = DRAW_BLOCK        # exhausted -> refill on first use
        self._refills = 0

    @property
    def started(self) -> int:
        """Requests put into service so far."""
        return (self._refills - 1) * DRAW_BLOCK + self._zi

    def _start(self, req, now):
        """Serve req: draw its service time around the log-median req.mu."""
        i = self._zi
        if i == DRAW_BLOCK:
            # .tolist() hands back plain Python floats; scalar math on numpy
            # float64 objects would cost more than the draws themselves.  The
            # sigma scaling is the same IEEE product numpy or Python makes.
            # The spike test becomes a multiplier, m_spike where the uniform
            # is below p_spike and 1.0 elsewhere; x * 1.0 is x in IEEE
            # arithmetic, so the product equals the branch.  The 1.0s are one
            # shared object.
            p = self.params
            self._z = (self.rng.standard_normal(DRAW_BLOCK) * p.sigma).tolist()
            k = [1.0] * DRAW_BLOCK
            for j in np.flatnonzero(self.rng.random(DRAW_BLOCK) < p.p_spike).tolist():
                k[j] = p.m_spike
            self._k = k
            self._refills += 1
            i = 0
        self._zi = i + 1
        t = exp(req.mu + self._z[i]) * self._k[i]
        self.in_service += 1
        fire_at = now + (st if (st := round(t)) > 0 else 1)
        req.finish_at = fire_at
        self.engine.schedule(fire_at, IO_COMPLETE, self.on_complete_fn, req)


# ---------------------------------------------------------------------------
# Online estimators
# ---------------------------------------------------------------------------

# Service-time histogram layout: 1us-wide linear buckets up to 100ms, then
# ~5%-wide geometric buckets up to 10s.  Bucket i's upper edge is _EDGE[i].
_LINEAR_LIMIT_NS = 100 * MS
_LINEAR_BUCKETS = _LINEAR_LIMIT_NS // US          # 100_000
_LOG_RATIO = 1.05
_LOG_BUCKETS = math.ceil(math.log(10_000 * MS / _LINEAR_LIMIT_NS) / math.log(_LOG_RATIO))
_N_BUCKETS = _LINEAR_BUCKETS + _LOG_BUCKETS
_VACANT = _N_BUCKETS   # a ring entry no sample has filled; above every bucket
_LOG_INV = 1.0 / math.log(_LOG_RATIO)


def _service_bucket(ns: int) -> int:
    if ns < _LINEAR_LIMIT_NS:
        return ns // US
    b = _LINEAR_BUCKETS + int(math.log(ns / _LINEAR_LIMIT_NS) * _LOG_INV)
    return b if b < _N_BUCKETS else _N_BUCKETS - 1


def _service_bucket_edge(idx: int) -> int:
    """Upper edge of bucket idx, in ns."""
    if idx < _LINEAR_BUCKETS:
        return (idx + 1) * US
    return round(_LINEAR_LIMIT_NS * _LOG_RATIO ** (idx - _LINEAR_BUCKETS + 1))


class ServiceEstimator:
    """EWMA mean + sliding-window histogram quantile of service times.

    The quantile is "the smallest bucket upper edge whose cumulative count
    reaches q of the window".  `mean_ns` is a plain attribute: the nominal
    mean until the first sample.  `log_sample` takes one sample under
    either schedule (the completion handler holds it on the tenant), and the
    tail has two schedules, one for each kind of reader:

    - incremental (the default), for the qwin allocator, which reads on
      nearly every dequeue: `log_sample` is the bound `update`, which
      advances the EWMA and nudges a pointer into the histogram, so a read
      walks only as far as the window has drifted (service times drift
      slowly), and the pointer's bucket edge is kept between reads.  The
      histogram grows to the highest bucket a sample has reached.
    - deferred, for an allocator that never reads the estimator (the metric
      tick reads it once per interval): `log_sample` is the log's C-level
      `array.append`, so no Python frame runs per sample.  `settle` folds
      the log into the EWMA, the sample count and the window in arrival
      order, so `mean_ns` takes the same floats `update` would give it.  A
      `tail_ns` read settles, then takes the window's order statistic in
      one numpy pass; `mean_ns` and `samples` are current only after a
      settle, so a reader takes `tail_ns` first.  The owning tenant's
      `TenantMetrics` also settles at each of its folds (every 2^27
      simulated ns), which bounds the log when reads are rare.
    """

    __slots__ = ("alpha", "window", "quantile", "mean_ns", "samples",
                 "_counts", "_ring", "_tail_idx", "_cum", "_edge", "_need_full",
                 "_log", "_win", "deferred", "log_sample", "nominal_tail")

    def __init__(self, alpha=0.01, window=10_000, quantile=0.999,
                 nominal_mean_ns=100_000.0, nominal_tail_ns=260_000, deferred=False):
        self.alpha = alpha
        self.window = window
        self.quantile = quantile
        self.mean_ns = float(nominal_mean_ns)
        self.samples = 0
        self._need_full = quantile_need(quantile, window)
        self.nominal_tail = int(nominal_tail_ns)
        self.deferred = deferred
        if deferred:
            self._log = array("q")    # samples since the last settle
            self._win = array("q")    # the window as of that settle, oldest first
            self.log_sample = self._log.append
            self._counts = self._ring = None
            return
        self._log = self._win = None
        self.log_sample = self.update   # bound here, after any patch of the class
        self._counts = [0]                      # up to the highest bucket reached
        self._ring = deque([_VACANT] * window)  # windowed buckets, oldest first
        self._tail_idx = 0
        self._cum = 0
        self._edge = _service_bucket_edge(0)    # upper edge of _tail_idx

    def update(self, service_ns: int):
        """Take one sample (incremental schedule only)."""
        # The first observation replaces the nominal mean outright and seeds
        # the EWMA.
        samples = self.samples
        if samples == 0:
            self.mean_ns = float(service_ns)
        else:
            self.mean_ns += self.alpha * (service_ns - self.mean_ns)
        self.samples = samples + 1
        b = (service_ns // US) if service_ns < _LINEAR_LIMIT_NS else _service_bucket(service_ns)
        ring = self._ring
        old = ring.popleft()
        ring.append(b)
        counts = self._counts
        try:   # costs nothing until it catches: no compare in the steady state
            counts[old] -= 1
        except IndexError:   # _VACANT: no bucket counts it
            pass
        try:
            counts[b] += 1
        except IndexError:   # above the top bucket: grow the list to b
            counts.extend([0] * (b - len(counts)) + [1])
        tail_idx = self._tail_idx   # _cum counts the samples at or below it
        if b <= tail_idx:
            if old > tail_idx:
                self._cum += 1
        elif old <= tail_idx:
            self._cum -= 1

    def settle(self):
        """Deferred: fold the log into the EWMA and the sample count as
        `update` would, and into the window, keeping its last `window` samples."""
        log = self._log
        if not log:
            return
        mean = self.mean_ns
        alpha = self.alpha
        it = iter(log)
        if not self.samples:
            mean = float(next(it))
        for x in it:
            mean += alpha * (x - mean)
        self.mean_ns = mean
        self.samples += len(log)
        win = self._win
        win.extend(log)
        del log[:]   # in place: log_sample stays bound to this array
        excess = len(win) - self.window
        if excess > 0:
            del win[:excess]

    @property
    def tail_ns(self) -> int:
        counts = self._counts
        if counts is None:
            self.settle()
        samples = self.samples
        if samples >= self.window:
            need = self._need_full
        elif samples:
            need = quantile_need(self.quantile, samples)
        else:
            return self.nominal_tail
        if counts is None:
            # Deferred.  _service_bucket never decreases, so the smallest
            # bucket whose cumulative count reaches `need` is the bucket of
            # the need-th smallest sample x: every sample in a lower bucket
            # is below x, and fewer than `need` samples are.
            x = np.partition(np.frombuffer(self._win, np.int64), need - 1)[need - 1]
            return _service_bucket_edge(_service_bucket(int(x)))
        idx = start = self._tail_idx
        cum = self._cum
        # The buckets hold min(samples, window) >= need samples, so the walk
        # up stops at the need-th sample's bucket, inside the list.
        while cum < need:
            idx += 1
            cum += counts[idx]
        while idx > 0 and cum - counts[idx] >= need:
            cum -= counts[idx]
            idx -= 1
        if idx != start:   # an unmoved walk leaves _cum and _edge as they are
            self._tail_idx = idx
            self._cum = cum
            self._edge = _service_bucket_edge(idx)
        return self._edge
