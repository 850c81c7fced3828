"""Experiment configuration: schema, validation, YAML round-trip, scenarios.

A config is a plain hierarchical mapping (YAML on disk).  Times are given in
natural units (seconds, milliseconds, microseconds, as the key names say) and
normalized to integer nanoseconds internally.  One table, SCHEMA, describes
every key, with its type, unit and bound; a generic reader and writer walk it,
so parse(serialize(cfg)) == cfg.  Rules across the keys of one section live in
RULES, and rules across sections in parse_config.  A config is checked once,
here: the runtime trusts the values it is built from.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields
from operator import itemgetter
from typing import NamedTuple

from .baselines import (CongestionAllocator, CongestionParams, FeedbackAllocator,
                        FeedbackParams, PriorityAllocator, StaticAllocator, StaticParams)
from .device import DeviceParams
from .qwin_allocator import POLICIES, PolicyParams, QwinAllocator
from .sim_core import MS, SEC, US
from .workload import (Burst, NOT_SCHEDULED, PRESETS, PRESET_CLASS, WorkloadSpec,
                       CLOSED, OPEN)

# Allocator kind -> class.  cls(section, backend), with the allocator section
# of the same name (None if cls.Params is None), is its one entry point: it
# installs the allocator and hands out the starting cores.  Its
# reads_estimators says whether lc_step reads the LC service-time estimators;
# those of one that does not are deferred (see ServiceEstimator).
ALLOCATORS = {
    "qwin": QwinAllocator,
    "static": StaticAllocator,
    "priority": PriorityAllocator,
    "shenango": CongestionAllocator,
    "cake": FeedbackAllocator,
}
# Where a config pins every LC tenant's adaptive policy for the whole run.
PIN_KEY = ("allocator", "qwin", "pin")

LC = "lc"
BE_CLASS = "be"


class ConfigError(ValueError):
    """Carries every validation problem found, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass(frozen=True)
class SloSpec:
    latency_ns: int
    quantile: float = 0.999


@dataclass(frozen=True)
class TenantConfig:
    label: str
    tenant_class: str                  # "lc" or "be"
    workload: str | WorkloadSpec      # preset name or inline spec
    slo: SloSpec | None = None

    def spec(self) -> WorkloadSpec:
        if isinstance(self.workload, str):
            return PRESETS[self.workload]
        return self.workload


@dataclass(frozen=True)
class EstimatorConfig:
    ewma_alpha: float = 0.01
    hist_window: int = 10_000
    scope: str = "tenant"              # "tenant" or "device"


@dataclass(frozen=True)
class AllocatorConfig:
    """The kind to run, and one params section per kind in ALLOCATORS that has one."""
    kind: str = "qwin"
    qwin: PolicyParams = field(default_factory=PolicyParams)
    static: StaticParams = field(default_factory=StaticParams)
    shenango: CongestionParams = field(default_factory=CongestionParams)
    cake: FeedbackParams = field(default_factory=FeedbackParams)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "run"
    seed: int = 1
    duration_ns: int = 60_000_000_000
    warmup_ns: int | None = None       # None -> 10% of duration
    interval_ns: int = 1_000_000_000
    out_dir: str = "results"
    window_end: str = "complete"
    pool_total: int = 8
    device: DeviceParams = field(default_factory=DeviceParams)
    estimators: EstimatorConfig = field(default_factory=EstimatorConfig)
    allocator: AllocatorConfig = field(default_factory=AllocatorConfig)
    tenants: tuple = ()

    @property
    def effective_warmup_ns(self) -> int:
        if self.warmup_ns is None:
            return self.duration_ns // 10
        return self.warmup_ns

    def lc_tenants(self):
        return [t for t in self.tenants if t.tenant_class == LC]

    def estimator_seed(self, tc) -> tuple:
        """An LC tenant's estimator quantile, and its cold-start mean and tail:
        the device's analytic values at the tenant's dominant request shape."""
        spec = tc.spec()
        size = max(spec.sizes, key=itemgetter(1))[0]   # the first of the heaviest
        read = spec.read_ratio >= 0.5
        q = tc.slo.quantile if self.estimators.scope == "tenant" else 0.999
        d = self.device
        return q, d.nominal_mean_ns(read, size), d.nominal_quantile_ns(read, size, q)

    def allocator_id(self) -> str:
        if self.allocator.kind == "qwin" and self.allocator.qwin.pin:
            return f"qwin-{self.allocator.qwin.pin}"
        return self.allocator.kind

    def run_id(self) -> str:
        return f"{self.name}-{self.allocator_id()}-s{self.seed}"

    def to_yaml(self) -> str:
        import yaml   # here, not at module load: a run from a scenario never loads PyYAML
        return yaml.safe_dump(_plain(self), sort_keys=False)


# ---------------------------------------------------------------------------
# Schema: a generic reader and writer over one row per YAML key
# ---------------------------------------------------------------------------


class Key(NamedTuple):
    name: str          # the YAML key
    attr: str | None   # None: a sub-mapping whose keys are attributes of this section
    type: object       # float, int, str, a tuple of choices, a dataclass in SCHEMA,
                       # a reader(value, where, errors), or (attr None) a tuple of Keys
    scale: int = 0     # ns per unit: a number in this unit is stored as integer ns
    bound: str | None = None  # a key of BOUNDS; a scaled key's applies to the stored ns


# A key's bound -> the test a value within it passes.
BOUNDS = {
    ">= 0": lambda x: x >= 0,
    "> 0": lambda x: x > 0,
    ">= 1": lambda x: x >= 1,
    "in [0, 1]": lambda x: 0 <= x <= 1,
    "in (0, 1]": lambda x: 0 < x <= 1,
    "in (0, 1)": lambda x: 0 < x < 1,
    # Upper ends: the pool builds a Core per slot and an estimator a ring of
    # hist_window samples; capacity shares the pool's end.  A run's ns stay
    # below the finish_at sentinel, so every time fits an int64 trace column.
    # Open-loop gaps are whole ns: one arrival per ns on average keeps time moving.
    "<= 10**9": lambda x: x <= 1e9,
    "in (0, 10**9]": lambda x: 0 < x <= 1e9,
    "in [1, 4096]": lambda x: 1 <= x <= 4096,
    "in [1, 10**7]": lambda x: 1 <= x <= 10**7,
    "in (0, 2**62 ns)": lambda x: 0 < x < NOT_SCHEDULED,
}


def _at(where, msg):
    return f"{where}: {msg}" if where else msg


def _scalar(key, value, typ, scale=0):
    """`value` checked and converted to `typ`; ValueError names `key` and the problem."""
    if isinstance(typ, tuple) or typ is str:
        if isinstance(value, str) and (typ is str or value in typ):
            return value
        raise ValueError(f"{key} must be a string" if typ is str else
                         f"unknown {key} {value!r} (known: {', '.join(typ)})")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number")
    if typ is int and not scale and isinstance(value, int):
        return value
    try:
        x = float(value) * (scale or 1)
    except OverflowError:                  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{key} must be finite")
    if typ is int and not scale and not x.is_integer():
        raise ValueError(f"{key} must be an integer")
    return round(x) if typ is int else x


def _fields(keys, raw, where, errors, reported):
    """Attribute -> value for the `keys` set in mapping `raw` (an absent or null
    key keeps its dataclass default); None if `raw` is not a mapping.  The
    name of each key with a problem is added to the set `reported`."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        errors.append(f"{where or 'config root'} must be a mapping")
        return None
    known = {k.name for k in keys}
    errors.extend(_at(where, f"unknown key {k!r}") for k in raw if k not in known)
    kw = {}
    for k in keys:
        value = raw.get(k.name)
        if value is None:
            continue
        path = f"{where}.{k.name}" if where else k.name
        n = len(errors)
        if k.attr is None:
            kw.update(_fields(k.type, value, path, errors, set()) or {})
        elif k.type in SCHEMA:
            kw[k.attr] = _section(k.type, value, path, errors)
        elif k.type in (int, float, str) or isinstance(k.type, tuple):
            try:
                x = _scalar(k.name, value, k.type, k.scale)
                if k.bound and not BOUNDS[k.bound](x):
                    raise ValueError(f"{k.name} must be {k.bound}")
                kw[k.attr] = x
            except ValueError as e:
                errors.append(_at(where, str(e)))
        else:
            kw[k.attr] = k.type(value, path, errors)
        if len(errors) > n:
            reported.add(k.name)
    return {a: v for a, v in kw.items() if v is not None}


def _section(cls, raw, where, errors):
    """A `cls` built from mapping `raw` whose keys and RULES hold, or None
    after a problem (every one is appended to `errors`)."""
    n = len(errors)
    kw = _fields(SCHEMA[cls], raw, where, errors, set())
    if len(errors) > n:
        return None
    required = {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
    missing = [k.name for k in SCHEMA[cls] if k.attr in required and k.attr not in kw]
    if missing:
        errors.append(_at(where, f"missing {', '.join(missing)}"))
        return None
    obj = cls(**kw)
    errors.extend(_at(where, msg) for broken, msg in RULES.get(cls, ()) if broken(obj))
    return obj if len(errors) == n else None


def _plain(value):
    """`value` as plain YAML data; config dataclasses become mappings by SCHEMA."""
    if type(value) in SCHEMA:
        return _write(SCHEMA[type(value)], value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _write(keys, obj):
    d = {}
    for k in keys:
        if k.attr is None:
            d[k.name] = _write(k.type, obj)
        elif (v := getattr(obj, k.attr)) is not None:
            d[k.name] = v / k.scale if k.scale else _plain(v)
    return d


# Bespoke readers: the tenant list, the preset-or-mapping workload and its
# size mix, and the free-form static counts.

def _tenants(raw, where, errors):
    if not isinstance(raw, list):
        errors.append(f"{where} must be a list")
        return None
    tenants = []
    for i, d in enumerate(raw):
        at = f"{where}[{i}]"
        if isinstance(d, dict):
            if isinstance(d.get("label"), str) and d["label"]:
                at += f" ({d['label']})"
            if d.get("class") is None and isinstance(d.get("workload"), str):
                d = {**d, "class": PRESET_CLASS.get(d["workload"])}
        tenants.append(_section(TenantConfig, d, at, errors))
    return tuple(t for t in tenants if t is not None)


def _workload(raw, where, errors):
    if not isinstance(raw, str):
        return _section(WorkloadSpec, raw, where, errors)
    if raw not in PRESETS:
        errors.append(f"{where}: unknown workload preset {raw!r} "
                      f"(known: {', '.join(sorted(PRESETS))})")
        return None
    return raw


def _sizes(raw, where, errors):
    try:
        sizes = tuple((_scalar("size", s, int), _scalar("weight", w, float)) for s, w in raw)
    except (TypeError, ValueError):
        sizes = ()
    if sizes and all(s > 0 and w > 0 for s, w in sizes):
        return sizes
    errors.append(f"{where} must be [[bytes, weight], ...]: not empty, each > 0")
    return None


def _counts(raw, where, errors):
    if isinstance(raw, dict) and all(isinstance(k, str) and type(n) is int
                                     for k, n in raw.items()):
        return dict(raw)
    errors.append(f"{where} must map tenant labels to integer core counts")
    return None


SCHEMA = {
    ExperimentConfig: (
        Key("name", "name", str),
        Key("seed", "seed", int, bound=">= 0"),
        Key("duration_s", "duration_ns", int, SEC, "in (0, 2**62 ns)"),
        Key("warmup_s", "warmup_ns", int, SEC, ">= 0"),
        Key("interval_s", "interval_ns", int, SEC, "> 0"),
        Key("out_dir", "out_dir", str),
        Key("window_end", "window_end", ("complete", "dequeue")),
        Key("pool", None, (Key("total", "pool_total", int, bound="in [1, 4096]"),)),
        Key("device", "device", DeviceParams),
        Key("estimators", "estimators", EstimatorConfig),
        Key("allocator", "allocator", AllocatorConfig),
        Key("tenants", "tenants", _tenants),
    ),
    DeviceParams: (
        Key("read_median_us", "read_median_us", float, bound="> 0"),
        Key("write_median_us", "write_median_us", float, bound="> 0"),
        Key("sigma", "sigma", float, bound=">= 0"),
        Key("p_spike", "p_spike", float, bound="in [0, 1]"),
        Key("m_spike", "m_spike", float, bound=">= 1"),
        Key("capacity", "capacity", int, bound="in [1, 4096]"),
        Key("ref_block_bytes", "ref_block_bytes", int, bound="> 0"),
        Key("size_exponent", "size_exponent", float),
    ),
    EstimatorConfig: (
        Key("ewma_alpha", "ewma_alpha", float, bound="in (0, 1]"),
        Key("hist_window", "hist_window", int, bound="in [1, 10**7]"),
        Key("scope", "scope", ("tenant", "device")),
    ),
    AllocatorConfig: (
        Key("kind", "kind", tuple(ALLOCATORS)),
        *(Key(kind, kind, cls.Params) for kind, cls in ALLOCATORS.items() if cls.Params),
    ),
    PolicyParams: (
        Key("policy_window", "policy_window", int, bound=">= 1"),
        Key("slack_low_us", "slack_low_ns", int, US),
        Key("slack_high_us", "slack_high_ns", int, US),
        Key("min_tail_samples", "min_tail_samples", int, bound=">= 1"),
        Key("pin", "pin", POLICIES),
    ),
    StaticParams: (Key("counts", "counts", _counts),),
    CongestionParams: (Key("probe_interval_us", "probe_interval_ns", int, US, "> 0"),),
    FeedbackParams: (
        Key("interval_s", "interval_ns", int, SEC, "> 0"),
        Key("step", "step", int, bound=">= 1"),
        Key("headroom", "headroom", float, bound="in (0, 1]"),
        Key("min_samples", "min_samples", int, bound=">= 1"),
    ),
    TenantConfig: (
        Key("label", "label", str),
        Key("class", "tenant_class", (LC, BE_CLASS)),
        Key("workload", "workload", _workload),
        Key("slo", "slo", SloSpec),
    ),
    SloSpec: (
        Key("quantile", "quantile", float, bound="in (0, 1)"),
        Key("latency_ms", "latency_ns", int, MS, "> 0"),
    ),
    WorkloadSpec: (
        Key("mode", "mode", (CLOSED, OPEN)),
        Key("sizes", "sizes", _sizes),
        Key("read_ratio", "read_ratio", float, bound="in [0, 1]"),
        Key("iodepth", "iodepth", int, bound=">= 1"),
        Key("numjobs", "numjobs", int, bound=">= 1"),
        Key("rate_per_s", "rate_per_s", float, bound="<= 10**9"),
        Key("burst", "burst", Burst),
    ),
    Burst: (
        Key("on_s", "on_ns", int, SEC, "> 0"),
        Key("off_s", "off_ns", int, SEC, ">= 0"),
        Key("rate_per_s", "rate_per_s", float, bound="in (0, 10**9]"),
    ),
}

# Rules across the keys of one section, checked once each key is in range:
# (broken(section), message).
RULES = {
    PolicyParams: (
        (lambda p: p.slack_low_ns > p.slack_high_ns, "slack_low_us must be <= slack_high_us"),
    ),
    TenantConfig: (
        (lambda t: t.label in ("", BE_CLASS),
         "label must be non-empty; 'be' is reserved for the shared pool"),
        (lambda t: (t.slo is None) != (t.tenant_class == BE_CLASS),
         "LC tenants need slo: {quantile, latency_ms}; BE tenants take no SLO"),
    ),
    WorkloadSpec: (
        (lambda w: w.mode == OPEN and w.rate_per_s <= 0, "open loop needs rate_per_s > 0"),
        (lambda w: w.mode == CLOSED and (w.rate_per_s != 0 or w.burst is not None),
         "closed loop takes no rate_per_s or burst"),
        # A closed loop makes and schedules every request it keeps in flight at t=0.
        (lambda w: w.in_flight_cap > 10**5, "iodepth * numjobs must be <= 10**5"),
    ),
}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_config(d: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a plain mapping."""
    errors: list[str] = []
    reported: set[str] = set()   # keys with a problem, left at their defaults in cfg
    kw = _fields(SCHEMA[ExperimentConfig], d, "", errors, reported)
    if kw is None:
        raise ConfigError(errors)
    cfg = ExperimentConfig(**kw)
    labels, lc_labels = [t.label for t in cfg.tenants], [t.label for t in cfg.lc_tenants()]
    static = cfg.allocator.kind == "static"
    counts = cfg.allocator.static.counts if static else {}
    unknown = sorted(set(counts) - set(lc_labels))
    missing = sorted(set(lc_labels) - set(counts)) if static else []
    # Rules across sections, (keys read, broken, message); one reading a reported key is skipped.
    name, pool, by_label = cfg.name, cfg.pool_total, ("allocator", "tenants")
    intervals = -(-cfg.duration_ns // cfg.interval_ns)
    errors += [msg for reads, bad, msg in (
        (("name",), not (name.isprintable() and name) or "/" in name or os.sep in name,
         "name must be a plain file name: not empty, no '/' or control character"),
        (("warmup_s", "duration_s"), (cfg.warmup_ns or 0) >= cfg.duration_ns,
         "warmup_s must be smaller than duration_s"),
        # Each interval writes a row per tenant and an estimator row per LC tenant.
        (("duration_s", "interval_s"), intervals > 10**6,
         f"duration_s / interval_s must be <= 10**6 metric intervals, got {intervals}"),
        (("tenants",), not (d or {}).get("tenants"), "tenants: at least one tenant is required"),
        (("tenants",), len(set(labels)) < len(labels), f"duplicate tenant label in {labels}"),
        (("pool", *by_label), cfg.allocator.kind != "priority" and len(lc_labels) > pool,
         f"{len(lc_labels)} LC tenants need at least that many cores; pool has {pool}"),
        (by_label, unknown, f"allocator.static: static counts name unknown LC tenants: {unknown}"),
        (by_label, missing, f"allocator.static: static counts missing LC tenants: {missing}"),
        (by_label, min(counts.values(), default=1) < 1,
         "allocator.static: every static count must be >= 1"),
        (("pool", *by_label), sum(counts.values()) > pool,
         f"allocator.static: static counts sum to {sum(counts.values())} > pool total {pool}"),
    ) if bad and reported.isdisjoint(reads)]
    for t in () if errors else cfg.tenants:   # every value build derives from the device
        try:
            v = [cfg.device.median_ns(op, s) for s, _ in t.spec().sizes for op in (False, True)]
            v += cfg.estimator_seed(t)[1:] if t.tenant_class == LC else ()
        except (OverflowError, ZeroDivisionError):
            v = [math.inf]
        if not all(0 < x < math.inf for x in v):
            errors.append(f"device: a service time of tenant {t.label} is not finite and > 0")
    if errors:
        raise ConfigError(errors)
    return cfg


def read_yaml(stream) -> dict:
    """The mapping at the root of a YAML text or file ({} when it is empty).
    A plain scalar such as 1e-1 or 2E+0 reads as a float, not as YAML 1.1's
    string, and a key repeated in one mapping is an error, not a silent override."""
    import re
    import yaml

    def construct_mapping(self, node, deep=False):
        # The keys as written: a merge (<<) adds keys that a written one may override.
        written = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        mapping = yaml.SafeLoader.construct_mapping(self, node, deep)   # checks each key hashes
        seen = set()
        for key_node in written:
            key = self.construct_object(key_node, deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return mapping

    loader = type("Loader", (yaml.SafeLoader,), {"construct_mapping": construct_mapping})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"), list("-+.0123456789"))
    try:
        d = yaml.load(stream, loader)
    # ValueError: e.g. a date like 2021-13-45; RecursionError: nesting too deep.
    except (yaml.YAMLError, ValueError, RecursionError) as e:
        raise ConfigError([f"not valid YAML: {e}"]) from None
    if not isinstance(d, (dict, type(None))):
        raise ConfigError(["config root must be a mapping"])
    return d or {}


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _lc(label, preset, slo_ms, q=0.999):
    return {"label": label, "class": "lc", "workload": preset,
            "slo": {"quantile": q, "latency_ms": slo_ms}}


def _be(label, preset):
    return {"label": label, "class": "be", "workload": preset}


# Scenario name -> a builder of its tenant list (fresh on every call).
_TENANTS = {
    "duo": lambda: [_lc("lc0", "C", 4.0), _be("be0", "H")],
    # Open-loop LC with a 4x burst one second out of every five.
    "burst-duo": lambda: [
        {"label": "lc0", "class": "lc",
         "workload": {"mode": OPEN, "rate_per_s": 12000.0,
                      "sizes": [[4096, 1.0]], "read_ratio": 0.9,
                      "burst": {"on_s": 1.0, "off_s": 4.0,
                                "rate_per_s": 48000.0}},
         "slo": {"quantile": 0.999, "latency_ms": 4.0}},
        _be("be0", "H"),
    ],
    "group1": lambda: [_lc("lc0", "B", 2.5), _lc("lc1", "C", 4.0),
                       _lc("lc2", "D", 5.5),
                       _be("be0", "F"), _be("be1", "G"), _be("be2", "H")],
    "group2": lambda: [_lc("lc0", "K", 4.0), _lc("lc1", "K", 5.5),
                       _lc("lc2", "K", 7.0),
                       _be("be0", "F"), _be("be1", "G"), _be("be2", "H")],
    "group3": lambda: [_lc("lc0", "J", 4.0), _lc("lc1", "J", 5.5),
                       _lc("lc2", "J", 7.0),
                       _be("be0", "F"), _be("be1", "G"), _be("be2", "H")],
    "policy-duo": lambda: [_lc("lc0", "C", 3.0), _lc("lc1", "P", 5.0),
                           _be("be0", "H")],
}
SCENARIOS = tuple(_TENANTS)


def scenario(name: str) -> dict:
    """Return a named scenario as a plain config mapping (overridable).

    Keys it leaves out take their defaults: seed 1, 60 s in 1 s intervals,
    8 cores and the qwin allocator."""
    if name not in _TENANTS:
        raise KeyError(f"unknown scenario {name!r} (known: {', '.join(SCENARIOS)})")
    return {"name": name, "tenants": _TENANTS[name]()}
