"""qwinsim: deterministic simulation of SLO-aware core allocation for
a shared storage backend.

The package models a pool of worker cores serving latency-critical (LC) and
best-effort (BE) tenants in front of one stochastic block device.  The core
allocator of interest sizes each LC tenant's allocation per *request window*
from its tail-latency SLO; static, priority, congestion-feedback, and
interval-feedback baselines are included for comparison.

Typical use:

    from qwinsim import scenario, parse_config, run_experiment
    cfg = parse_config({**scenario("duo"), "seed": 3})
    result = run_experiment(cfg)
    print(result.report["tenants"]["lc0"]["tail_ns"])
"""

from .sim_core import Engine, EventKind, make_np_stream, make_stream, US, MS, SEC
from .workload import (Burst, PRESETS, PRESET_CLASS, Request, WorkloadSpec,
                       WorkloadSource)
from .device import Device, DeviceParams, ServiceEstimator
from .metrics import MetricsHub, TenantMetrics, quantile_from_counts, write_all
from .window_runtime import Window, calculate_cores, new_window
from .backend import Backend, Core, Tenant, BE_LABEL
from .qwin_allocator import (PolicyParams, QwinAllocator, compute_budget,
                             select_policy, CONSERVATIVE, AGGRESSIVE, SLO_AWARE)
from .baselines import (CongestionAllocator, CongestionParams,
                        FeedbackAllocator, FeedbackParams,
                        PriorityAllocator, StaticAllocator, StaticParams)
from .config import (AllocatorConfig, ConfigError, EstimatorConfig,
                     ExperimentConfig, SCENARIOS, SloSpec, TenantConfig,
                     parse_config, scenario)
from .harness import (RunResult, Simulation, build, main, make_report,
                      run_experiment, sweep)

__version__ = "0.1.0"
