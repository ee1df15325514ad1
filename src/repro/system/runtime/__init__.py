"""Fault-tolerant control-plane runtime (lossy RPC, failover, degradation).

See :mod:`repro.system.runtime.runtime` for the service model and
:mod:`repro.system.runtime.chaos` for the scored chaos suite.
"""

from .chaos import (
    ChaosScenario,
    SCENARIO_NAMES,
    SMOKE_SCENARIOS,
    build_chaos_scenarios,
    format_chaos_table,
    run_chaos_suite,
)
from .rpc import RpcChannel, RpcSpec, RpcSpecError, Verdict, parse_rpc_spec
from .runtime import ControlPlaneRuntime, ControlPlaneScheduler

__all__ = [
    "RpcChannel",
    "RpcSpec",
    "RpcSpecError",
    "Verdict",
    "parse_rpc_spec",
    "ControlPlaneRuntime",
    "ControlPlaneScheduler",
    "ChaosScenario",
    "SCENARIO_NAMES",
    "SMOKE_SCENARIOS",
    "build_chaos_scenarios",
    "run_chaos_suite",
    "format_chaos_table",
]
