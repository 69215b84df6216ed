"""repro: a reproduction of "HPCC: High Precision Congestion Control"
(Li et al., SIGCOMM 2019) on a pure-Python packet-level simulator.

Quick start::

    from repro import Network, NetworkConfig
    from repro.topology import star

    net = Network(star(n_hosts=4), NetworkConfig(cc_name="hpcc"))
    net.add_flow(net.make_flow(src=0, dst=3, size=1_000_000))
    net.run_until_done(deadline=10e6)
    print(net.metrics.fct_records[0].slowdown)

See README.md for the system inventory and ``hpcc-repro report`` for
the paper-versus-measured verdict of every figure.
"""

from .core import (
    CcAlgorithm,
    CcEnv,
    Dcqcn,
    Dctcp,
    Hpcc,
    Timely,
    available_schemes,
    get_scheme,
)
from .metrics import Metrics, QueueSampler, percentile, slowdown_by_bucket
from .network import Network, NetworkConfig
from .sim import FlowSpec, PfcConfig, Simulator
from .sim.ecn import EcnPolicy
from .workloads import fbhadoop, incast_events, poisson_flows, websearch
from .runner import (
    CcChoice,
    RunCache,
    RunRecord,
    ScenarioGrid,
    ScenarioSpec,
    SweepRunner,
)
from .fluid import FluidEngine

__version__ = "1.0.0"

__all__ = [
    "CcAlgorithm",
    "CcChoice",
    "CcEnv",
    "Dcqcn",
    "Dctcp",
    "EcnPolicy",
    "FlowSpec",
    "FluidEngine",
    "Hpcc",
    "Metrics",
    "Network",
    "NetworkConfig",
    "PfcConfig",
    "QueueSampler",
    "RunCache",
    "RunRecord",
    "ScenarioGrid",
    "ScenarioSpec",
    "Simulator",
    "SweepRunner",
    "Timely",
    "available_schemes",
    "fbhadoop",
    "get_scheme",
    "incast_events",
    "percentile",
    "poisson_flows",
    "slowdown_by_bucket",
    "websearch",
]
