"""repro — concurrent fault simulation for synchronous sequential circuits.

A full reproduction of Lee & Reddy, *On Efficient Concurrent Fault
Simulation for Synchronous Sequential Circuits*, DAC 1992: the concurrent
stuck-at fault simulator with its three efficiency improvements (event-
driven fault dropping, visible/invisible list splitting, macro extraction
with functional faults), the transition-fault extension, the PROOFS-style
baseline it is compared against, and every substrate — netlists, logic
simulation, fault models, benchmark circuits and test generation.

Quickstart::

    from repro import load_circuit, ConcurrentFaultSimulator, CSIM_MV
    from repro.patterns import random_sequence

    circuit = load_circuit("s27")
    tests = random_sequence(circuit, 64, seed=7)
    result = ConcurrentFaultSimulator(circuit, options=CSIM_MV).run(tests)
    print(result.summary())
"""

from repro.circuit.bench import parse_bench, parse_bench_file, write_bench
from repro.circuit.library import load as load_circuit
from repro.circuit.macro import extract_macros
from repro.circuit.netlist import Circuit, CircuitBuilder, Gate
from repro.circuit.stats import circuit_stats
from repro.concurrent import (
    CSIM,
    CSIM_M,
    CSIM_MV,
    CSIM_V,
    ConcurrentEventFaultSimulator,
    ConcurrentFaultSimulator,
    SimOptions,
    TransitionFaultSimulator,
)
from repro.baselines import ProofsSimulator, simulate_serial
from repro.diagnosis import build_dictionary, diagnose
from repro.faults import (
    StuckAtFault,
    TransitionFault,
    all_transition_faults,
    collapse_stuck_at,
    fault_name,
    stuck_at_universe,
)
from repro.patterns import generate_tests, random_sequence
from repro.result import FaultSimResult
from repro.sim import EventSimulator, LogicSimulator

__version__ = "1.0.0"


def package_version() -> str:
    """The installed distribution's version, else the source tree's: what
    ``repro --version`` prints and the service's ``/healthz`` and
    ``/metrics`` report."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:
        return __version__


__all__ = [
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "load_circuit",
    "extract_macros",
    "Circuit",
    "CircuitBuilder",
    "Gate",
    "circuit_stats",
    "CSIM",
    "CSIM_M",
    "CSIM_MV",
    "CSIM_V",
    "ConcurrentEventFaultSimulator",
    "ConcurrentFaultSimulator",
    "SimOptions",
    "TransitionFaultSimulator",
    "ProofsSimulator",
    "simulate_serial",
    "build_dictionary",
    "diagnose",
    "StuckAtFault",
    "TransitionFault",
    "all_transition_faults",
    "collapse_stuck_at",
    "fault_name",
    "stuck_at_universe",
    "generate_tests",
    "random_sequence",
    "FaultSimResult",
    "EventSimulator",
    "LogicSimulator",
    "__version__",
]
