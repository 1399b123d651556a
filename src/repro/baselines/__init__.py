"""Baseline fault simulators.

* :mod:`repro.baselines.serial` — one fault at a time over the reference
  cycle simulator; slow but *obviously* correct, the oracle for every
  cross-validation test (plus the serial two-pass transition reference).
* :mod:`repro.baselines.proofs` — a reimplementation of the PROOFS
  algorithm (Niermann, Cheng & Patel, DAC 1990), the comparison point of
  the paper's Tables 3-5.
"""

from repro.baselines.serial import simulate_serial, simulate_serial_transition
from repro.baselines.proofs import ProofsSimulator

__all__ = [
    "simulate_serial",
    "simulate_serial_transition",
    "ProofsSimulator",
]
