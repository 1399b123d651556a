#!/usr/bin/env python3
"""Fault diagnosis: locate a defect from tester failures.

The downstream workflow that motivates full-universe fault simulation:
build a fault dictionary for the production test set (every fault, every
vector, no dropping — the workload that stresses a fault simulator the
most), then play defective devices against it.

This example builds the dictionary, "manufactures" defective devices by
injecting random faults, observes their tester responses, and diagnoses
them — including an intermittent device whose observed failures are a
proper subset of the simulated signature.

Run:  python examples/fault_diagnosis.py [circuit-name]
"""

import random
import sys

from repro import fault_name, load_circuit, stuck_at_universe
from repro.diagnosis import build_dictionary, diagnose
from repro.patterns import generate_tests


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "s298"
    circuit = load_circuit(name, scale=0.5)
    tests, coverage = generate_tests(circuit, effort="standard", seed=1992)
    print(
        f"{circuit!r}: production test set of {len(tests)} vectors "
        f"({100 * coverage:.1f}% stuck-at coverage)"
    )

    faults = stuck_at_universe(circuit)
    dictionary = build_dictionary(circuit, tests, faults)
    groups = dictionary.indistinguishable_groups()
    print(
        f"dictionary: {len(dictionary.detected_faults())} detectable faults, "
        f"{len(groups)} indistinguishable groups "
        f"(resolution limit of this test set)\n"
    )

    rng = random.Random(42)
    detectable = dictionary.detected_faults()

    print("=== defective devices, clean observations ===")
    for device in range(3):
        culprit = rng.choice(detectable)
        observed = dictionary.signature(culprit)
        result = diagnose(dictionary, observed)
        verdict = "FOUND" if culprit in result.exact_candidates else "missed"
        print(
            f"device {device}: injected {fault_name(circuit, culprit):<18} "
            f"{len(observed):>3} failures -> {result.summary(circuit)} [{verdict}]"
        )

    print("\n=== an intermittent device (every other failure observed) ===")
    culprit = rng.choice([f for f in detectable if len(dictionary.signature(f)) >= 4])
    full_signature = sorted(dictionary.signature(culprit))
    observed = full_signature[::2]
    result = diagnose(dictionary, observed, top=5)
    print(f"injected {fault_name(circuit, culprit)}; observed {len(observed)}/"
          f"{len(full_signature)} of its failures")
    for rank, candidate in enumerate(result.candidates, start=1):
        marker = "  <-- culprit" if candidate.fault == culprit else ""
        print(
            f"  #{rank} {fault_name(circuit, candidate.fault):<18} "
            f"score {candidate.score:.3f} "
            f"(matched {candidate.matched}, missed {candidate.missed}, "
            f"extra {candidate.extra}){marker}"
        )


if __name__ == "__main__":
    main()
