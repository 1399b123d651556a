"""Pattern-parallel vector engine: word-packed fault x pattern kernel.

The package behind engine ``vsim`` (``csim-V`` was already taken by the
split-lists concurrent variant):

* :mod:`repro.vector.packing` — the shared two-mask three-valued word
  encoding (pack/unpack, slot access, the reference gate algebra).
* :mod:`repro.vector.core` — the word core PROOFS groups and vsim's scalar
  windows settle on, and the table-driven good machine.
* :mod:`repro.vector.scheduler` — the axis-picking scheduler choosing
  fault-axis vs pattern-axis packing per window.
* :mod:`repro.vector.kernel` — :class:`VectorFaultSimulator`, the
  windowed two-dimensional engine.
* :mod:`repro.vector.plane` — the optional numpy levelized
  (faults x patterns) plane path.
"""

from typing import Any

from repro.vector.packing import (
    MIN_WORD_WIDTH,
    broadcast_word,
    evaluate_gate_word,
    pack_values,
    unpack_values,
    validate_word_width,
)
from repro.vector.scheduler import (
    AXIS_MODES,
    MIN_PATTERN_DEPTH,
    AxisDecision,
    AxisScheduler,
    predict_axes,
)


def __getattr__(name: str) -> Any:
    # The kernel subclasses the PROOFS baseline, which itself imports
    # repro.vector.packing — loading it lazily keeps that import acyclic.
    if name in ("ENGINE_NAME", "VectorFaultSimulator"):
        from repro.vector import kernel

        return getattr(kernel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ENGINE_NAME",
    "VectorFaultSimulator",
    "MIN_WORD_WIDTH",
    "broadcast_word",
    "evaluate_gate_word",
    "pack_values",
    "unpack_values",
    "validate_word_width",
    "AXIS_MODES",
    "MIN_PATTERN_DEPTH",
    "AxisDecision",
    "AxisScheduler",
    "predict_axes",
]
