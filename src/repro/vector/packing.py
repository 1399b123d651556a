"""Two-mask word packing: the shared three-valued bit-parallel encoding.

One signal word encodes ``width`` independent three-valued machines in two
bit masks — ``ones`` (bits that are logic 1) and ``xs`` (bits that are
unknown); a bit clear in both is logic 0, and ``ones & xs`` is always
empty.  PROOFS packs one *fault machine* per bit, vsim's pattern windows
one *pattern* (clock cycle) per bit; both settle on the word core
(:mod:`repro.vector.core`).

:func:`evaluate_gate_word` is the reference gate algebra, written against
the bitwise operators only (``& | ^ ~`` plus an explicit ``mask``) so it
works on Python integers of any width and on numpy arrays alike.  The
engines do not call it: the tests check the core's algebra and the numpy
plane's fused dual-rail step (:mod:`repro.vector.plane`) against it, slot
by slot.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.logic.tables import GateType
from repro.logic.values import ONE, X, ZERO

#: Word widths the CLI/spec surface accepts (powers of two, >= 8).
MIN_WORD_WIDTH = 8


def validate_word_width(width: Any) -> int:
    """Validate a user-facing ``--word-width`` value.

    Accepts powers of two no smaller than :data:`MIN_WORD_WIDTH` (8, 16,
    32, 64, 128, ...) and returns the value as an ``int``.  Anything else
    — non-integers, booleans, zero, negatives, non-powers-of-two —
    raises ``ValueError``.  Engine constructors stay permissive (any
    positive width simulates correctly; the cross-validation suite runs
    widths 1 and 2 on purpose); this gate applies to the CLI and the
    serve-layer job spec, where a nonsense width is a user error.
    """
    if isinstance(width, bool) or not isinstance(width, int):
        raise ValueError(f"word width must be an integer, got {width!r}")
    if width < MIN_WORD_WIDTH:
        raise ValueError(f"word width must be >= {MIN_WORD_WIDTH}, got {width}")
    if width & (width - 1):
        raise ValueError(f"word width must be a power of two, got {width}")
    return width


def broadcast_word(value: int, mask: int) -> Tuple[int, int]:
    """The ``(ones, xs)`` word holding *value* in every slot of *mask*."""
    if value == ONE:
        return (mask, 0)
    if value == ZERO:
        return (0, 0)
    return (0, mask)


def pack_values(values: Sequence[int]) -> Tuple[int, int]:
    """Pack a sequence of three-valued logic values, one per bit slot.

    Slot *i* (bit ``1 << i``) holds ``values[i]``.  The inverse of
    :func:`unpack_values` for any width, including width 0.
    """
    ones = 0
    xs = 0
    for slot, value in enumerate(values):
        if value == ONE:
            ones |= 1 << slot
        elif value == X:
            xs |= 1 << slot
        elif value != ZERO:
            raise ValueError(f"slot {slot}: not a three-valued logic value: {value!r}")
    return (ones, xs)


def unpack_values(ones: int, xs: int, width: int) -> List[int]:
    """The per-slot logic values of a two-mask word of *width* slots."""
    values: List[int] = []
    for slot in range(width):
        bit = 1 << slot
        if ones & bit:
            values.append(ONE)
        elif xs & bit:
            values.append(X)
        else:
            values.append(ZERO)
    return values


def evaluate_gate_word(
    gtype: GateType, operands: Sequence[Tuple[Any, Any]], mask: Any
) -> Tuple[Any, Any]:
    """Evaluate one gate over packed operands, all slots in parallel.

    *operands* is one ``(ones, xs)`` pair per fanin pin; *mask* covers the
    active slots.  Returns the output ``(ones, xs)`` pair.  Three-valued
    semantics match :mod:`repro.logic.tables` exactly — the
    cross-validation suite pins this against the scalar engines.

    Generic over the operand scalar type: Python ints (arbitrary width)
    and numpy integer arrays (element-wise) both work, because only
    ``& | ^ ~`` and *mask* are used (never ``-`` or comparisons).
    """
    if gtype in (GateType.AND, GateType.NAND):
        all_one = mask
        any_zero = mask & 0
        for one_bits, x_bits in operands:
            all_one = all_one & one_bits
            any_zero = any_zero | (mask & ~(one_bits | x_bits))
        one_out = all_one
        x_out = mask & ~any_zero & ~all_one
        if gtype is GateType.NAND:
            one_out = any_zero  # NAND is 1 exactly where some input is 0
    elif gtype in (GateType.OR, GateType.NOR):
        any_one = mask & 0
        all_zero = mask
        for one_bits, x_bits in operands:
            any_one = any_one | one_bits
            all_zero = all_zero & (mask & ~(one_bits | x_bits))
        one_out = any_one
        x_out = mask & ~any_one & ~all_zero
        if gtype is GateType.NOR:
            one_out = all_zero
    elif gtype in (GateType.XOR, GateType.XNOR):
        x_out = mask & 0
        parity = mask & 0
        for one_bits, x_bits in operands:
            x_out = x_out | x_bits
            parity = parity ^ one_bits
        parity = parity & mask & ~x_out
        one_out = parity
        if gtype is GateType.XNOR:
            one_out = mask & ~parity & ~x_out
    elif gtype is GateType.BUF:
        one_out, x_out = operands[0]
    elif gtype is GateType.NOT:
        one_bits, x_bits = operands[0]
        one_out = mask & ~one_bits & ~x_bits
        x_out = x_bits
    elif gtype is GateType.CONST0:
        one_out, x_out = mask & 0, mask & 0
    elif gtype is GateType.CONST1:
        one_out, x_out = mask, mask & 0
    else:  # MACRO: the word engines run on flat circuits only
        raise ValueError(f"cannot evaluate gate type {gtype} as a word")
    return (one_out, x_out)
