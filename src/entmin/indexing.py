"""Shared flat-index conventions for multi-party amplitude vectors.

Everything in this package stores an n-party state of local dimension d as
a dense vector of length d**n.  The multi-index (j_1, ..., j_n), with each
j_i in [0, d), maps to the flat index

    sum_i j_i * d**(n - i)

so party 1 is the most significant digit (big-endian, C order).  For d = 2
this means party i owns bit position n - i of the flat index, counting from
the least significant bit.  Party labels are 1-based in every public API;
this module is the only place the label/axis and label/bit arithmetic
lives: :func:`parties_to_axes` for tensor axes and :func:`mask_of_parties`
for bit masks.
"""

from __future__ import annotations

from .errors import CapacityError, ValidationError

# Dense vectors are capped at 2**22 amplitudes; larger spaces are rejected
# instead of silently thrashing memory.
MAX_AMPLITUDES = 1 << 22


def check_capacity(n: int, d: int) -> None:
    """Reject (n, d) whose amplitude count d**n exceeds MAX_AMPLITUDES."""
    if n < 1:
        raise ValidationError(f"party count must be >= 1, got {n}")
    if d < 2:
        raise ValidationError(f"local dimension must be >= 2, got {d}")
    # d >= 2 puts d**n past the cap once n > 22 or d > the cap, so d**n is
    # only computed where it is small
    if n > 22 or d > MAX_AMPLITUDES or d**n > MAX_AMPLITUDES:
        raise CapacityError(
            f"state of {n} parties with local dimension {d} needs {d}**{n} "
            f"amplitudes, above the cap of 2**22"
        )


def flat_from_digits(digits, d: int) -> int:
    """Flat index of a multi-index, first digit most significant."""
    j = 0
    for digit in digits:
        if not 0 <= digit < d:
            raise ValidationError(f"digit {digit} out of range [0, {d})")
        j = j * d + digit
    return j


def parties_to_axes(parties, n: int) -> tuple[int, ...]:
    """Sorted 0-based axes for a collection of 1-based party labels."""
    given = [int(p) for p in parties]
    labels = sorted(set(given))
    if labels and not (1 <= labels[0] and labels[-1] <= n):
        raise ValidationError(f"party labels {labels} out of range [1, {n}]")
    if len(labels) != len(given):
        raise ValidationError("duplicate party labels")
    return tuple(p - 1 for p in labels)


def mask_of_parties(parties, n: int) -> int:
    """Bitmask over flat-index bits covering the given 1-based parties (d = 2).

    Party i sits at bit n - i; labels are validated as by parties_to_axes.
    """
    mask = 0
    for axis in parties_to_axes(parties, n):
        mask |= 1 << (n - 1 - axis)
    return mask
