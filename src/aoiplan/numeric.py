"""Float summation that gives the same bits on every supported Python."""

from __future__ import annotations


def seq_sum(values) -> float:
    """Left-to-right float sum, monotone in every term.

    Builtin ``sum`` compensates rounding on Python >= 3.12 and adds plainly
    before, so results summed with it differ in the last bits across
    versions; bounds and exact rates must also be added the same way for a
    comparison of their sums to carry over.
    """
    total = 0.0
    for v in values:
        total += v
    return total
