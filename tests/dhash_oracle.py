"""The similarity the snapshot rule's threshold is stated in, computed
apart from the rule's own bit count."""

from __future__ import annotations


def similarity(a: int, b: int) -> float:
    """1 - normalized Hamming distance of two 64-bit snapshot hashes;
    symmetric, bounded in [0, 1]."""
    return 1.0 - bin(a ^ b).count("1") / 64.0
