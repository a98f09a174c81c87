"""Snapshot visual fingerprints: 64-bit difference hash over a 9x8 downscale.

The association contract only needs a symmetric, bounded similarity with
a threshold, so a deterministic dHash replaces keypoint matching; swap in
another backend by producing compatible 64-bit fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass


class ImageUndecodable(Exception):
    pass


@dataclass(frozen=True)
class VisualFingerprint:
    hash_bits: int  # 64-bit integer, row-major dHash bits
    source: str = ""

    def __post_init__(self):
        if not 0 <= self.hash_bits < 1 << 64:
            raise ValueError("hash must fit in 64 bits")


def _bounds(n: int, k: int) -> list[int]:
    """Edges of k blocks over n pixels: round-half-even of i * (n / k),
    the last edge exactly n (numpy's ``linspace(0, n, k + 1).round()``).
    With n >= k every block is at least one pixel wide."""
    step = n / k
    return [round(i * step) for i in range(k)] + [n]


def snapshot_fingerprint(pixels, source: str = "") -> VisualFingerprint:
    """dHash of a grayscale pixel grid: equal-length rows of numbers
    (lists, bytes, array rows), at least 9 by 9. For integer pixels every
    block sum is exact, so the bits equal those of a numpy area mean."""
    try:
        pixels = list(pixels)
        widths = {len(row) for row in pixels}
    except TypeError:
        raise ImageUndecodable("expected a 2-D grayscale grid") from None
    if len(widths) > 1:
        raise ImageUndecodable("rows differ in length")
    if len(pixels) < 9 or min(widths) < 9:
        raise ImageUndecodable("image smaller than 9 pixels in one dimension")
    rows, cols = _bounds(len(pixels), 8), _bounds(widths.pop(), 9)
    spans = list(zip(cols, cols[1:]))
    bits = 0
    for r0, r1 in zip(rows, rows[1:]):
        band = pixels[r0:r1]
        try:  # the 9 block means of this band; a cell that is no number raises
            means = [float(sum(sum(row[c0:c1]) for row in band)) / ((r1 - r0) * (c1 - c0))
                     for c0, c1 in spans]
        except TypeError:
            raise ImageUndecodable("expected a 2-D grayscale grid") from None
        for left, right in zip(means, means[1:]):  # 8 horizontal gradient signs
            bits = (bits << 1) | (right > left)
    return VisualFingerprint(hash_bits=bits, source=source)

