"""Reference dHash: the numpy area-mean downscale that ``snapshot_fingerprint``
must agree with bit for bit, and the similarity the snapshot rule's
threshold is stated in.

Block edges come from ``numpy.linspace(...).round()`` and each block mean
from ``ndarray.mean()``; nothing is imported from ``apktriage.extract``.
"""

from __future__ import annotations

import numpy as np


def area_mean_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = img.shape
    rows = np.linspace(0, h, out_h + 1).round().astype(int)
    cols = np.linspace(0, w, out_w + 1).round().astype(int)
    out = np.empty((out_h, out_w), dtype=np.float64)
    for r in range(out_h):
        for c in range(out_w):
            block = img[rows[r]:max(rows[r + 1], rows[r] + 1),
                        cols[c]:max(cols[c + 1], cols[c] + 1)]
            out[r, c] = block.mean()
    return out


def dhash(pixels) -> int:
    """64-bit row-major dHash of a 2-D grid with both sides >= 9."""
    img = np.asarray(pixels, dtype=np.float64)
    assert img.ndim == 2 and min(img.shape) >= 9
    small = area_mean_resize(img, 8, 9)
    diff = small[:, 1:] > small[:, :-1]  # 8x8 horizontal gradient signs
    bits = 0
    for v in diff.flatten():
        bits = (bits << 1) | int(v)
    return bits


def similarity(a, b) -> float:
    """1 - normalized Hamming distance of two fingerprints (anything with a
    64-bit ``hash_bits``); symmetric, bounded in [0, 1]."""
    return 1.0 - bin(a.hash_bits ^ b.hash_bits).count("1") / 64.0
