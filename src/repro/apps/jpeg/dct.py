"""8x8 block DCT-II / DCT-III (the JPEG transform pair).

Implemented from scratch with the orthonormal DCT matrix so the codec
has no dependency beyond numpy; vectorized over whole stacks of blocks
per the numpy performance guidance.  The codec hands them one band of
:data:`BAND_ROWS` pixel rows at a time (:func:`bands`), so no float
copy of a whole image is ever held.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dct_matrix", "dct2", "idct2", "blockify", "unblockify",
           "bands", "BLOCK", "BAND_ROWS"]

BLOCK = 8
#: pixel rows the codec's dense stages take at a time (whole block rows)
BAND_ROWS = 8 * BLOCK


def dct_matrix(n: int = BLOCK) -> np.ndarray:
    """The orthonormal type-II DCT matrix C, so that ``y = C @ x``."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    c = np.cos((2 * i + 1) * k * np.pi / (2 * n))
    c *= np.sqrt(2.0 / n)
    c[0] *= np.sqrt(0.5)
    return c


_C = dct_matrix()
_CT = _C.T


def dct2(blocks: np.ndarray) -> np.ndarray:
    """2-D DCT of a stack of 8x8 blocks, shape (..., 8, 8)."""
    return _C @ blocks @ _CT


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT of a stack of 8x8 blocks."""
    return _CT @ coeffs @ _C


def blockify(image: np.ndarray) -> np.ndarray:
    """Split an (H, W) image into a (H/8 * W/8, 8, 8) stack of blocks.

    H and W must be multiples of 8 (the distributed pipeline aligns its
    bands to block rows).
    """
    h, w = image.shape
    if h % BLOCK or w % BLOCK:
        raise ValueError(f"image {h}x{w} is not a multiple of {BLOCK}")
    return (image.reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK)
            .swapaxes(1, 2)
            .reshape(-1, BLOCK, BLOCK))


def unblockify(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    """Inverse of :func:`blockify`."""
    if h % BLOCK or w % BLOCK:
        raise ValueError(f"target {h}x{w} is not a multiple of {BLOCK}")
    expected = (h // BLOCK) * (w // BLOCK)
    if len(blocks) != expected:
        raise ValueError(f"need {expected} blocks for {h}x{w}, "
                         f"got {len(blocks)}")
    return (blocks.reshape(h // BLOCK, w // BLOCK, BLOCK, BLOCK)
            .swapaxes(1, 2)
            .reshape(h, w))


def bands(h: int, w: int) -> list[tuple[slice, slice]]:
    """Cut an (H, W) image into bands of :data:`BAND_ROWS` pixel rows:
    one ``(rows, blocks)`` pair per band, its rows of the image and its
    blocks in :func:`blockify` order (the pixels above a band, over the
    64 of a block, are the blocks before it), cut at the image's edge.  A
    band computes exactly what the whole image would: no block straddles
    two bands."""
    if h % BLOCK or w % BLOCK:
        raise ValueError(f"image {h}x{w} is not a multiple of {BLOCK}")
    return [(slice(top, end),
             slice(top * w // BLOCK ** 2, end * w // BLOCK ** 2))
            for top in range(0, h, BAND_ROWS)
            for end in [min(top + BAND_ROWS, h)]]
