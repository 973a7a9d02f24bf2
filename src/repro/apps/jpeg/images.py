"""Synthetic benchmark imagery.

The paper compresses "a 600 Kbyte image"; we generate a deterministic
960x640 grayscale image (exactly 600 KiB of pixels) with natural-image
statistics — smooth gradients, oriented texture, a few hard edges and
mild noise — so the codec's compression ratio and per-block work are
realistic rather than degenerate.  It is drawn one band of
:data:`~repro.apps.jpeg.dct.BAND_ROWS` rows at a time, noise included,
so its float temporaries are a band's, not the image's.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dct import BAND_ROWS

__all__ = ["benchmark_image", "IMAGE_HEIGHT", "IMAGE_WIDTH"]

IMAGE_HEIGHT = 640
IMAGE_WIDTH = 960


def benchmark_image(height: int = IMAGE_HEIGHT, width: int = IMAGE_WIDTH,
                    seed: int = 1995) -> np.ndarray:
    """A deterministic grayscale test image (uint8, 600 KiB by default).

    Every call with the same arguments returns the same read-only array
    (each Table 2 cell asks for the same image); copy it to write to it.
    """
    return _render(height, width, seed)


@lru_cache(maxsize=8)
def _render(height: int, width: int, seed: int) -> np.ndarray:
    """The image, a band of rows at a time: each band gets its share of
    the rectangles, then the next rows of the generator's noise, which
    is the stream one whole-image draw would give."""
    if height % 8 or width % 8:
        raise ValueError("image dimensions must be multiples of 8")
    rng = np.random.default_rng(seed)
    y = np.linspace(0, 1, height)[:, None]
    x = np.linspace(0, 1, width)[None, :]
    out = np.empty((height, width), dtype=np.uint8)
    for top in range(0, height, BAND_ROWS):
        yb = y[top:top + BAND_ROWS]
        img = 120 + 60 * yb + 40 * np.sin(2 * np.pi * (3 * x + 1.5 * yb))
        img += 25 * np.sin(2 * np.pi * (12 * x * yb))
        # hard-edged rectangles (text/graphics-like content), band rows
        img[max(height // 5 - top, 0):max(height // 3 - top, 0),
            width // 6: width // 3] += 45
        img[max(int(height * 0.6) - top, 0):max(int(height * 0.8) - top, 0),
            int(width * 0.55): int(width * 0.9)] -= 55
        img += rng.normal(0, 3.0, size=img.shape)
        out[top:top + BAND_ROWS] = np.clip(img, 0, 255).astype(np.uint8)
    out.setflags(write=False)
    return out
