"""Synthetic benchmark imagery.

The paper compresses "a 600 Kbyte image"; we generate a deterministic
960x640 grayscale image (exactly 600 KiB of pixels) with natural-image
statistics — smooth gradients, oriented texture, a few hard edges and
mild noise — so the codec's compression ratio and per-block work are
realistic rather than degenerate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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
    if height % 8 or width % 8:
        raise ValueError("image dimensions must be multiples of 8")
    rng = np.random.default_rng(seed)
    y = np.linspace(0, 1, height)[:, None]
    x = np.linspace(0, 1, width)[None, :]
    img = 120 + 60 * y + 40 * np.sin(2 * np.pi * (3 * x + 1.5 * y))
    img += 25 * np.sin(2 * np.pi * (12 * x * y))
    # hard-edged rectangles (text/graphics-like content)
    img[height // 5: height // 3, width // 6: width // 3] += 45
    img[int(height * 0.6): int(height * 0.8),
        int(width * 0.55): int(width * 0.9)] -= 55
    img += rng.normal(0, 3.0, size=(height, width))
    out = np.clip(img, 0, 255).astype(np.uint8)
    out.setflags(write=False)
    return out
