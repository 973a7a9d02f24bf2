"""JPEG quantization (Annex K luminance table + libjpeg quality scaling)."""

from __future__ import annotations

import numpy as np

__all__ = ["LUMINANCE_TABLE", "quality_table", "quantize", "dequantize"]

#: ITU-T T.81 Annex K, Table K.1 — the standard luminance matrix.
LUMINANCE_TABLE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.int32)


def quality_table(quality: int = 75) -> np.ndarray:
    """Scale the Annex K table the way libjpeg does (quality 1-100)."""
    if type(quality) is not int or not 1 <= quality <= 100:
        raise ValueError(f"quality must be an int in 1..100, got {quality!r}")
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    table = (LUMINANCE_TABLE * scale + 50) // 100
    return np.clip(table, 1, 255).astype(np.int32)


def quantize(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Round DCT coefficients to table multiples (stack-aware)."""
    return np.round(coeffs / table).astype(np.int32)


def dequantize(quantized: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Scale quantized coefficients back by the table, as float64
    (stack-aware)."""
    return (quantized * table).astype(np.float64)
