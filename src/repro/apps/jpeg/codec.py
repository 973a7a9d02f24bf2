"""The JPEG-style codec: DCT -> quantize -> zig-zag -> RLE -> Huffman.

A real (if grayscale-only) compression pipeline: ``compress`` produces a
genuine entropy-coded bitstream whose byte length is what the simulated
network carries, and ``decompress`` reconstructs the image; round-trip
PSNR at the default quality is well above 30 dB on the benchmark image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dct import BAND_ROWS, BLOCK, bands, blockify, dct2, idct2, unblockify
from .huffman import HuffmanCode
from .quant import dequantize, quality_table, quantize
from .rle import EOB, decode_block_keys, encode_block_keys, key_of, symbol_of
from .zigzag import from_zigzag, to_zigzag

__all__ = ["CompressedImage", "compress", "decompress", "psnr"]


@dataclass(frozen=True)
class CompressedImage:
    """A compressed band/image: the bitstream plus decode metadata
    (frozen: the distributed pipeline shares one across its runs)."""

    height: int
    width: int
    quality: int
    n_symbols: int
    code_lengths: dict
    payload: bytes

    @property
    def nbytes(self) -> int:
        """Wire size: bitstream + a modest header/table estimate."""
        return len(self.payload) + 64 + 2 * len(self.code_lengths)

    @property
    def n_blocks(self) -> int:
        """8x8 blocks in the image, each one DC key of the stream."""
        return (self.height // BLOCK) * (self.width // BLOCK)


def compress(image: np.ndarray, quality: int = 75) -> CompressedImage:
    """Compress a grayscale image (uint8, dims multiples of 8)."""
    if image.dtype != np.uint8:
        raise TypeError("expected a uint8 grayscale image")
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape "
                         f"{image.shape}")
    h, w = image.shape
    table = quality_table(quality)
    parts, dc = [np.empty(0, dtype=np.int64)], 0
    for rows, _ in bands(h, w):
        pixels = image[rows].astype(np.float64)
        pixels -= 128.0
        zz = to_zigzag(quantize(dct2(blockify(pixels)), table))
        parts.append(encode_block_keys(zz, dc))
        dc = int(zz[-1, 0]) if len(zz) else 0
    keys = np.concatenate(parts)
    del parts
    # the symbol stream stays an array of packed keys; only its distinct
    # symbols become the tuples the code is keyed (and ordered) by
    keys, stream, counts = np.unique(keys, return_inverse=True,
                                     return_counts=True)
    symbols = [symbol_of(key) for key in keys.tolist()]
    code = HuffmanCode.from_frequencies(dict(zip(symbols, counts.tolist())))
    payload = code.encode_indices(code.index(symbols)[stream])
    return CompressedImage(h, w, quality, len(stream),
                           code.lengths, payload)


def decompress(data: CompressedImage) -> np.ndarray:
    """Reconstruct the image from a :class:`CompressedImage`."""
    code = HuffmanCode(data.code_lengths)
    keys = np.array([key_of(sym) for sym in code.alphabet], dtype=np.int64)
    stream = keys[code.decode_indices(data.payload, data.n_symbols)]
    ends = np.flatnonzero(stream == key_of(EOB)) + 1  # where blocks end
    table = quality_table(data.quality)
    image = np.empty((data.height, data.width), dtype=np.uint8)
    start = dc = 0
    for rows, blocks in bands(data.height, data.width):
        # a band's keys end at its last EOB; the last band, or the one the
        # EOBs run out in, takes the rest of the stream and its faults
        inner = blocks.stop < data.n_blocks and blocks.stop <= len(ends)
        stop = ends[blocks.stop - 1] if inner else len(stream)
        zz = decode_block_keys(stream[start:stop], blocks.stop - blocks.start,
                               blocks.start, dc)
        start, dc = stop, int(zz[-1, 0]) if len(zz) else 0
        band = image[rows]
        pixels = unblockify(idct2(dequantize(from_zigzag(zz), table)),
                            *band.shape)
        pixels += 128.0
        band[...] = np.clip(np.round(pixels, out=pixels), 0, 255, out=pixels)
    return image


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB of two uint8 images.

    The squared differences are summed exactly in int64, band by band,
    so the mean is the one float ``np.mean`` of their float64 squares gives.
    """
    if original.dtype != np.uint8 or reconstructed.dtype != np.uint8:
        raise TypeError("expected two uint8 grayscale images")
    if original.shape != reconstructed.shape:
        raise ValueError("shape mismatch")
    total = 0
    for top in range(0, len(original), BAND_ROWS):
        diff = np.subtract(original[top:top + BAND_ROWS],
                           reconstructed[top:top + BAND_ROWS], dtype=np.int64)
        total += int(np.vdot(diff, diff))
    mse = total / original.size
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 ** 2 / mse)
