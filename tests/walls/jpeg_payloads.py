"""The JPEG codec's wall, and the Huffman decoder it replaced.

``jpeg_parent_payloads.json`` pins the encoder: SHA-256 of what commit
``ef0bf93`` — the last one with the per-coefficient Python encoder,
whose output ``cce7575``'s equals — produced for the bands of the
benchmark image, for every band split Table 2 runs (p4: 1, 2, 4 bands;
NCS: 2, 4, 8 sub-bands), under the split's key.  Beside them it pins
the two dense paths that the payloads do not: under ``"decoded"`` the
SHA-256 of every band's decode (``decompress(compress(band))``) for the
same splits, and under ``"image"`` that of ``benchmark_image`` at two
seeds; both were captured at ``bcc14bf``, the last commit that computed
them on whole-image arrays.  The golden is the digests alone: it
carries no commit.  Provenance: capturing at ``bcc14bf`` and at today's
code both reproduce the golden byte for byte, and so does capturing the
payload digests at ``ef0bf93``.

:func:`reference_decode` is the bit-by-bit decoder the prefix-table one
replaced, frozen: the oracle of ``tests/apps/test_huffman_decoder.py``.
"""

import hashlib

from repro.apps.jpeg import (BitReader, HuffmanCode, benchmark_image,
                             compress, decompress)
from repro.apps.jpeg.distributed import band_slices

from .harness import Wall, assert_same

BAND_COUNTS = (1, 2, 4, 8)
#: the benchmark's default seed and a held-out one
IMAGE_SEEDS = (1995, 2901)


def reference_decode(code: HuffmanCode, data: bytes, n_symbols: int) -> list:
    """One ``read_bit`` per bit, one dict probe per code length."""
    by_code = {(l, c): s for s, (c, l) in code.codes.items()}
    reader = BitReader(data)
    out = []
    for _ in range(n_symbols):
        value = length = 0
        while True:
            value = (value << 1) | reader.read_bit()
            length += 1
            if (length, value) in by_code:
                out.append(by_code[length, value])
                break
            if length > code.max_len:
                raise ValueError("invalid bitstream (no code matches)")
    return out


def band_digests() -> dict:
    image = benchmark_image()
    out = {}
    for parts in BAND_COUNTS:
        digests = []
        for band in band_slices(image.shape[0], parts):
            comp = compress(image[band])
            digest = hashlib.sha256(comp.payload)
            digest.update(repr(sorted(comp.code_lengths.items(),
                                      key=repr)).encode())
            digests.append(f"{comp.n_symbols}:{digest.hexdigest()}")
        out[str(parts)] = digests
    return out


def pixel_digest(image) -> str:
    h, w = image.shape
    return f"{h}x{w}:{hashlib.sha256(image.tobytes()).hexdigest()}"


def decode_digests() -> dict:
    image = benchmark_image()
    return {str(parts): [pixel_digest(decompress(compress(image[band])))
                         for band in band_slices(image.shape[0], parts)]
            for parts in BAND_COUNTS}


def image_digests() -> dict:
    return {str(seed): pixel_digest(benchmark_image(seed=seed))
            for seed in IMAGE_SEEDS}


def capture() -> dict:
    return {**band_digests(), "decoded": decode_digests(),
            "image": image_digests()}


WALL = Wall("jpeg_payloads", "bcc14bf", capture,
            golden="jpeg_parent_payloads.json", stamped=False,
            dump={"indent": 1, "sort_keys": True})


class TestEncoderUnchanged:
    def test_benchmark_image_bands(self):
        parent = WALL.parent()
        assert_same(band_digests(), {str(parts): parent[str(parts)]
                                     for parts in BAND_COUNTS})

    def test_every_band_decodes_to_the_same_pixels(self):
        assert_same(decode_digests(), WALL.parent()["decoded"])

    def test_the_benchmark_image_is_the_same_pixels(self):
        assert_same(image_digests(), WALL.parent()["image"])
