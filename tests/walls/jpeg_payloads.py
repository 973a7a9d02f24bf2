"""The JPEG encoder's wall, and the Huffman decoder it replaced.

``jpeg_parent_payloads.json`` pins the encoder: SHA-256 of what commit
``ef0bf93`` — the last one with the per-coefficient Python encoder,
whose output ``cce7575``'s equals — produced for the bands of the
benchmark image, for every band split Table 2 runs (p4: 1, 2, 4 bands;
NCS: 2, 4, 8 sub-bands).  The golden is the digests alone: it carries
no commit.  Provenance: capturing at ``ef0bf93`` and at today's code
both reproduce the golden byte for byte.

:func:`reference_decode` is the bit-by-bit decoder the prefix-table one
replaced, frozen: the oracle of ``tests/apps/test_huffman_decoder.py``.
"""

import hashlib

from repro.apps.jpeg import BitReader, HuffmanCode, benchmark_image, compress
from repro.apps.jpeg.distributed import band_slices

from .harness import Wall, assert_same

BAND_COUNTS = (1, 2, 4, 8)


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


WALL = Wall("jpeg_payloads", "ef0bf93", band_digests,
            golden="jpeg_parent_payloads.json", stamped=False,
            dump={"indent": 1, "sort_keys": True})


class TestEncoderUnchanged:
    def test_benchmark_image_bands(self):
        assert_same(band_digests(), WALL.parent())
