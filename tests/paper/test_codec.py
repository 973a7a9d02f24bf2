"""The JPEG codec substrate on the paper's 600 KB image, stage by stage.

Each stage of ``compress`` / ``decompress`` (DCT, RLE, Huffman build,
encode and decode) is checked on its own against what the whole codec
produced, so a fault lands on RLE or Huffman, encode or decode, not on
"compress".  Huffman decode runs on the 30 bands one ``paper_tables``
pass decodes (Table 2's p4 and NCS band splits, once per platform).
"""

import numpy as np
import pytest

from repro.apps.jpeg import (
    HuffmanCode, benchmark_image, blockify, compress, dct2, decompress, psnr,
    quality_table, quantize, to_zigzag,
)
from repro.apps.jpeg.distributed import band_slices
from repro.apps.jpeg.rle import (
    decode_block_keys, encode_block_keys, symbol_of,
)
from repro.bench.paper_data import TABLE_NODES


@pytest.fixture(scope="module")
def image():
    return benchmark_image()


@pytest.fixture(scope="module")
def compressed(image):
    return compress(image)


def test_dct_full_image(image):
    blocks = blockify(image.astype(np.float64) - 128.0)
    assert dct2(blocks).shape == blocks.shape


def test_compress_600k(image, compressed):
    assert compressed.nbytes < image.nbytes / 5


def test_decompress_600k(image, compressed):
    assert psnr(image, decompress(compressed)) > 30.0


def entropy_stages(image):
    """What each entropy stage of ``compress(image)`` is handed."""
    zz = to_zigzag(quantize(
        dct2(blockify(image.astype(np.float64) - 128.0)), quality_table(75)))
    keys, stream, counts = np.unique(
        encode_block_keys(zz), return_inverse=True, return_counts=True)
    freqs = dict(zip(map(symbol_of, keys.tolist()), counts.tolist()))
    code = HuffmanCode.from_frequencies(freqs)
    indices = code.index(freqs)[stream]
    return {"zz": zz, "freqs": freqs, "code": code, "indices": indices,
            "keys": keys[stream]}


@pytest.fixture(scope="module")
def stages(image, compressed):
    out = entropy_stages(image)
    assert out["code"].lengths == compressed.code_lengths
    return out


@pytest.fixture(scope="module")
def table2_bands(image):
    """(compressed band, the index stream ``compress`` coded) for every
    band a ``paper_tables`` pass decodes: N/2 p4 bands and N NCS
    sub-bands per Table 2 row."""
    bands = [image[sl]
             for nodes in TABLE_NODES["table2"].values() for n in nodes
             for parts in (n // 2, n)
             for sl in band_slices(image.shape[0], parts)]
    assert len(bands) == 30
    return [(compress(band), entropy_stages(band)["indices"])
            for band in bands]


def test_rle_encode(stages):
    assert np.array_equal(encode_block_keys(stages["zz"]), stages["keys"])


def test_huffman_build(stages, compressed):
    code = HuffmanCode.from_frequencies(stages["freqs"])
    assert code.lengths == compressed.code_lengths


def test_huffman_encode(stages, compressed):
    payload = stages["code"].encode_indices(stages["indices"])
    assert payload == compressed.payload


def test_huffman_decode(table2_bands):
    # fresh codes: building the prefix table is part of every decompress
    for comp, indices in table2_bands:
        out = HuffmanCode(comp.code_lengths).decode_indices(
            comp.payload, comp.n_symbols)
        assert np.array_equal(out, indices)


def test_rle_decode(stages):
    zz = decode_block_keys(stages["keys"], len(stages["zz"]))
    assert np.array_equal(zz, stages["zz"])


def test_sim_timer_loop():
    """The simulation kernel itself on a ping-pong timer workload: 10 000
    timeouts of 1 ms end at 10 s."""
    from repro.sim import Simulator

    sim = Simulator()

    def ping():
        for _ in range(10_000):
            yield sim.timeout(0.001)

    sim.process(ping())
    sim.run()
    assert sim.now == pytest.approx(10.0)
