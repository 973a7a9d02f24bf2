"""Wall-clock micro-benchmarks of the JPEG codec substrate.

Unlike the simulation benchmarks (whose 'time' is virtual), these
measure the host interpreter doing the real work — DCT, quantization,
entropy coding — on the paper's 600 KB image, with correctness asserted
alongside.  The entropy coder is timed stage by stage as well, so a
regression lands on RLE or Huffman, encode or decode, not on "compress".
Huffman decode is timed on the 30 bands one ``paper_tables`` pass
decodes (Table 2's p4 and NCS band splits, once per platform).
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


def test_bench_dct_full_image(benchmark, image):
    blocks = blockify(image.astype(np.float64) - 128.0)
    out = benchmark(dct2, blocks)
    assert out.shape == blocks.shape


def test_bench_compress_600k(benchmark, image):
    comp = benchmark.pedantic(compress, args=(image,), rounds=3,
                              iterations=1)
    assert comp.nbytes < image.nbytes / 5


def test_bench_decompress_600k(benchmark, image, compressed):
    rec = benchmark.pedantic(decompress, args=(compressed,), rounds=3,
                             iterations=1)
    assert psnr(image, rec) > 30.0


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


def test_bench_rle_encode(benchmark, stages):
    keys = benchmark(encode_block_keys, stages["zz"])
    assert np.array_equal(keys, stages["keys"])


def test_bench_huffman_build(benchmark, stages, compressed):
    code = benchmark(HuffmanCode.from_frequencies, stages["freqs"])
    assert code.lengths == compressed.code_lengths


def test_bench_huffman_encode(benchmark, stages, compressed):
    payload = benchmark(stages["code"].encode_indices, stages["indices"])
    assert payload == compressed.payload


def test_bench_huffman_decode(benchmark, table2_bands):
    def decode():
        # fresh codes: building the prefix table is part of every
        # decompress
        return [HuffmanCode(comp.code_lengths).decode_indices(
                    comp.payload, comp.n_symbols)
                for comp, _ in table2_bands]
    decoded = benchmark.pedantic(decode, rounds=5, iterations=1)
    for out, (_, indices) in zip(decoded, table2_bands, strict=True):
        assert np.array_equal(out, indices)


def test_bench_rle_decode(benchmark, stages):
    zz = benchmark(decode_block_keys, stages["keys"], len(stages["zz"]))
    assert np.array_equal(zz, stages["zz"])


def test_bench_sim_event_rate(benchmark):
    """Throughput of the simulation kernel itself: events per second on
    a ping-pong workload (a sanity floor for the whole suite's cost)."""
    from repro.sim import Simulator

    def run_kernel(n_events=20_000):
        sim = Simulator()

        def ping():
            for _ in range(n_events // 2):
                yield sim.timeout(0.001)

        sim.process(ping())
        sim.run()
        return sim.now

    result = benchmark.pedantic(run_kernel, rounds=3, iterations=1)
    assert result == pytest.approx(10.0)
