"""Unit + property tests for the JPEG codec substrate."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.jpeg import (
    BitReader, BitWriter, EOB, HuffmanCode, LUMINANCE_TABLE, benchmark_image,
    blockify, compress, decompress, dct2, decode_blocks, dequantize,
    encode_blocks, from_zigzag, idct2, psnr, quality_table, quantize,
    to_zigzag, unblockify, zigzag_indices,
)
from repro.apps.jpeg.dct import BAND_ROWS, bands


class TestDct:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        blocks = rng.normal(size=(10, 8, 8))
        assert np.allclose(idct2(dct2(blocks)), blocks)

    def test_dc_of_constant_block(self):
        block = np.full((1, 8, 8), 100.0)
        coeffs = dct2(block)
        assert coeffs[0, 0, 0] == pytest.approx(800.0)  # 8 * mean
        assert np.allclose(coeffs[0].flat[1:], 0.0, atol=1e-10)

    def test_orthonormality(self):
        from repro.apps.jpeg.dct import dct_matrix
        c = dct_matrix()
        assert np.allclose(c @ c.T, np.eye(8), atol=1e-12)

    def test_matches_scipy(self):
        scipy = pytest.importorskip("scipy.fft")
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 8))
        ours = dct2(x[None])[0]
        theirs = scipy.dctn(x, norm="ortho")
        assert np.allclose(ours, theirs)

    def test_blockify_roundtrip(self):
        rng = np.random.default_rng(2)
        img = rng.normal(size=(32, 48))
        assert np.allclose(unblockify(blockify(img), 32, 48), img)

    def test_blockify_rejects_unaligned(self):
        with pytest.raises(ValueError):
            blockify(np.zeros((10, 16)))

    def test_blockify_order_row_major_blocks(self):
        img = np.arange(16 * 16).reshape(16, 16).astype(float)
        blocks = blockify(img)
        assert blocks[0, 0, 0] == 0
        assert blocks[1, 0, 0] == 8        # next block to the right
        assert blocks[2, 0, 0] == 8 * 16   # next block row

    def test_bands_end_at_the_image_edge(self):
        """``bands(80, 960)`` gave rows 64:128 and blocks 960:1920 for
        an image of 1 200 blocks; numpy's slicing clipped them."""
        assert bands(80, 960) == [(slice(0, 64), slice(0, 960)),
                                  (slice(64, 80), slice(960, 1200))]
        assert bands(8, 8) == [(slice(0, 8), slice(0, 1))]
        assert bands(0, 8) == []

    @pytest.mark.parametrize("h, w", [(8, 16), (64, 8), (72, 960),
                                      (128, 24), (200, 48)])
    def test_bands_tile_the_rows_and_the_blocks(self, h, w):
        cuts = bands(h, w)
        tops = range(0, h, BAND_ROWS)
        assert [r for r, _ in cuts] == [
            slice(top, min(top + BAND_ROWS, h)) for top in tops]
        assert [b for _, b in cuts] == [
            slice(r.start // 8 * (w // 8), r.stop // 8 * (w // 8))
            for r, _ in cuts]
        assert cuts[-1][1].stop == (h // 8) * (w // 8)


class TestQuantZigzag:
    def test_quality_table_monotone(self):
        t90 = quality_table(90)
        t10 = quality_table(10)
        assert np.all(t10 >= t90)

    def test_quality_bounds(self):
        with pytest.raises(ValueError):
            quality_table(0)
        with pytest.raises(ValueError):
            quality_table(101)

    @pytest.mark.parametrize("quality", [True, 75.5, "75"],
                             ids=["bool", "float", "str"])
    def test_an_ill_typed_quality_is_rejected(self, quality):
        """``True`` used to run at quality 1 (and record ``True``),
        ``75.5`` with a fractional scale, ``"75"`` ended in a bare
        ``TypeError`` from ``<=``."""
        message = f"quality must be an int in 1..100, got {quality!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quality_table(quality)
        with pytest.raises(ValueError, match=re.escape(message)):
            compress(np.zeros((8, 8), np.uint8), quality)

    def test_quantize_dequantize(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(scale=100, size=(5, 8, 8))
        table = quality_table(75)
        q = quantize(coeffs, table)
        back = dequantize(q, table)
        assert np.max(np.abs(back - coeffs)) <= np.max(table) / 2 + 1e-9

    def test_zigzag_starts_dc_and_covers_all(self):
        zz = zigzag_indices()
        assert zz[0] == 0 and zz[1] in (1, 8)
        assert sorted(zz.tolist()) == list(range(64))

    def test_zigzag_roundtrip(self):
        rng = np.random.default_rng(4)
        blocks = rng.integers(-50, 50, size=(7, 8, 8))
        assert np.array_equal(from_zigzag(to_zigzag(blocks)), blocks)


class TestRle:
    def test_roundtrip_simple(self):
        zz = np.zeros((3, 64), dtype=np.int32)
        zz[0, 0] = 10
        zz[1, 0] = 12
        zz[1, 5] = -3
        zz[2, 63] = 7
        syms = encode_blocks(zz)
        assert np.array_equal(decode_blocks(syms, 3), zz)

    def test_dc_delta_coding(self):
        zz = np.zeros((2, 64), dtype=np.int32)
        zz[0, 0], zz[1, 0] = 100, 103
        syms = encode_blocks(zz)
        dcs = [s for s in syms if s[0] == "DC"]
        assert dcs == [("DC", 100), ("DC", 3)]

    @given(hnp.arrays(np.int32, (4, 64), elements=st.integers(-30, 30)))
    @settings(max_examples=40)
    def test_roundtrip_property(self, zz):
        assert np.array_equal(decode_blocks(encode_blocks(zz), 4), zz)

    def test_stream_ending_early_names_the_block(self):
        """Used to leak StopIteration, which an MTS thread body (itself
        a generator) turns into a RuntimeError with no block index."""
        zz = np.zeros((3, 64), dtype=np.int32)
        zz[:, 0], zz[2, 7] = 9, 4
        syms = encode_blocks(zz)
        for cut, block in ((len(syms) - 1, 2), (len(syms) - 3, 2), (2, 1),
                           (1, 0), (0, 0)):
            with pytest.raises(ValueError,
                               match=f"^block {block}: symbol stream ended"):
                decode_blocks(syms[:cut], 3)
        with pytest.raises(ValueError, match="^block 3: symbol stream ended"):
            decode_blocks(iter(syms), 4)

    def test_surplus_symbols_rejected(self):
        zz = np.zeros((2, 64), dtype=np.int32)
        zz[1, 3] = 1
        syms = encode_blocks(zz)
        assert len(syms) == 5
        with pytest.raises(ValueError, match="3 surplus symbols after block 0"):
            decode_blocks(syms, 1)
        with pytest.raises(ValueError, match="1 surplus symbols after block 1"):
            decode_blocks(syms + [("DC", 0)], 2)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool, object])
    def test_non_integer_stack_rejected(self, dtype):
        """``int()`` used to truncate 2.9 to 2 without a word."""
        zz = np.full((2, 64), 2.9).astype(dtype)
        with pytest.raises(TypeError, match=f"got dtype {np.dtype(dtype)}"):
            encode_blocks(zz)

    def test_coefficients_wider_than_int32_rejected(self):
        zz = np.zeros((1, 64), dtype=np.int64)
        zz[0, 1] = 2 ** 31
        with pytest.raises(ValueError, match="fit in int32"):
            encode_blocks(zz)
        with pytest.raises(ValueError, match="AC coefficient does not fit"):
            decode_blocks([("DC", 0), ("AC", 0, 2 ** 31), EOB], 1)
        with pytest.raises(ValueError, match="DC coefficient does not fit"):
            decode_blocks([("DC", 2 ** 31 - 1), EOB, ("DC", 1), EOB], 2)

    def test_misplaced_symbols_name_block_and_symbol(self):
        with pytest.raises(ValueError, match=r"^block 0: expected DC symbol, "
                                             r"got \('AC', 0, 1\)$"):
            decode_blocks([("AC", 0, 1), EOB], 1)
        with pytest.raises(ValueError, match=r"^block 1: expected AC symbol, "
                                             r"got \('DC', 2\)$"):
            decode_blocks([("DC", 1), EOB, ("DC", 1), ("DC", 2), EOB], 2)
        with pytest.raises(ValueError, match=r"^block 1: expected DC symbol, "
                                             r"got \('EOB',\)$"):
            decode_blocks([("DC", 1), EOB, EOB], 2)
        with pytest.raises(ValueError,
                           match="^block 1: AC run overflows the block$"):
            decode_blocks([("DC", 1), EOB, ("DC", 1), ("AC", 30, 1),
                           ("AC", 32, 1), EOB], 2)
        # the first fault in stream order is the one reported
        with pytest.raises(ValueError, match="^block 0: AC run overflows"):
            decode_blocks([("DC", 1), ("AC", 63, 1), ("DC", 1)], 2)
        for junk in ("DC", ("DC",), ("AC", 1), ("AC", -1, 1), ("DC", 1.5),
                     None):
            with pytest.raises(ValueError, match="^not an RLE symbol: "):
                decode_blocks([("DC", 1), junk, EOB], 1)


class TestHuffman:
    def test_bitwriter_reader_roundtrip(self):
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0b0110, 4)
        w.write(1, 1)
        data = w.getvalue()
        r = BitReader(data)
        assert r.read(3) == 0b101
        assert r.read(4) == 0b0110
        assert r.read(1) == 1

    def test_bitwriter_rejects_oversize(self):
        with pytest.raises(ValueError):
            BitWriter().write(4, 2)

    def test_bitwriter_rejects_value_in_zero_bits(self):
        """``nbits and value >> nbits`` let any value through at width
        0 and ORed it into the pending bits."""
        w = BitWriter()
        w.write(0, 1)
        with pytest.raises(ValueError, match="value 5 does not fit in 0 bits"):
            w.write(5, 0)
        w.write(0, 0)
        assert w.bit_length == 1
        assert w.getvalue() == b"\x00"
        with pytest.raises(ValueError):
            w.write(-1, 3)

    def test_roundtrip(self):
        symbols = list("abracadabra") * 5
        code = HuffmanCode.from_symbols(symbols)
        data = code.encode(symbols)
        assert code.decode(data, len(symbols)) == symbols

    def test_frequent_symbols_get_short_codes(self):
        symbols = ["a"] * 100 + ["b"] * 10 + ["c"]
        code = HuffmanCode.from_symbols(symbols)
        assert code.lengths["a"] <= code.lengths["b"] <= code.lengths["c"]

    def test_single_symbol_alphabet(self):
        code = HuffmanCode.from_symbols(["x"] * 10)
        data = code.encode(["x"] * 10)
        assert code.decode(data, 10) == ["x"] * 10

    def test_compresses_skewed_stream(self):
        symbols = ["common"] * 1000 + ["rare%d" % i for i in range(8)]
        code = HuffmanCode.from_symbols(symbols)
        bits = code.encoded_bit_length(symbols)
        assert bits < len(symbols) * 4  # far below fixed 4-bit coding

    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_roundtrip_property(self, symbols):
        code = HuffmanCode.from_symbols(symbols)
        assert code.decode(code.encode(symbols), len(symbols)) == symbols


class TestCodec:
    def test_roundtrip_quality(self):
        img = benchmark_image(64, 96)
        comp = compress(img)
        rec = decompress(comp)
        assert rec.shape == img.shape
        assert psnr(img, rec) > 30.0

    def test_compression_actually_compresses(self):
        img = benchmark_image(64, 96)
        comp = compress(img)
        assert comp.nbytes < img.nbytes / 3

    def test_quality_tradeoff(self):
        img = benchmark_image(64, 96)
        hi, lo = compress(img, 90), compress(img, 20)
        assert hi.nbytes > lo.nbytes
        assert psnr(img, decompress(hi)) > psnr(img, decompress(lo))

    def test_deterministic(self):
        img = benchmark_image(64, 64)
        assert compress(img).payload == compress(img).payload

    def test_uint8_required(self):
        with pytest.raises(TypeError):
            compress(np.zeros((8, 8), dtype=np.float64))

    def test_an_image_that_is_not_2d_names_its_shape(self):
        """Used to raise "too many values to unpack"."""
        with pytest.raises(ValueError, match=re.escape("(2, 8, 8)")):
            compress(np.zeros((2, 8, 8), np.uint8))

    def test_compressed_image_is_frozen(self):
        comp = compress(benchmark_image(64, 96))
        with pytest.raises(dataclasses.FrozenInstanceError):
            comp.quality = 90

    def test_benchmark_image_is_600k(self):
        img = benchmark_image()
        assert img.nbytes == 600 * 1024
        assert img.dtype == np.uint8

    def test_benchmark_image_is_memoised_and_read_only(self):
        img = benchmark_image(64, 96, seed=7)
        assert benchmark_image(64, 96, 7) is img
        assert benchmark_image(seed=7, width=96, height=64) is img
        assert not np.array_equal(benchmark_image(64, 96, seed=8), img)
        with pytest.raises(ValueError, match="read-only"):
            img[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            img[:8] += 1
        mine = img.copy()
        mine[0, 0] ^= 1
        assert benchmark_image(64, 96, seed=7)[0, 0] != mine[0, 0]
        with pytest.raises(ValueError, match="multiples of 8"):
            benchmark_image(60, 96)

    @pytest.mark.parametrize("height", [8, 56, 64, 72, 128, 200])
    def test_bands_code_what_one_whole_image_stack_does(self, height):
        """The dense stages run ``BAND_ROWS`` rows at a time; the whole
        image as one stack of blocks gives the same symbols and pixels."""
        img = benchmark_image(height, 48, seed=height)
        table = quality_table(75)
        zz = to_zigzag(quantize(
            dct2(blockify(img.astype(np.float64) - 128.0)), table))
        comp = compress(img)
        code = HuffmanCode(comp.code_lengths)
        assert code.decode(comp.payload, comp.n_symbols) == encode_blocks(zz)
        pixels = unblockify(idct2(dequantize(from_zigzag(zz), table)),
                            height, 48) + 128.0
        assert np.array_equal(decompress(comp), np.clip(
            np.round(pixels), 0, 255).astype(np.uint8))

    @pytest.mark.parametrize("fault, message", [
        ("misplaced", r"block 19: expected DC symbol, got \('EOB',\)"),
        ("overflow", "block 20: AC run overflows the block"),
        ("ended", "block 21: symbol stream ended"),
        ("surplus", "1 surplus symbols after block 24")])
    def test_a_fault_in_a_later_band_names_its_block(self, fault, message):
        """200 x 8 pixels: bands of 8, 8, 8 and 1 blocks.  A malformed
        symbol stream is reported with the block's number in the image,
        as the whole-stream decoder reports it."""
        comp = compress(benchmark_image(200, 8, seed=3))
        symbols = HuffmanCode(comp.code_lengths).decode(comp.payload,
                                                        comp.n_symbols)
        eob = [i for i, sym in enumerate(symbols) if sym == EOB]
        cut, extra = {"misplaced": (eob[18] + 1, [EOB]),  # after block 18
                      "overflow": (eob[19] + 2, [("AC", 63, 1)]),
                      "ended": (eob[20] + 1, None),
                      "surplus": (len(symbols), [("DC", 0)])}[fault]
        broken = symbols[:cut] + (extra + symbols[cut:] if extra else [])
        code = HuffmanCode.from_symbols(broken)
        bad = dataclasses.replace(comp, n_symbols=len(broken),
                                  code_lengths=code.lengths,
                                  payload=code.encode(broken))
        with pytest.raises(ValueError, match=f"^{message}$"):
            decompress(bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            decode_blocks(broken, comp.n_blocks)

    def test_flat_image_compresses_extremely(self):
        img = np.full((64, 64), 128, dtype=np.uint8)
        comp = compress(img)
        assert comp.nbytes < 600
        assert np.array_equal(decompress(comp), img)


def float_psnr(original, reconstructed):
    """``psnr`` as it was: the mean of float64 squares."""
    mse = np.mean((original.astype(np.float64)
                   - reconstructed.astype(np.float64)) ** 2)
    return float("inf") if mse == 0 else 10.0 * np.log10(255.0 ** 2 / mse)


class TestPsnr:
    @pytest.mark.parametrize("shape", [(8, 8), (3, 5), (64, 96), (640, 960)])
    def test_equals_the_float_mean_on_random_pairs(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            a, b = rng.integers(0, 256, size=(2, *shape), dtype=np.uint8)
            assert psnr(a, b) == float_psnr(a, b)
        near = np.clip(a.astype(np.int16) + rng.integers(-2, 3, size=shape),
                       0, 255).astype(np.uint8)
        assert psnr(a, near) == float_psnr(a, near)
        zeros, full = np.zeros(shape, np.uint8), np.full(shape, 255, np.uint8)
        assert psnr(zeros, full) == float_psnr(zeros, full) == 0.0

    @pytest.mark.parametrize("shape", [(5, 7), (80, 960), (64, 3),
                                       (129, 2)])
    def test_bands_sum_what_the_whole_array_does(self, shape):
        """``psnr`` sums a band of rows at a time; on heights that are
        not a multiple of ``BAND_ROWS`` it equals the whole-array int64
        formula, and a difference in the last row alone counts."""
        rng = np.random.default_rng(shape[0])
        a, b = rng.integers(0, 256, size=(2, *shape), dtype=np.uint8)
        last = a.copy()
        last[-1, -1] ^= 1
        for other in (b, last):
            diff = np.subtract(a, other, dtype=np.int64)
            mse = int(np.vdot(diff, diff)) / diff.size
            assert psnr(a, other) == 10.0 * np.log10(255.0 ** 2 / mse)

    def test_equals_the_float_mean_on_a_decode(self):
        img = benchmark_image()
        rec = decompress(compress(img))
        assert psnr(img, rec) == float_psnr(img, rec)

    def test_identical_images_are_infinite(self):
        img = benchmark_image(64, 96)
        assert psnr(img, img.copy()) == float("inf")

    @pytest.mark.parametrize("dtype", [np.float64, np.int16, np.int64])
    def test_only_uint8_images(self, dtype):
        img = benchmark_image(64, 96)
        with pytest.raises(TypeError, match="uint8"):
            psnr(img.astype(dtype), img)
        with pytest.raises(TypeError, match="uint8"):
            psnr(img, img.astype(dtype))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            psnr(np.zeros((8, 8), np.uint8), np.zeros((8, 16), np.uint8))
