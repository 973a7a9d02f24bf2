"""The prefix-table Huffman decoder against the bit-by-bit one it replaced.

``reference_decode`` is the old decoder, kept as the oracle in the
``jpeg_payloads`` wall (``tests/walls/jpeg_payloads.py``): for any code
and any byte string — well-formed, truncated or corrupted — the table
decoder must return the same symbols or raise the same error.
That wall's ``TestEncoderUnchanged`` is collected here.

The decoder walks ``JUMP`` symbols per step in blocks of
``BLOCK_SYMBOLS``, through windows of ``WINDOW_BITS`` bits;
``TestWalkSeams`` puts the bit-by-bit fallback at each of those seams
and codes across a window's end, and ``TestBenchmarkScale`` decodes every
band Table 2 runs against the index stream ``compress`` coded.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.jpeg import (HuffmanCode, benchmark_image, blockify,
                             compress, dct2, quality_table, quantize,
                             to_zigzag)
from repro.apps.jpeg import huffman
from repro.apps.jpeg.distributed import band_slices
from repro.apps.jpeg.huffman import BLOCK_SYMBOLS, JUMP, WINDOW_BITS
from repro.apps.jpeg.rle import encode_block_keys, symbol_of
from tests.walls.jpeg_payloads import (  # noqa: F401
    BAND_COUNTS, TestEncoderUnchanged, reference_decode)


def outcome(decode, *args):
    try:
        return decode(*args)
    except (EOFError, ValueError) as exc:
        return type(exc), str(exc)


def fibonacci_stream(n_symbols: int) -> list:
    """Frequencies 1, 1, 2, 3, 5, ...: the most skewed code there is,
    ``max_len == n_symbols - 1``."""
    a, b, out = 1, 1, []
    for sym in range(n_symbols):
        out += [sym] * a
        a, b = b, a + b
    return out


alphabets = st.one_of(
    st.just(["only"]),
    st.just(["zero", "one"]),
    st.integers(3, 40).map(lambda n: list(range(n))),
)


@st.composite
def streams(draw):
    alphabet = draw(alphabets)
    weights = draw(st.lists(st.integers(1, 50), min_size=len(alphabet),
                            max_size=len(alphabet)))
    symbols = [s for s, w in zip(alphabet, weights) for _ in range(w)]
    return draw(st.permutations(symbols))


class TestDecoderMatchesReference:
    @given(streams())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, symbols):
        code = HuffmanCode.from_symbols(symbols)
        data = code.encode(symbols)
        assert code.decode(data, len(symbols)) == list(symbols)
        assert reference_decode(code, data, len(symbols)) == list(symbols)

    @pytest.mark.parametrize("n", [14, 17, 24])
    def test_skewed_alphabet(self, n):
        """max_len 13 fits the table; 16 and 23 go past TABLE_BITS, so
        the rarest symbols take the bit-by-bit route mid-stream."""
        symbols = fibonacci_stream(n)
        code = HuffmanCode.from_symbols(symbols)
        assert code.max_len == n - 1
        # rare symbols first, last and in between
        symbols = symbols[::-1][:200] + symbols[:40] + symbols[::7]
        data = code.encode(symbols)
        assert code.decode(data, len(symbols)) == symbols

    @given(streams(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_by_one_byte(self, symbols, data):
        code = HuffmanCode.from_symbols(symbols)
        short = code.encode(symbols)[:-1]
        n = data.draw(st.integers(0, len(symbols)))
        assert (outcome(code.decode, short, n)
                == outcome(reference_decode, code, short, n))

    @given(streams(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bit_flipped(self, symbols, data):
        code = HuffmanCode.from_symbols(symbols)
        blob = bytearray(code.encode(symbols))
        bit = data.draw(st.integers(0, len(blob) * 8 - 1))
        blob[bit >> 3] ^= 0x80 >> (bit & 7)
        blob = bytes(blob)
        assert (outcome(code.decode, blob, len(symbols))
                == outcome(reference_decode, code, blob, len(symbols)))

    @given(st.dictionaries(st.integers(0, 30), st.integers(0, 20),
                           min_size=1, max_size=12),
           st.binary(max_size=24), st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_lengths_and_bytes(self, lengths, blob, n):
        """Hand-made length tables: incomplete, over-subscribed,
        zero-length codes.  Whatever the old decoder made of them."""
        code = HuffmanCode(lengths)
        assert (outcome(code.decode, blob, n)
                == outcome(reference_decode, code, blob, n))


class TestErrors:
    def test_data_ending_inside_a_symbol_is_eof(self):
        symbols = fibonacci_stream(14)
        code = HuffmanCode.from_symbols(symbols)
        data = code.encode(symbols)
        with pytest.raises(EOFError, match="^bitstream exhausted$"):
            code.decode(data, len(symbols) + 8)
        with pytest.raises(EOFError, match="^bitstream exhausted$"):
            code.decode(b"", 1)

    def test_bits_matching_no_code_are_a_value_error(self):
        code = HuffmanCode.from_symbols(["x"] * 3)  # the one code: "0"
        assert code.decode(b"\x00", 8) == ["x"] * 8
        with pytest.raises(ValueError, match="no code matches"):
            code.decode(b"\x20", 8)  # 0 0 1 ...
        # the verdict needs max_len + 1 bits; short of them it is an EOF
        with pytest.raises(EOFError, match="^bitstream exhausted$"):
            code.decode(b"\x01", 8)


def compressed_indices(band: np.ndarray, code: HuffmanCode) -> np.ndarray:
    """The index stream ``compress(band)`` hands ``encode_indices``."""
    zz = to_zigzag(quantize(dct2(blockify(band.astype(np.float64) - 128.0)),
                            quality_table(75)))
    keys, stream = np.unique(encode_block_keys(zz), return_inverse=True)
    return code.index(map(symbol_of, keys.tolist()))[stream]


class TestBenchmarkScale:
    @pytest.mark.parametrize("parts", BAND_COUNTS)
    def test_every_band_decodes_to_what_compress_coded(self, parts):
        image = benchmark_image()
        for band in band_slices(image.shape[0], parts):
            comp = compress(image[band])
            code = HuffmanCode(comp.code_lengths)
            expected = compressed_indices(image[band], code)
            assert code.encode_indices(expected) == comp.payload
            decoded = code.decode_indices(comp.payload, comp.n_symbols)
            assert decoded.dtype == np.intp
            assert np.array_equal(decoded, expected)


RARE = 0          # of fibonacci_stream(24): a 23-bit code, past TABLE_BITS
COMMON = (23, 22, 21, 20)   # 1- to 4-bit codes
B, W = BLOCK_SYMBOLS, WINDOW_BITS


@pytest.fixture(scope="module")
def fib24():
    code = HuffmanCode.from_symbols(fibonacci_stream(24))
    assert code.max_len == 23 > HuffmanCode.TABLE_BITS
    assert [code.lengths[s] for s in COMMON] == [1, 2, 3, 4]
    return code


class TestWalkSeams:
    @pytest.mark.parametrize("offsets", [
        (JUMP - 1,), (JUMP,), (JUMP + 1,), (B - 1,), (B,), (B + 1,),
        (0, 1, 2), (B - 1, B), (JUMP, B + JUMP, 2 * B - 1), (-1,)],
        ids=str)
    def test_rare_symbol_at_a_seam(self, fib24, offsets):
        """Symbol offsets around a jump and a block boundary take the
        bit-by-bit route; the walk resumes right after each."""
        rng = np.random.default_rng(len(offsets) * 7919 + offsets[0])
        symbols = rng.choice(COMMON, size=2 * B + 3 * JUMP).tolist()
        for at in offsets:
            symbols[at] = RARE
        data = fib24.encode(symbols)
        assert fib24.decode(data, len(symbols)) == symbols
        assert reference_decode(fib24, data, len(symbols)) == symbols
        # one symbol too many: the data ends inside it
        assert (outcome(fib24.decode, data, len(symbols) + 1)
                == outcome(reference_decode, fib24, data, len(symbols) + 1))

    def test_truncated_exactly_at_a_jump(self, fib24):
        """``JUMP`` 1-bit then ``JUMP`` 2-bit codes: the data cut after
        6 bytes ends exactly at symbol ``2 * JUMP``."""
        symbols = [23] * JUMP + [22] * (2 * JUMP) + [RARE]
        data = fib24.encode(symbols)[:6]
        assert fib24.decode(data, 2 * JUMP) == symbols[:2 * JUMP]
        for n in (2 * JUMP - 1, 2 * JUMP, 2 * JUMP + 1, 3 * JUMP):
            assert (outcome(fib24.decode, data, n)
                    == outcome(reference_decode, fib24, data, n))
        with pytest.raises(EOFError, match="^bitstream exhausted$"):
            fib24.decode(data, 2 * JUMP + 1)


    @staticmethod
    def at_bit(code, start, sym, seed):
        """1-bit codes up to bit ``start``, then ``sym``, then common
        codes: the stream and its decode, which must be the stream's,
        and what decoding one symbol more does, which must be the
        reference's."""
        rng = np.random.default_rng(seed)
        symbols = ([23] * start + [sym]
                   + rng.choice(COMMON, size=B + 3 * JUMP).tolist())
        data = code.encode(symbols)
        assert code.decode(data, len(symbols)) == symbols
        assert (outcome(code.decode, data, len(symbols) + 1)
                == outcome(reference_decode, code, data, len(symbols) + 1))
        return symbols, data

    @pytest.mark.parametrize("sym, start", [
        (22, W - 1), (21, W - 2), (21, W - 1), (20, W - 3), (20, W - 1),
        (22, W - 2), (22, W)], ids=str)
    def test_code_across_a_window_seam(self, fib24, sym, start):
        """A 2- to 4-bit code that starts before the first window's end
        and ends after it (and, as controls, one that ends at it and one
        that starts at it)."""
        symbols, data = self.at_bit(fib24, start, sym, start + sym)
        assert reference_decode(fib24, data, len(symbols)) == symbols

    @pytest.mark.parametrize("start", [W - 22, W - 16, W - 8, W - 1, W,
                                       W + 1, W + 7])
    def test_long_code_at_a_window_seam(self, fib24, start):
        """The 23-bit code, too wide for the table, across, before and
        after the first window's end."""
        symbols, data = self.at_bit(fib24, start, RARE, start)
        assert reference_decode(fib24, data, len(symbols)) == symbols

    @pytest.mark.parametrize("cut", [W // 8 - 1, W // 8, W // 8 + 1,
                                     W // 8 + 2, W // 8 + 3])
    def test_data_truncated_at_a_window_seam(self, fib24, cut):
        """The data ends just before, at and just after the first
        window's end, inside a 2-bit code or between two."""
        for lead in (W - 1, W - 2):
            symbols = [23] * lead + [22] * (4 * JUMP)
            data = fib24.encode(symbols)[:cut]
            # symbols the data holds
            whole = min(8 * cut, lead) + max(8 * cut - lead, 0) // 2
            for n in (0, lead, whole - 1, whole, whole + 1, len(symbols)):
                assert (outcome(fib24.decode, data, n)
                        == outcome(reference_decode, fib24, data, n))
            assert fib24.decode(data, whole) == symbols[:whole]
            with pytest.raises(EOFError, match="^bitstream exhausted$"):
                fib24.decode(data, whole + 1)

    @pytest.mark.parametrize("incomplete", [False, True],
                             ids=["complete", "incomplete"])
    def test_corrupt_bits_in_the_last_window(self, fib24, incomplete):
        """A stream of three and a bit windows, one bit flipped in the
        last: other symbols, an early end or (``11`` of the incomplete
        code) no code at all, as the reference has it."""
        code, alphabet = ((HuffmanCode({"a": 1, "b": 2}), ["a", "b"])
                          if incomplete else (fib24, [*COMMON, RARE]))
        rng = np.random.default_rng(incomplete)
        symbols = []
        while code.encoded_bit_length(symbols) < 3 * W + 100:
            symbols += rng.choice(alphabet, size=4 * B).tolist()
        clean = code.encode(symbols)
        assert len(clean) > 3 * W // 8
        for back in (1, 9, 40, 100):
            blob = bytearray(clean)
            bit = 8 * len(blob) - back
            blob[bit >> 3] ^= 0x80 >> (bit & 7)
            assert (outcome(code.decode, bytes(blob), len(symbols))
                    == outcome(reference_decode, code, bytes(blob),
                               len(symbols)))

    def test_no_symbols_over_many_windows(self, fib24):
        data = fib24.encode([RARE, 22] * (W // 12))
        assert len(data) > 2 * W // 8
        for blob in (data, b"\xff" * len(data)):
            for n in (0, -1):
                out = fib24.decode_indices(blob, n)
                assert out.dtype == np.intp and out.shape == (0,)

    @pytest.mark.parametrize("window_bits", [24, 32, 40])
    @given(streams(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_many_seams_match_the_reference(self, window_bits, symbols,
                                            data):
        """With windows of a few bytes, every stream crosses seams at
        every bit offset: whole, truncated or with a bit flipped, the
        decode is the reference's."""
        code = HuffmanCode.from_symbols(symbols)
        blob = bytearray(code.encode(symbols))
        if data.draw(st.booleans()):
            bit = data.draw(st.integers(0, len(blob) * 8 - 1))
            blob[bit >> 3] ^= 0x80 >> (bit & 7)
        blob = bytes(blob[:data.draw(st.integers(0, len(blob)))])
        n = data.draw(st.integers(0, len(symbols) + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(huffman, "WINDOW_BITS", window_bits)
            assert (outcome(code.decode, blob, n)
                    == outcome(reference_decode, code, blob, n))

    @pytest.mark.parametrize("window_bits", [24, 32])
    def test_long_codes_across_small_windows(self, fib24, window_bits,
                                             monkeypatch):
        """Rare symbols every few codes, so 23-bit codes cross seams of
        24- and 32-bit windows at many offsets."""
        rng = np.random.default_rng(window_bits)
        symbols = rng.choice(COMMON + (RARE,), size=3000,
                             p=[.3, .3, .2, .1, .1]).tolist()
        data = fib24.encode(symbols)
        monkeypatch.setattr(huffman, "WINDOW_BITS", window_bits)
        assert fib24.decode(data, len(symbols)) == symbols
        for cut in range(len(data) - 8, len(data)):
            assert (outcome(fib24.decode, data[:cut], len(symbols))
                    == outcome(reference_decode, fib24, data[:cut],
                               len(symbols)))


class TestEdges:
    @pytest.mark.parametrize("n", [0, -1])
    def test_no_symbols_is_an_empty_array(self, n):
        code = HuffmanCode.from_symbols("abracadabra")
        for data in (b"", code.encode("abra")):
            out = code.decode_indices(data, n)
            assert out.dtype == np.intp and out.shape == (0,)

    def test_all_zero_length_table(self):
        """``bits == 0``: a one-entry prefix table that settles nothing."""
        code = HuffmanCode({"a": 0})
        assert code.max_len == 0
        assert code.decode(b"", 0) == [] and code.decode(b"\xff", 0) == []
        with pytest.raises(EOFError, match="^bitstream exhausted$"):
            code.decode(b"", 1)
        with pytest.raises(ValueError, match="no code matches"):
            code.decode(b"\x00", 1)
        for blob in (b"", b"\x00", b"\x80\x01"):
            for n in range(-1, 4):
                assert (outcome(code.decode, blob, n)
                        == outcome(reference_decode, code, blob, n))
