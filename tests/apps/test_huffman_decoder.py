"""The prefix-table Huffman decoder against the bit-by-bit one it replaced.

``reference_decode`` is the old decoder, kept as the oracle in the
``jpeg_payloads`` wall (``tests/walls/jpeg_payloads.py``): for any code
and any byte string — well-formed, truncated or corrupted — the table
decoder must return the same symbols or raise the same error.
That wall's ``TestEncoderUnchanged`` is collected here.

The decoder walks ``JUMP`` symbols per step in blocks of
``BLOCK_SYMBOLS``; ``TestWalkSeams`` puts the bit-by-bit fallback at each
of those seams, and ``TestBenchmarkScale`` decodes every band Table 2
runs against the index stream ``compress`` coded.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.jpeg import (HuffmanCode, benchmark_image, blockify,
                             compress, dct2, quality_table, quantize,
                             to_zigzag)
from repro.apps.jpeg.distributed import band_slices
from repro.apps.jpeg.huffman import BLOCK_SYMBOLS, JUMP
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
B = BLOCK_SYMBOLS


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
