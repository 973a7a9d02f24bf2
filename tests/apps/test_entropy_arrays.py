"""The array entropy coder against the per-coefficient loops it replaced.

``reference_entropy`` is the coder of commit ``ef0bf93``, frozen.  For
any zig-zag stack the array code must produce the same symbols, the same
``code_lengths`` (insertion order included: it is part of what travels
in a ``CompressedImage``) and the same payload bytes, and read them back.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.jpeg import (BitWriter, EOB, HuffmanCode, benchmark_image,
                             blockify, dct2, decode_blocks, encode_blocks,
                             quality_table, quantize, to_zigzag)
from repro.apps.jpeg.rle import (decode_block_keys, encode_block_keys, key_of,
                                 symbol_of)

from . import reference_entropy as ref
from .test_huffman_decoder import fibonacci_stream

INT32 = np.iinfo(np.int32)


def assert_same_coding(zz):
    symbols = ref.encode_blocks(zz)
    assert encode_blocks(zz) == symbols
    keys = encode_block_keys(zz)
    assert [symbol_of(k) for k in keys] == symbols
    assert [key_of(s) for s in symbols] == keys.tolist()

    lengths = ref.code_lengths(symbols)
    code = HuffmanCode.from_symbols(symbols)
    assert list(code.lengths.items()) == list(lengths.items())
    payload = ref.encode(lengths, symbols)
    assert code.encode(symbols) == payload

    decoded = code.decode(payload, len(symbols))
    assert decoded == symbols
    expected = ref.decode_blocks(symbols, len(zz))
    assert np.array_equal(expected, zz)
    for back in (decode_blocks(decoded, len(zz)),
                 decode_block_keys(keys, len(zz))):
        assert back.dtype == expected.dtype
        assert np.array_equal(back, expected)


@st.composite
def sparse_stacks(draw):
    """Mostly-zero int32 stacks, as quantized DCT blocks are: a few
    nonzeros per block, small values with the odd extreme one."""
    n_blocks = draw(st.integers(1, 12))
    values = st.one_of(st.integers(-4, 4), st.integers(-300, 300),
                       st.sampled_from([INT32.min, INT32.max]))
    zz = np.zeros((n_blocks, 64), dtype=np.int32)
    for b in range(n_blocks):
        for pos in draw(st.lists(st.integers(0, 63), max_size=8)):
            zz[b, pos] = draw(values)
    return zz


class TestSameAsLoops:
    @given(sparse_stacks())
    @settings(max_examples=150, deadline=None)
    def test_sparse_stacks(self, zz):
        assert_same_coding(zz)

    @given(hnp.arrays(np.int32, st.tuples(st.integers(1, 5), st.just(64)),
                      elements=st.integers(-3, 3)))
    @settings(max_examples=60, deadline=None)
    def test_dense_stacks(self, zz):
        assert_same_coding(zz)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.uint8])
    def test_other_integer_dtypes(self, dtype):
        zz = np.zeros((3, 64), dtype=dtype)
        zz[0, 0], zz[1, 0], zz[1, 9], zz[2, 63] = 100, 7, 5, 1
        assert_same_coding(zz)

    def test_benchmark_image_band(self):
        image = benchmark_image(64, 96)
        zz = to_zigzag(quantize(dct2(blockify(image.astype(float) - 128.0)),
                                quality_table(75)))
        assert_same_coding(zz)


def stack(n_blocks=1, **cells):
    zz = np.zeros((n_blocks, 64), dtype=np.int32)
    for where, value in cells.items():
        block, pos = where.lstrip("b").split("_")
        zz[int(block), int(pos)] = value
    return zz


class TestEdgesTheLoopsSpecialCased:
    """``encode_blocks`` broke out of its loop past the last nonzero,
    took ``last_nonzero = 0`` for an all-zero block and counted runs up
    to 62; ``_code_lengths`` short-cut a one-symbol alphabet."""

    def test_all_zero_block(self):
        zz = stack(3, b1_0=5)
        assert_same_coding(zz)
        assert encode_blocks(zz)[:2] == [("DC", 0), EOB]

    def test_one_symbol_alphabet(self):
        """All-zero AC and DC == 0 would still be two symbols (DC, EOB);
        a single symbol needs a stream HuffmanCode is handed directly."""
        zz = stack(4)
        assert_same_coding(zz)
        symbols = [EOB] * 9
        lengths = ref.code_lengths(symbols)
        code = HuffmanCode.from_symbols(symbols)
        assert code.lengths == lengths == {EOB: 1}
        assert code.encode(symbols) == ref.encode(lengths, symbols) \
            == b"\x00\x00"
        assert code.decode(b"\x00\x00", 9) == symbols

    def test_nonzero_only_at_position_63(self):
        zz = stack(2, b0_63=-7, b1_63=1)
        assert_same_coding(zz)
        assert encode_blocks(zz)[1] == ("AC", 62, -7)

    def test_dc_only(self):
        assert_same_coding(stack(3, b0_0=40, b1_0=-40, b2_0=41))

    def test_run_of_62_after_a_full_prefix(self):
        assert_same_coding(stack(1, b0_0=3, b0_1=2, b0_63=9))

    def test_negative_values_and_extreme_dc_deltas(self):
        zz = stack(3, b0_0=INT32.min, b1_0=INT32.max, b2_0=INT32.min,
                   b0_5=-1, b1_5=INT32.min, b2_62=INT32.max)
        assert_same_coding(zz)
        assert encode_blocks(zz)[0] == ("DC", int(INT32.min))
        assert ("DC", int(INT32.max) - int(INT32.min)) in encode_blocks(zz)

    def test_one_block(self):
        assert_same_coding(stack(1, b0_0=1, b0_1=1, b0_2=1))

    def test_every_position_nonzero(self):
        assert_same_coding(np.arange(1, 129, dtype=np.int32).reshape(2, 64))

    def test_no_blocks(self):
        zz = np.zeros((0, 64), dtype=np.int32)
        assert encode_blocks(zz) == ref.encode_blocks(zz) == []
        assert decode_blocks([], 0).shape == (0, 64)

    @pytest.mark.parametrize("n", [14, 18, 24])
    def test_codes_longer_than_16_bits(self, n):
        """Fibonacci weights: ``max_len == n - 1``, past TABLE_BITS from
        18 on."""
        symbols = fibonacci_stream(n)
        lengths = ref.code_lengths(symbols)
        code = HuffmanCode.from_symbols(symbols)
        assert list(code.lengths.items()) == list(lengths.items())
        assert code.max_len == n - 1
        symbols = symbols[::-1][:300] + symbols[::5]
        payload = ref.encode(lengths, symbols)
        assert code.encode(symbols) == payload
        assert code.decode(payload, len(symbols)) == symbols

    def test_codes_wider_than_a_machine_word(self):
        """70 Fibonacci weights (a stream of them would be 5e14 symbols):
        69-bit codes, which only Python ints hold."""
        weights, a, b = {}, 1, 1
        for sym in range(70):
            weights[sym] = a
            a, b = b, a + b
        code = HuffmanCode.from_frequencies(weights)
        assert code.max_len == 69
        symbols = list(range(70)) * 2
        payload = ref.encode(code.lengths, symbols)
        assert code.encode(symbols) == payload
        assert code.decode(payload, len(symbols)) == symbols

    @given(st.dictionaries(st.integers(0, 30), st.integers(1, 20),
                           min_size=1, max_size=12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_hand_made_length_tables(self, lengths, data):
        """Incomplete and over-subscribed tables: the same bytes, or the
        same refusal of the first code that does not fit its length."""
        symbols = data.draw(st.lists(st.sampled_from(sorted(lengths)),
                                     max_size=40))
        code = HuffmanCode(lengths)
        try:
            expected = ref.encode(lengths, symbols)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                code.encode(symbols)
            assert str(caught.value) == str(exc)
        else:
            assert code.encode(symbols) == expected
        assert code.encoded_bit_length(symbols) == sum(
            lengths[s] for s in symbols)

    def test_zero_length_codes_add_no_bits(self):
        code = HuffmanCode({"a": 0})
        assert code.codes["a"] == (0, 0)
        assert code.encode(["a"] * 3) == ref.encode({"a": 0}, ["a"] * 3) == b""

    def test_unknown_symbol(self):
        code = HuffmanCode.from_symbols("aab")
        with pytest.raises(KeyError, match="symbol 'z' not in code"):
            code.encode("abz")


class TestBitWriterArrays:
    @given(st.lists(st.lists(st.integers(0, 1), max_size=30), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_write_bits_is_write_bit_by_bit(self, chunks):
        one, many = BitWriter(), BitWriter()
        for chunk in chunks:
            for bit in chunk:
                one.write(bit, 1)
            many.write_bits(np.array(chunk, dtype=np.uint8))
            assert many.bit_length == one.bit_length
        assert many.getvalue() == one.getvalue()

    def test_encode_appends_to_a_writer(self):
        code = HuffmanCode.from_symbols("abracadabra")
        w = BitWriter()
        w.write(0b101, 3)
        data = code.encode("abra", w)
        assert data == w.getvalue()
        assert w.bit_length == 3 + code.encoded_bit_length("abra")
        whole = BitWriter()
        whole.write(0b101, 3)
        for sym in "abra":
            whole.write(*code.codes[sym])
        assert data == whole.getvalue()
