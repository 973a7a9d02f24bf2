"""Canonical Huffman coding over arbitrary hashable symbols.

The JPEG codec entropy-codes its RLE symbol stream with a canonical
Huffman code built from the stream's own symbol frequencies (the table
travels with the compressed data, as a real JFIF file's DHT segments
do).  Includes a bit-level writer/reader pair.

A stream is coded as an array of indices into :attr:`HuffmanCode.alphabet`
(``encode_indices`` / ``decode_indices``); ``encode`` / ``decode`` are
the same thing for callers holding the symbols themselves.
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import cached_property
from typing import Any, Iterable, Mapping, Optional

import numpy as np

__all__ = ["HuffmanCode", "BitWriter", "BitReader"]


class BitWriter:
    """Accumulates bits msb-first into a bytearray."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def write_bits(self, bits: np.ndarray) -> None:
        """Append an array of 0/1 values, first element first."""
        pending = np.unpackbits(np.array([self._acc], dtype=np.uint8))
        bits = np.concatenate([pending[8 - self._nbits:], bits])
        whole = len(bits) & ~7
        self._out += np.packbits(bits[:whole]).tobytes()
        self._nbits = len(bits) - whole
        self._acc = (int(np.packbits(bits[whole:])[0]) >> (8 - self._nbits)
                     if self._nbits else 0)

    def getvalue(self) -> bytes:
        """Flush (zero-padded) and return the bitstream."""
        if self._nbits:
            pad = 8 - self._nbits
            return bytes(self._out) + bytes(
                [(self._acc << pad) & 0xFF])
        return bytes(self._out)

    @property
    def bit_length(self) -> int:
        return len(self._out) * 8 + self._nbits


class BitReader:
    """Reads bits msb-first from a bytes object, from bit ``start`` on."""

    def __init__(self, data: bytes, start: int = 0):
        self._data = data
        self._pos = start

    def read(self, nbits: int) -> int:
        out = 0
        for _ in range(nbits):
            byte = self._pos >> 3
            if byte >= len(self._data):
                raise EOFError("bitstream exhausted")
            bit = (self._data[byte] >> (7 - (self._pos & 7))) & 1
            out = (out << 1) | bit
            self._pos += 1
        return out

    def read_bit(self) -> int:
        return self.read(1)


class HuffmanCode:
    """A canonical Huffman code over a symbol alphabet."""

    #: widest window the decode table is indexed by; longer codes (the
    #: rarest symbols of a very skewed alphabet) are matched bit by bit
    TABLE_BITS = 16

    def __init__(self, lengths: dict[Any, int]):
        if not lengths:
            raise ValueError("empty alphabet")
        self.lengths = dict(lengths)
        self.codes = self._canonical_codes(self.lengths)
        #: the symbols in canonical (code) order; what an index means
        self.alphabet = list(self.codes)
        self._index = {sym: i for i, sym in enumerate(self.alphabet)}
        self._lengths = np.array([l for _, l in self.codes.values()],
                                 dtype=np.intp)
        # codes wider than their length, which only an over-subscribed
        # hand-made length table has: they cannot be written
        self._unfit = [i for i, (c, l) in enumerate(self.codes.values())
                       if c >> l]
        # (length, code) -> alphabet index, for the bit-by-bit matcher
        self._decode = {(l, c): i
                        for i, (c, l) in enumerate(self.codes.values())}
        self.max_len = max(self.lengths.values())
        # window of the next min(max_len, TABLE_BITS) bits -> (alphabet
        # index, length); built by the first decode
        self._table: Optional[list] = None

    # ------------------------------------------------------------ building
    @classmethod
    def from_symbols(cls, symbols: Iterable[Any]) -> "HuffmanCode":
        return cls.from_frequencies(Counter(symbols))

    @classmethod
    def from_frequencies(cls, freqs: Mapping[Any, int]) -> "HuffmanCode":
        if not freqs:
            raise ValueError("cannot build a code from an empty stream")
        return cls(cls._code_lengths(freqs))

    @staticmethod
    def _code_lengths(freqs: Mapping[Any, int]) -> dict[Any, int]:
        if len(freqs) == 1:
            return {next(iter(freqs)): 1}
        leaves = sorted(freqs, key=repr)
        # heap of (weight, tie-break, node): nodes 0..n-1 are the leaves,
        # every merge appends one; a node is never compared
        heap = [(freqs[sym], node, node) for node, sym in enumerate(leaves)]
        heapq.heapify(heap)
        parent = [0] * len(leaves)
        popped = []         # leaves, in the order the merges reached them
        while len(heap) > 1:
            node = len(parent)
            weight = 0
            for _ in range(2):
                w, _, child = heapq.heappop(heap)
                weight += w
                parent[child] = node
                if child < len(leaves):
                    popped.append(child)
            parent.append(node)
            heapq.heappush(heap, (weight, node + 1, node))
        depth = [0] * len(parent)
        for node in range(len(parent) - 2, -1, -1):   # the root is last
            depth[node] = depth[parent[node]] + 1
        return {leaves[leaf]: depth[leaf] for leaf in popped}

    @staticmethod
    def _canonical_codes(lengths: dict[Any, int]) -> dict[Any, tuple[int, int]]:
        ordered = sorted(lengths.items(), key=lambda kv: (kv[1], repr(kv[0])))
        codes = {}
        code = 0
        prev_len = ordered[0][1]
        for sym, length in ordered:
            code <<= (length - prev_len)
            codes[sym] = (code, length)
            code += 1
            prev_len = length
        return codes

    # ------------------------------------------------------------- encoding
    def index(self, symbols: Iterable[Any]) -> np.ndarray:
        """The alphabet index of each symbol; ``KeyError`` for a symbol
        the code does not have."""
        try:
            return np.fromiter(map(self._index.__getitem__, symbols),
                               dtype=np.intp)
        except KeyError as exc:
            raise KeyError(f"symbol {exc.args[0]!r} not in code") from None

    @cached_property
    def _code_bits(self) -> np.ndarray:
        """Row i: the bits of code i, msb first, in its first ``length``
        columns.  Python ints in, so a code may be wider than a word."""
        bits = np.zeros((len(self.alphabet), max(self.max_len, 1)),
                        dtype=np.uint8)
        for row, (code, length) in zip(bits, self.codes.values()):
            if length and not code >> length:
                row[:length] = np.frombuffer(
                    format(code, f"0{length}b").encode(), dtype=np.uint8) - 48
        return bits

    def encode_indices(self, indices: np.ndarray,
                       writer: Optional[BitWriter] = None) -> bytes:
        """The codes of ``alphabet[i] for i in indices``, concatenated."""
        if self._unfit:
            unfit = np.isin(indices, self._unfit)
            if unfit.any():
                code, length = self.codes[
                    self.alphabet[indices[unfit.argmax()]]]
                raise ValueError(
                    f"value {code} does not fit in {length} bits")
        lengths = self._lengths[indices]
        # bit k of the stream is column (k - start of its code) of its
        # code's row: one flat gather from the bit matrix
        first = (indices * self._code_bits.shape[1]
                 - (np.cumsum(lengths) - lengths))
        w = writer or BitWriter()
        w.write_bits(self._code_bits.ravel()[
            np.repeat(first, lengths) + np.arange(int(lengths.sum()))])
        return w.getvalue()

    def encode(self, symbols: Iterable[Any],
               writer: Optional[BitWriter] = None) -> bytes:
        return self.encode_indices(self.index(symbols), writer)

    def encoded_bit_length(self, symbols: Iterable[Any]) -> int:
        return int(self._lengths[self.index(symbols)].sum())

    # ------------------------------------------------------------- decoding
    def _prefix_table(self) -> list:
        table = self._table
        if table is None:
            bits = min(self.max_len, self.TABLE_BITS)
            table = [None] * (1 << bits)
            for i, (code, length) in enumerate(self.codes.values()):
                # a code too wide for its length (an over-subscribed
                # alphabet) can never be read back
                if 0 < length <= bits and not code >> length:
                    pad = bits - length
                    table[code << pad:(code + 1) << pad] = (
                        [(i, length)] * (1 << pad))
            self._table = table
        return table

    def decode_indices(self, data: bytes, n_symbols: int) -> np.ndarray:
        """The alphabet indices of the first ``n_symbols`` symbols of
        ``data``.

        Raises ``EOFError("bitstream exhausted")`` when the data ends
        inside a symbol and ``ValueError`` when ``max_len + 1`` bits
        match no code.
        """
        table = self._prefix_table()
        bits = len(table).bit_length() - 1
        out: list = []
        append = out.append
        acc = nbits = 0  # the low nbits of acc: read from data, not yet used
        pos = 0          # next byte of data to read
        for _ in range(n_symbols):
            if nbits < bits:
                chunk = data[pos:pos + 4]
                pos += len(chunk)
                acc = (acc << (8 * len(chunk))) | int.from_bytes(chunk, "big")
                nbits += 8 * len(chunk)
            # past the end of data the window is padded with zeros; an
            # entry reaching into the padding does not count
            entry = table[acc >> (nbits - bits) if nbits >= bits
                          else acc << (bits - nbits)]
            if entry is not None and entry[1] <= nbits:
                nbits -= entry[1]
                acc &= (1 << nbits) - 1
                append(entry[0])
                continue
            # a code longer than the window, the end of the data, or bits
            # that match nothing: settle it one bit at a time
            start = pos * 8 - nbits
            index, length = self._match_bitwise(BitReader(data, start))
            append(index)
            pos, used = divmod(start + length, 8)
            acc = nbits = 0
            if used:
                nbits = 8 - used
                acc = data[pos] & ((1 << nbits) - 1)
                pos += 1
        return np.array(out, dtype=np.intp)

    def decode(self, data: bytes, n_symbols: int) -> list:
        """The first ``n_symbols`` symbols of ``data``; raises as
        :meth:`decode_indices` does."""
        return list(map(self.alphabet.__getitem__,
                        self.decode_indices(data, n_symbols).tolist()))

    def _match_bitwise(self, reader: BitReader) -> tuple[int, int]:
        code = 0
        length = 0
        while True:
            code = (code << 1) | reader.read_bit()
            length += 1
            index = self._decode.get((length, code))
            if index is not None:
                return index, length
            if length > self.max_len:
                raise ValueError("invalid bitstream (no code matches)")
