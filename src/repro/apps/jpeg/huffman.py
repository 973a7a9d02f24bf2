"""Canonical Huffman coding over arbitrary hashable symbols.

The JPEG codec entropy-codes its RLE symbol stream with a canonical
Huffman code built from the stream's own symbol frequencies (the table
travels with the compressed data, as a real JFIF file's DHT segments
do).  Includes a bit-level writer/reader pair.

A stream is coded as an array of indices into :attr:`HuffmanCode.alphabet`
a bounded piece at a time (``encode_indices`` gathers code bits per block
of symbols, ``decode_indices`` walks a window of bits by pointer doubling);
``encode`` / ``decode`` do the same for callers holding the symbols.
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import cached_property
from typing import Any, Iterable, Mapping, Optional

import numpy as np

__all__ = ["HuffmanCode", "BitWriter", "BitReader"]

#: symbols per step of the decoder's walk (four pointer doublings), per
#: block of it and of the encoder (a multiple: blocks end where the next
#: starts), and bits per window of the walk (whole bytes, at least 24)
JUMP, BLOCK_SYMBOLS, WINDOW_BITS = 16, 4096, 1 << 15


class BitWriter:
    """Accumulates bits msb-first into a bytearray."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` bits of ``value``, msb first;
        ``ValueError`` if ``value`` needs more bits than that."""
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
        """Bits written so far, the pending partial byte included."""
        return len(self._out) * 8 + self._nbits


class BitReader:
    """Reads bits msb-first from a bytes object, from bit ``start`` on."""

    def __init__(self, data: bytes, start: int = 0):
        self._data = data
        self._pos = start

    def read(self, nbits: int) -> int:
        """The next ``nbits`` bits as an int, msb first; ``EOFError``
        past the end of the data."""
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
        """The next bit (0 or 1)."""
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
        # window of the next min(max_len, TABLE_BITS) bits -> alphabet index
        # and code length (0: no code); two arrays, built by the first decode
        self._table: Optional[tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------ building
    @classmethod
    def from_symbols(cls, symbols: Iterable[Any]) -> "HuffmanCode":
        """The optimal code for a symbol stream, by its counts."""
        return cls.from_frequencies(Counter(symbols))

    @classmethod
    def from_frequencies(cls, freqs: Mapping[Any, int]) -> "HuffmanCode":
        """The optimal code for ``{symbol: count}``; ``ValueError`` for
        an empty mapping."""
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
        w = writer or BitWriter()
        for at in range(0, len(indices), BLOCK_SYMBOLS):
            block = indices[at:at + BLOCK_SYMBOLS]
            lengths = self._lengths[block]
            # bit k of the block is column (k - start of its code) of its
            # code's row: one flat gather from the bit matrix
            first = (block * self._code_bits.shape[1]
                     - (np.cumsum(lengths) - lengths))
            w.write_bits(self._code_bits.ravel()[
                np.repeat(first, lengths) + np.arange(int(lengths.sum()))])
        return w.getvalue()

    def encode(self, symbols: Iterable[Any],
               writer: Optional[BitWriter] = None) -> bytes:
        """The codes of ``symbols``, concatenated (see
        :meth:`encode_indices`); ``KeyError`` for a symbol the code does
        not have."""
        return self.encode_indices(self.index(symbols), writer)

    def encoded_bit_length(self, symbols: Iterable[Any]) -> int:
        """Bits :meth:`encode` writes for ``symbols``, before padding."""
        return int(self._lengths[self.index(symbols)].sum())

    # ------------------------------------------------------------- decoding
    def _prefix_table(self) -> tuple[np.ndarray, np.ndarray]:
        if self._table is None:
            bits = min(self.max_len, self.TABLE_BITS)
            index = np.zeros(1 << bits, dtype=np.int32)
            length = np.zeros(1 << bits, dtype=np.int32)
            for i, (code, l) in enumerate(self.codes.values()):
                # a code too wide for its length (an over-subscribed
                # alphabet) can never be read back
                if 0 < l <= bits and not code >> l:
                    span = slice(code << (bits - l), (code + 1) << (bits - l))
                    index[span], length[span] = i, l
            self._table = index, length
        return self._table

    def decode_indices(self, data: bytes, n_symbols: int) -> np.ndarray:
        """The alphabet indices of the first ``n_symbols`` symbols of
        ``data``.

        ``step[q]``, where the symbol at bit ``q`` of a ``WINDOW_BITS`` window
        ends by the prefix table (``q`` if the table cannot settle it
        there), doubled four times is ``jump``: one Python step per
        ``JUMP`` symbols, and gathers fill in the rest.  A block's first unsettled symbol opens
        the next window if the window's end cut it, else goes to
        :meth:`_match_bitwise`.

        Raises ``EOFError("bitstream exhausted")`` when the data ends
        inside a symbol and ``ValueError`` when ``max_len + 1`` bits
        match no code.
        """
        index = self._prefix_table()[0]
        bits = len(index).bit_length() - 1
        out = np.empty(max(n_symbols, 0), dtype=np.intp)
        done = p = base = 0
        end, last = -1, False
        while done < n_symbols:
            if p - base + bits > end and not last:
                base, end, last, window, step, jump = self._walk_window(
                    data, p >> 3, bits)
            need = min(BLOCK_SYMBOLS, n_symbols - done)
            q, starts = p - base, []
            for _ in range(-(-need // JUMP)):
                starts.append(q)
                q = jump.item(q)
            p = base + q
            at = np.empty((JUMP, len(starts)), dtype=np.int32)
            at[0] = starts
            for k in range(1, JUMP):  # row k: k symbols after each start
                step.take(at[k - 1], out=at[k])
            at = at.T.ravel()[:need]
            good = int(np.append(step.take(at) == at, True).argmax())
            out[done:done + good] = index.take(window.take(at[:good]))
            done += good
            if good < need:  # a long code, the end of the data, no code
                p = base + int(at[good])
                if p - base + bits > end and not last:
                    continue  # or a code across the window's end
                out[done], used = self._match_bitwise(BitReader(data, p))
                done += 1
                p += used
        return out

    def _walk_window(self, data: bytes, byte: int, bits: int) -> tuple:
        """``(8 * byte, end, last, window, step, jump)``: the walk's arrays
        for bits 0 to ``end`` from ``byte`` on (``last``: to the end)."""
        stop = min(byte + WINDOW_BITS // 8, len(data))
        end = 8 * (stop - byte)
        # the window at every bit position, zero-padded past the window:
        # the 24 bits from each byte on, shifted once per bit offset
        raw = np.frombuffer(data[byte:stop] + bytes(3),
                            dtype=np.uint8).astype(np.int32)
        wide = raw[:-2] << 16 | raw[1:-1] << 8 | raw[2:]
        window = ((wide[:, None] >> (24 - bits - np.arange(8, dtype=np.int32)))
                  & ((1 << bits) - 1)).ravel()[:end + 1]
        step = (np.arange(end + 1, dtype=np.int32)
                + self._prefix_table()[1].take(window))
        # a code reaching past the window is no more settled than no code
        over = np.flatnonzero(step > end)
        step[over] = over
        jump = step
        for _ in range(JUMP.bit_length() - 1):
            jump = jump.take(jump)
        return 8 * byte, end, stop == len(data), window, step, jump

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
