"""Canonical Huffman coding over arbitrary hashable symbols.

The JPEG codec entropy-codes its RLE symbol stream with a canonical
Huffman code built from the stream's own symbol frequencies (the table
travels with the compressed data, as a real JFIF file's DHT segments
do).  Includes a bit-level writer/reader pair.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Any, Iterable, Optional

__all__ = ["HuffmanCode", "BitWriter", "BitReader"]


class BitWriter:
    """Accumulates bits msb-first into a bytearray."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0 or (nbits and value >> nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

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


_NO_SYMBOL = object()


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
        # (length, code) -> symbol, for the bit-by-bit matcher
        self._decode = {(l, c): s for s, (c, l) in self.codes.items()}
        self.max_len = max(self.lengths.values())
        # window of the next min(max_len, TABLE_BITS) bits -> (symbol,
        # length); built by the first decode()
        self._table: Optional[list] = None

    # ------------------------------------------------------------ building
    @classmethod
    def from_symbols(cls, symbols: Iterable[Any]) -> "HuffmanCode":
        freqs = Counter(symbols)
        if not freqs:
            raise ValueError("cannot build a code from an empty stream")
        return cls(cls._code_lengths(freqs))

    @staticmethod
    def _code_lengths(freqs: Counter) -> dict[Any, int]:
        if len(freqs) == 1:
            return {next(iter(freqs)): 1}
        heap = [(f, i, (sym,)) for i, (sym, f) in enumerate(
            sorted(freqs.items(), key=lambda kv: repr(kv[0])))]
        heapq.heapify(heap)
        depths: Counter = Counter()
        counter = len(heap)
        while len(heap) > 1:
            f1, _, s1 = heapq.heappop(heap)
            f2, _, s2 = heapq.heappop(heap)
            for s in s1 + s2:
                depths[s] += 1
            counter += 1
            heapq.heappush(heap, (f1 + f2, counter, s1 + s2))
        return dict(depths)

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
    def encode(self, symbols: Iterable[Any],
               writer: Optional[BitWriter] = None) -> bytes:
        w = writer or BitWriter()
        for sym in symbols:
            try:
                code, length = self.codes[sym]
            except KeyError:
                raise KeyError(f"symbol {sym!r} not in code") from None
            w.write(code, length)
        return w.getvalue()

    def _prefix_table(self) -> list:
        table = self._table
        if table is None:
            bits = min(self.max_len, self.TABLE_BITS)
            table = [None] * (1 << bits)
            for sym, (code, length) in self.codes.items():
                # a code too wide for its length (an over-subscribed
                # alphabet) can never be read back
                if 0 < length <= bits and not code >> length:
                    pad = bits - length
                    table[code << pad:(code + 1) << pad] = (
                        [(sym, length)] * (1 << pad))
            self._table = table
        return table

    def decode(self, data: bytes, n_symbols: int) -> list:
        """The first ``n_symbols`` symbols of ``data``.

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
            sym, length = self._match_bitwise(BitReader(data, start))
            append(sym)
            pos, used = divmod(start + length, 8)
            acc = nbits = 0
            if used:
                nbits = 8 - used
                acc = data[pos] & ((1 << nbits) - 1)
                pos += 1
        return out

    def _match_bitwise(self, reader: BitReader) -> tuple[Any, int]:
        code = 0
        length = 0
        while True:
            code = (code << 1) | reader.read_bit()
            length += 1
            sym = self._decode.get((length, code), _NO_SYMBOL)
            if sym is not _NO_SYMBOL:
                return sym, length
            if length > self.max_len:
                raise ValueError("invalid bitstream (no code matches)")

    def encoded_bit_length(self, symbols: Iterable[Any]) -> int:
        return sum(self.codes[s][1] for s in symbols)
