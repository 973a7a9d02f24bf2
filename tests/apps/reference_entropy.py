"""The pure-Python entropy coder the array implementation replaced.

Frozen at commit ``ef0bf93`` and kept as the oracle: ``encode_blocks``
walks every coefficient, ``code_lengths`` concatenates symbol tuples
through the Huffman merges, ``encode`` pushes one code at a time through
``BitWriter`` and ``decode_blocks`` unpacks one symbol tuple at a time.
Nothing here may be fixed or sped up: the array code in
``src/repro/apps/jpeg`` must return what these return.  The two defects
that commit had are frozen with the rest (``decode_blocks`` leaks
``StopIteration`` on a short stream, ``BitWriter.write(value, 0)`` takes
any value), so the tests compare on well-formed streams and on codes
without zero-length entries only.
"""

import heapq
from collections import Counter

import numpy as np

EOB = ("EOB",)


def encode_blocks(zz: np.ndarray) -> list:
    symbols: list = []
    prev_dc = 0
    for vec in zz:
        dc = int(vec[0])
        symbols.append(("DC", dc - prev_dc))
        prev_dc = dc
        run = 0
        last_nonzero = int(np.max(np.nonzero(vec)[0])) if np.any(vec) else 0
        for i in range(1, 64):
            v = int(vec[i])
            if i > last_nonzero:
                break
            if v == 0:
                run += 1
            else:
                symbols.append(("AC", run, v))
                run = 0
        symbols.append(EOB)
    return symbols


def decode_blocks(symbols, n_blocks: int) -> np.ndarray:
    out = np.zeros((n_blocks, 64), dtype=np.int32)
    it = iter(symbols)
    prev_dc = 0
    for b in range(n_blocks):
        sym = next(it)
        if not (isinstance(sym, tuple) and sym[0] == "DC"):
            raise ValueError(f"block {b}: expected DC symbol, got {sym!r}")
        prev_dc += sym[1]
        out[b, 0] = prev_dc
        pos = 1
        while True:
            sym = next(it)
            if sym == EOB:
                break
            if not (isinstance(sym, tuple) and sym[0] == "AC"):
                raise ValueError(f"block {b}: expected AC symbol, got {sym!r}")
            _, run, value = sym
            pos += run
            if pos >= 64:
                raise ValueError(f"block {b}: AC run overflows the block")
            out[b, pos] = value
            pos += 1
    return out


def code_lengths(symbols) -> dict:
    """``HuffmanCode.from_symbols(symbols).lengths``, insertion order
    included."""
    freqs = Counter(symbols)
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


def canonical_codes(lengths: dict) -> dict:
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
        if self._nbits:
            pad = 8 - self._nbits
            return bytes(self._out) + bytes(
                [(self._acc << pad) & 0xFF])
        return bytes(self._out)


def encode(lengths: dict, symbols) -> bytes:
    """``HuffmanCode(lengths).encode(symbols)``, one ``write`` per
    symbol."""
    codes = canonical_codes(lengths)
    w = BitWriter()
    for sym in symbols:
        code, length = codes[sym]
        w.write(code, length)
    return w.getvalue()
