"""Run-length coding of quantized zig-zag blocks (JPEG-style).

Per block: the DC coefficient is delta-coded against the previous
block's DC; AC coefficients become ``(zero_run, value)`` pairs with an
end-of-block marker once the tail is all zeros.

The symbol stream is an int64 array, one packed *key* per symbol
(:func:`encode_block_keys` / :func:`decode_block_keys`), so a 600 KB
image's 66 000 symbols are a handful of whole-array operations.  The
``("DC", delta)`` / ``("AC", run, value)`` / ``EOB`` tuples are what a
key *means* — the Huffman stage orders its alphabet by their ``repr`` —
and are only ever built for the couple of hundred distinct symbols of a
stream (:func:`symbol_of` / :func:`key_of`); :func:`encode_blocks` and
:func:`decode_blocks` are the tuple-list view of the same arrays.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["EOB", "encode_blocks", "decode_blocks", "encode_block_keys",
           "decode_block_keys", "symbol_of", "key_of"]

#: end-of-block marker symbol
EOB = ("EOB",)

# key = kind << 40 | run << 34 | (value + 2**33): a DC delta of two int32
# coefficients needs 33 bits and a sign, an AC run is at most 62
_DC, _AC, _EOB = 0, 1, 2
_RUN_SHIFT, _KIND_SHIFT = 34, 40
_VALUE_BIAS = 1 << 33
_EOB_KEY = _EOB << _KIND_SHIFT
_INT32 = np.iinfo(np.int32)


def _pack(kind: int, run, value):
    return (kind << _KIND_SHIFT) | (run << _RUN_SHIFT) | (value + _VALUE_BIAS)


def _unpack(keys):
    """(kind, run, value) of a key or an array of keys."""
    return (keys >> _KIND_SHIFT, (keys >> _RUN_SHIFT) & 63,
            (keys & ((1 << _RUN_SHIFT) - 1)) - _VALUE_BIAS)


def symbol_of(key: int) -> tuple:
    """The symbol tuple a packed key stands for."""
    kind, run, value = _unpack(int(key))
    if kind == _DC:
        return ("DC", value)
    if kind == _AC:
        return ("AC", run, value)
    return EOB


def key_of(symbol) -> int:
    """The packed key of a symbol tuple; ``ValueError`` for anything
    that is not ``("DC", d)``, ``("AC", run, v)`` or ``EOB``."""
    if symbol == EOB:
        return _EOB_KEY
    if isinstance(symbol, tuple) and symbol:
        kind, fields = symbol[0], symbol[1:]
        if (all(isinstance(f, (int, np.integer)) for f in fields)
                and all(abs(f) < _VALUE_BIAS for f in fields)):
            if kind == "DC" and len(fields) == 1:
                return _pack(_DC, 0, int(fields[0]))
            if kind == "AC" and len(fields) == 2 and fields[0] >= 0:
                # every run past 62 overflows the block, 63 stands for all
                return _pack(_AC, min(int(fields[0]), 63), int(fields[1]))
    raise ValueError(f"not an RLE symbol: {symbol!r}")


def _check_stack(zz: np.ndarray) -> None:
    if zz.ndim != 2 or zz.shape[1] != 64:
        raise ValueError("expected (n_blocks, 64) zig-zag vectors")
    if not np.issubdtype(zz.dtype, np.integer):
        raise TypeError(
            f"expected integer zig-zag vectors, got dtype {zz.dtype}")
    if not np.can_cast(zz.dtype, np.int32) and zz.size and (
            zz.min() < _INT32.min or zz.max() > _INT32.max):
        raise ValueError("zig-zag coefficients must fit in int32")


def encode_block_keys(zz: np.ndarray, dc: int = 0) -> np.ndarray:
    """Encode a (n_blocks, 64) zig-zag stack into the packed keys of its
    symbol stream: per block one DC key, one AC key per nonzero
    coefficient, one EOB key; the first DC is a delta against ``dc``."""
    _check_stack(zz)
    n_blocks = len(zz)
    ac = zz[:, 1:]
    blk, pos = np.nonzero(ac)           # row-major: already stream order
    n_ac = np.bincount(blk, minlength=n_blocks)
    # slot of each block's DC key: 2 keys (DC, EOB) per earlier block
    # plus the earlier blocks' AC keys
    dc_slot = np.cumsum(n_ac) - n_ac + 2 * np.arange(n_blocks)
    ac_slot = np.arange(len(blk)) + 2 * blk + 1
    # zeros since the previous nonzero of the same block (or since the DC)
    run = pos.copy()
    run[1:] -= np.where(blk[1:] == blk[:-1], pos[:-1] + 1, 0)

    keys = np.empty(len(blk) + 2 * n_blocks, dtype=np.int64)
    keys[dc_slot] = _pack(
        _DC, 0, np.diff(zz[:, 0].astype(np.int64), prepend=dc))
    keys[ac_slot] = _pack(_AC, run, ac[blk, pos].astype(np.int64))
    keys[dc_slot + n_ac + 1] = _EOB_KEY
    return keys


def decode_block_keys(keys: np.ndarray, n_blocks: int, first: int = 0,
                      dc: int = 0) -> np.ndarray:
    """Inverse of :func:`encode_block_keys`: exactly ``n_blocks`` blocks'
    worth of keys back into a (n_blocks, 64) int32 stack.  The first
    malformed spot of the stream is a ``ValueError`` naming its block.
    A band of a stream passes its ``first`` block's number and the ``dc``
    before it."""
    kind, run, value = _unpack(np.asarray(keys, dtype=np.int64))
    eob = kind == _EOB
    is_ac = kind == _AC
    block = np.cumsum(eob) - eob + first  # EOBs before each key, + first
    starts = np.ones(len(kind), dtype=bool)
    starts[1:] = eob[:-1]
    # place of each AC coefficient: 1 + run per AC key since the block's
    # DC key, whose own contribution to the running sum is 0
    steps = np.cumsum(np.where(is_ac, run + 1, 0))
    dc_at = np.flatnonzero(starts)
    pos = steps - np.repeat(steps[dc_at], np.diff(dc_at, append=len(kind)))

    in_range = block < first + n_blocks
    misplaced = (starts != (kind == _DC)) & in_range
    overflow = is_ac & (pos >= 64) & in_range
    bad = np.flatnonzero(misplaced | overflow)
    if len(bad):
        i = bad[0]
        if overflow[i] and not misplaced[i]:
            raise ValueError(f"block {block[i]}: AC run overflows the block")
        raise ValueError(
            f"block {block[i]}: expected {'DC' if starts[i] else 'AC'} "
            f"symbol, got {symbol_of(keys[i])!r}")
    n_done = int(eob.sum())
    if n_done < n_blocks:
        raise ValueError(f"block {first + n_done}: symbol stream ended")
    if not in_range.all():
        raise ValueError(
            f"{int((~in_range).sum())} surplus symbols after block "
            f"{first + n_blocks - 1}")

    dc = np.cumsum(value[dc_at]) + dc
    coeff = value[is_ac]
    for what, v in (("DC", dc), ("AC", coeff)):
        if v.size and (v.min() < _INT32.min or v.max() > _INT32.max):
            raise ValueError(f"{what} coefficient does not fit in int32")
    out = np.zeros((n_blocks, 64), dtype=np.int32)
    out[:, 0] = dc
    out[block[is_ac] - first, pos[is_ac]] = coeff
    return out


def encode_blocks(zz: np.ndarray) -> list:
    """Encode a (n_blocks, 64) zig-zag stack into a flat symbol list."""
    alphabet, inverse = np.unique(encode_block_keys(zz), return_inverse=True)
    symbols = [symbol_of(key) for key in alphabet]
    return list(map(symbols.__getitem__, inverse.tolist()))


def decode_blocks(symbols: Iterable, n_blocks: int) -> np.ndarray:
    """Inverse of :func:`encode_blocks`."""
    symbols = list(symbols)
    alphabet = {sym: i for i, sym in enumerate(dict.fromkeys(symbols))}
    keys = np.array([key_of(sym) for sym in alphabet], dtype=np.int64)
    index = np.fromiter(map(alphabet.__getitem__, symbols), dtype=np.intp,
                        count=len(symbols))
    return decode_block_keys(keys[index], n_blocks)
