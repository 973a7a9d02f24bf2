"""The distributed JPEG pipeline (paper §5.2, Table 2, Figs 15-18).

"In this implementation half of the computer participate in compression
of an image file while the second half reconstruct the compressed
image."  Five stages: distribution of the uncompressed image,
compression, transmission of the compressed image, decompression, and
combining at the host.

Process layout (host-node model, as in the other two applications):
process 0 is the host (file I/O, distribution, combining); of the N
worker processes, 1..N/2 compress and N/2+1..N decompress, compressor
``i`` feeding decompressor ``i + N/2`` (the left/right halves of
Fig 15).

* :func:`run_jpeg_p4` — single-threaded workers, one image band per
  compressor.
* :func:`run_jpeg_ncs` — two threads per worker (Fig 15's thread
  pairs), two sub-bands per compressor, and the host's Fig 17
  choreography: thread 0 reads the file and ``NCS_unblock``\\ s thread 1,
  which was parked in ``NCS_block()``.

The bands are really compressed and decompressed (repro.apps.jpeg.codec)
while the calibrated per-block costs are charged to the simulated CPUs;
the combined output must have the source's shape and a PSNR above 30 dB.
A band of the benchmark image is coded once per process
(:func:`_coded_band`): the cells of Table 2 share their bands.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ...core import NcsRuntime
from ...core.mts.sync import ThreadEvent
from ...p4 import P4Runtime
from ..common import (AppResult, DATA, RESULT, ShapeError, platform_of,
                      run_p4_programs)
from .codec import compress, decompress, psnr
from .dct import BLOCK
from .images import benchmark_image
from .quant import quality_table

__all__ = ["run_jpeg_p4", "run_jpeg_ncs", "band_slices"]

COMPRESSED_TAG = 5


def band_slices(height: int, parts: int) -> list[slice]:
    """Split ``height`` rows into ``parts`` block-aligned bands."""
    if type(parts) is not int or parts < 1:
        raise ValueError(f"parts must be an int >= 1, got {parts!r}")
    rows, rest = divmod(height, BLOCK)
    if rest or rows % parts:
        raise ShapeError(
            f"{height} rows do not divide into {parts} bands of whole blocks")
    step = rows // parts * BLOCK
    return [slice(i * step, (i + 1) * step) for i in range(parts)]


def _source(image, quality: int, seed: int) -> np.ndarray:
    """The image to run, checked before anything is spawned."""
    quality_table(quality)
    image = benchmark_image(seed=seed) if image is None else np.asarray(image)
    if image.dtype != np.uint8 or image.ndim != 2 or any(
            side % BLOCK for side in image.shape):
        raise ValueError(f"image must be 2-D uint8 with sides a multiple "
                         f"of {BLOCK}, got {image.dtype} {image.shape}")
    return image


@lru_cache(maxsize=32)
def _coded_band(seed: int, start: int, stop: int, quality: int):
    """Rows ``start:stop`` of ``benchmark_image(seed=seed)``, coded:
    ``(CompressedImage, its read-only decode)``.  Table 2 has 15 distinct
    bands per (seed, quality); the simulated CPUs are charged the
    calibrated costs whether a band is cached or not."""
    comp = compress(benchmark_image(seed=seed)[start:stop], quality)
    band = decompress(comp)
    band.setflags(write=False)
    return comp, band


def _band_codec(image, quality: int, seed: int):
    """``(code, decode)`` for one run: ``code(sl, band)`` compresses a
    band and ``decode(sl, comp)`` restores one.  A caller's ``image``
    is always coded; the benchmark image's bands come from
    :func:`_coded_band`, whose decode is returned only for the very
    object it coded."""
    if image is not None:
        return (lambda sl, band: compress(band, quality),
                lambda sl, comp: decompress(comp))

    def decode(sl, comp):
        cached, band = _coded_band(seed, sl.start, sl.stop, quality)
        return band if comp is cached else decompress(comp)
    return (lambda sl, band: _coded_band(seed, sl.start, sl.stop,
                                         quality)[0], decode)


def _check(image, assembled) -> bool:
    """The assembled output has the source's shape and is a faithful
    reconstruction of it (PSNR > 30 dB)."""
    return (assembled is not None
            and assembled.shape == image.shape
            and psnr(image, assembled) > 30.0)


def _nodes(rt) -> tuple:
    """``(costs, n_nodes)`` of ``rt``'s cluster, whose node count must
    split into compressor/decompressor pairs."""
    costs, n_nodes = platform_of(rt.cluster)
    if n_nodes < 2 or n_nodes % 2:
        raise ShapeError(f"JPEG pipeline needs an even number of nodes "
                         f">= 2, not {n_nodes}")
    return costs, n_nodes


def run_jpeg_p4(rt: P4Runtime, quality: int = 75, seed: int = 1995,
                image=None) -> AppResult:
    """Fig 15's pipeline with single-threaded p4 processes."""
    costs, n_nodes = _nodes(rt)
    code, decode = _band_codec(image, quality, seed)
    image = _source(image, quality, seed)
    half = n_nodes // 2
    slices = band_slices(image.shape[0], half)
    assembled = np.zeros_like(image)

    def host(p4):
        # stage 1: read the image file, then distribute the bands
        yield from p4.compute(image.nbytes * costs.file_io_per_byte_s,
                              "file-read")
        for i in range(1, half + 1):
            band = image[slices[i - 1]]
            yield from p4.send(DATA, i, (slices[i - 1], band), band.nbytes)
        # stage 5: combine the decompressed bands, write the output
        for _ in range(half):
            msg = yield from p4.recv(type_=RESULT)
            sl, band = msg.data
            assembled[sl] = band
        yield from p4.compute(image.nbytes * costs.file_io_per_byte_s,
                              "file-write")

    def compressor(p4):
        msg = yield from p4.recv(type_=DATA, from_=0)
        sl, band = msg.data
        n_blocks = band.size // (BLOCK * BLOCK)
        yield from p4.compute(costs.jpeg_compress_time(n_blocks),
                              "jpeg-compress")
        comp = code(sl, band)
        yield from p4.send(COMPRESSED_TAG, p4.pid + half, (sl, comp),
                           comp.nbytes)

    def decompressor(p4):
        msg = yield from p4.recv(type_=COMPRESSED_TAG)
        sl, comp = msg.data
        yield from p4.compute(costs.jpeg_decompress_time(comp.n_blocks),
                              "jpeg-decompress")
        band = decode(sl, comp)
        yield from p4.send(RESULT, 0, (sl, band), band.nbytes)

    procs = [rt.spawn(0, host)]
    for i in range(1, half + 1):
        procs.append(rt.spawn(i, compressor))
    for i in range(half + 1, n_nodes + 1):
        procs.append(rt.spawn(i, decompressor))
    makespan = run_p4_programs(rt.cluster, procs)
    return AppResult("jpeg", "p4", costs.platform, n_nodes, makespan,
                     _check(image, assembled),
                     details={"quality": quality,
                              "image_bytes": image.nbytes})


def run_jpeg_ncs(rt: NcsRuntime, quality: int = 75, seed: int = 1995,
                 image=None) -> AppResult:
    """Figs 16-18: two threads per worker; the host's thread 1 parks in
    ``NCS_block()`` until thread 0 has read the image file."""
    costs, n_nodes = _nodes(rt)
    code, decode = _band_codec(image, quality, seed)
    image = _source(image, quality, seed)
    half = n_nodes // 2
    T = 2
    # two sub-bands per compressor: index = (node_i - 1) * T + t
    slices = band_slices(image.shape[0], half * T)
    assembled = np.zeros_like(image)
    write_ready = ThreadEvent()

    host_tids: dict[int, int] = {}
    node_tids: dict[tuple[int, int], int] = {}

    def sub_slice(i: int, t: int) -> slice:
        return slices[(i - 1) * T + t]

    def host_thread0(ctx):
        # Fig 17 Compute_image1: read file, wake thread 1, distribute
        yield ctx.compute(image.nbytes * costs.file_io_per_byte_s,
                          "file-read")
        yield ctx.unblock(host_tids[1])
        for i in range(1, half + 1):
            sl = sub_slice(i, 0)
            band = image[sl]
            yield ctx.send(node_tids[(i, 0)], i, (sl, band), band.nbytes,
                           tag=DATA)
        for _ in range(half):
            msg = yield ctx.recv(tag=RESULT)
            sl, band = msg.data
            assembled[sl] = band
        # write only after thread 1 has combined its half too
        yield write_ready.wait()
        yield ctx.compute(image.nbytes * costs.file_io_per_byte_s,
                          "file-write")

    def host_thread1(ctx):
        # Fig 17 Compute_image2: blocked until the image file is read
        yield ctx.block()
        for i in range(1, half + 1):
            sl = sub_slice(i, 1)
            band = image[sl]
            yield ctx.send(node_tids[(i, 1)], i, (sl, band), band.nbytes,
                           tag=DATA)
        for _ in range(half):
            msg = yield ctx.recv(tag=RESULT)
            sl, band = msg.data
            assembled[sl] = band
        write_ready.signal()

    def compressor_thread(ctx, i: int, t: int):
        msg = yield ctx.recv(from_process=0, tag=DATA)
        sl, band = msg.data
        n_blocks = band.size // (BLOCK * BLOCK)
        yield ctx.compute(costs.jpeg_compress_time(n_blocks),
                          "jpeg-compress")
        comp = code(sl, band)
        pair = i + half
        yield ctx.send(node_tids[(pair, t)], pair, (sl, comp), comp.nbytes,
                       tag=COMPRESSED_TAG)

    def decompressor_thread(ctx, i: int, t: int):
        msg = yield ctx.recv(tag=COMPRESSED_TAG)
        sl, comp = msg.data
        yield ctx.compute(costs.jpeg_decompress_time(comp.n_blocks),
                          "jpeg-decompress")
        band = decode(sl, comp)
        yield ctx.send(host_tids[t], 0, (sl, band), band.nbytes, tag=RESULT)

    host_tids[0] = rt.t_create(0, host_thread0, name="host-t0")
    host_tids[1] = rt.t_create(0, host_thread1, name="host-t1")
    for i in range(1, half + 1):
        for t in range(T):
            node_tids[(i, t)] = rt.t_create(
                i, compressor_thread, (i, t), name=f"comp{i}-t{t}")
    for i in range(half + 1, n_nodes + 1):
        for t in range(T):
            node_tids[(i, t)] = rt.t_create(
                i, decompressor_thread, (i, t), name=f"dec{i}-t{t}")

    makespan = rt.run(max_events=50_000_000)
    return AppResult("jpeg", "ncs", costs.platform, n_nodes, makespan,
                     _check(image, assembled),
                     details={"quality": quality, "threads": T,
                              "image_bytes": image.nbytes})
