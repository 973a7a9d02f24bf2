"""The codec's memory ceiling at paper size.

``compress``, ``decompress`` and the benchmark image's renderer compute
their dense stages one band of ``BAND_ROWS`` rows at a time, and
``psnr`` sums in int64: none of them holds a float64 copy of the whole
600 KiB image (4.7 MiB each).  Their entropy stages are bounded too:
RLE keys are coded and decoded a band at a time, ``encode_indices``
gathers code bits a block of symbols at a time and ``decode_indices``
builds its walk's arrays for one window of bits at a time.  The bounds
are on ``tracemalloc``'s peak (numpy reports its buffers to it), in MiB;
whole-image float stages peaked at 14.7 (render), 21.4 (compress), 24.5
(decompress) and 9.4 (psnr), and whole-stream entropy stages at 10.1
(compress), 8.7 (decompress), 4.8 (psnr), 8.6 (``decode_indices``) and
6.2 (``encode_indices``).
"""

import tracemalloc

import pytest

from repro.apps.jpeg import (IMAGE_HEIGHT, IMAGE_WIDTH, HuffmanCode, compress,
                             decompress, psnr)
from repro.apps.jpeg.images import _render

MIB = 2 ** 20


def traced_peak(fn, *args):
    """``(fn(*args), the peak of memory traced while it ran)``, in
    bytes above what was traced when it started."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def stages():
    """Each stage's traced peak at paper size, the image rendered
    afresh (``benchmark_image`` is memoised)."""
    image, peaks = traced_peak(_render.__wrapped__, IMAGE_HEIGHT,
                               IMAGE_WIDTH, 1995)
    out = {"benchmark_image": peaks}
    comp, out["compress"] = traced_peak(compress, image)
    decoded, out["decompress"] = traced_peak(decompress, comp)
    _, out["psnr"] = traced_peak(psnr, image, decoded)
    code = HuffmanCode(comp.code_lengths)  # the entropy stages alone
    indices, out["decode_indices"] = traced_peak(
        code.decode_indices, comp.payload, comp.n_symbols)
    _, out["encode_indices"] = traced_peak(code.encode_indices, indices)
    return out


@pytest.mark.parametrize("stage, bound_mib", [
    ("benchmark_image", 4), ("compress", 12), ("decompress", 12),
    ("psnr", 6)])
def test_traced_peak_at_paper_size(stages, stage, bound_mib):
    """The ceilings of the banded dense stages alone."""
    assert stages[stage] <= bound_mib * MIB, (
        f"{stage} peaked at {stages[stage] / MIB:.1f} MiB")


@pytest.mark.parametrize("stage, bound_mib", [
    ("compress", 5), ("decompress", 5), ("psnr", 2),
    ("decode_indices", 3), ("encode_indices", 1.5)])
def test_traced_peak_with_banded_entropy(stages, stage, bound_mib):
    """The ceilings once the entropy stages are banded too."""
    assert stages[stage] <= bound_mib * MIB, (
        f"{stage} peaked at {stages[stage] / MIB:.1f} MiB")
