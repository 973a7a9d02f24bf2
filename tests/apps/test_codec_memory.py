"""The codec's memory ceiling at paper size.

``compress``, ``decompress`` and the benchmark image's renderer compute
their dense stages one band of ``BAND_ROWS`` rows at a time, and
``psnr`` sums in int64: none of them holds a float64 copy of the whole
600 KiB image (4.7 MiB each).  The bounds are on ``tracemalloc``'s peak
(numpy reports its buffers to it), in MiB; whole-image float stages
peaked at 14.7 (render), 21.4 (compress), 24.5 (decompress) and 9.4
(psnr).
"""

import tracemalloc

import pytest

from repro.apps.jpeg import (IMAGE_HEIGHT, IMAGE_WIDTH, compress, decompress,
                             psnr)
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
    return out


@pytest.mark.parametrize("stage, bound_mib", [
    ("benchmark_image", 4), ("compress", 12), ("decompress", 12),
    ("psnr", 6)])
def test_traced_peak_at_paper_size(stages, stage, bound_mib):
    assert stages[stage] <= bound_mib * MIB, (
        f"{stage} peaked at {stages[stage] / MIB:.1f} MiB")
