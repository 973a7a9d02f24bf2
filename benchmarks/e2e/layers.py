"""Per-layer measurement from outside the program: folding a cProfile
run onto the repo's packages, and timing single layers through their
public functions.

Layers are the packages under ``src/repro``.  cProfile charges every
Python call and no native work, so call-heavy code is inflated:
``self_share`` locates a cost, ``wall_s`` (untraced) confirms a saving.
"""

from __future__ import annotations

import time

#: path prefix under ``src/repro/`` -> layer; first match wins, anything
#: else (stdlib, heapq, numpy, builtins, the harness) is ``other``
LAYER_PREFIXES = (
    ("sim/sharded", "sim.sharded"),
    ("sim/", "sim"),
    ("core/mts/", "core.mts"),
    ("core/mps/", "core.mps"),
    ("core/", "core.api"),
    ("protocols/", "protocols"),
    ("ethernet/", "ethernet"),
    ("atm/collective", "atm.collective"),
    ("atm/", "atm"),
    ("net/", "net"),
    ("hosts/", "hosts"),
    ("p4/", "p4"),
    ("apps/", "apps"),
    ("obs/", "obs"),
    ("diagnostics.py", "obs"),
    ("faults/", "faults"),
    ("resilience/", "resilience"),
    ("config/", "config"),
    ("registry.py", "config"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES)) \
    + ("other",)


def layer_of(filename: str) -> str:
    _, sep, rel = filename.replace("\\", "/").rpartition("/repro/")
    if sep:
        for prefix, layer in LAYER_PREFIXES:
            if rel.startswith(prefix):
                return layer
    return "other"


def fold(profile) -> dict:
    """``{layer: {"self_s", "self_share", "calls"}}`` from a finished
    ``cProfile.Profile``; shares sum to 1."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for entry in profile.getstats():
        code = entry.code
        layer = ("other" if isinstance(code, str)
                 else layer_of(code.co_filename))
        out[layer]["self_s"] += entry.inlinetime
        out[layer]["calls"] += entry.callcount
    total = sum(v["self_s"] for v in out.values())
    for v in out.values():
        v["self_share"] = v["self_s"] / total if total else 0.0
    return out


def _best(fn, repeats):
    """Minimum wall time of ``fn()`` over ``repeats`` calls: for a fixed
    sub-second loop everything above the minimum is host noise."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def direct_calls(quick=False) -> dict:
    """Sub-second loops over one layer's public functions, the best of
    five runs each (of one with ``quick``).  Each bounds what that
    layer's ``self_s`` can fall to."""
    from repro.apps.jpeg.codec import compress, decompress
    from repro.apps.jpeg.images import benchmark_image
    from repro.atm.aal import Aal5
    from repro.atm.crc import crc32_aal5
    from repro.bench.perf import (bench_kernel_event_loop,
                                  bench_mts_context_switch)
    from repro.hosts.cpu import CpuModel
    from repro.obs import NULL_REGISTRY, MetricsRegistry

    def best(fn):
        return _best(fn, repeats=1 if quick else 5)

    out = {}
    n_events = 20_000
    out["sim.timeout_chain_us"] = best(
        lambda: bench_kernel_event_loop(n_events)) / n_events * 1e6

    n_yields = 2_000
    switches = bench_mts_context_switch(n_yields)["context_switches"]
    out["core.mts.switch_us"] = best(
        lambda: bench_mts_context_switch(n_yields)) / switches * 1e6

    aal, n_pdus = Aal5(), 20
    pdu = (bytes(range(256)) * 36)[:9180]       # the IP-over-ATM MTU

    def sar():
        for _ in range(n_pdus):
            if aal.reassemble(aal.segment(pdu)) != pdu:
                raise AssertionError("AAL5 round trip corrupted the PDU")
    out["atm.aal5_sar_us_per_pdu"] = best(sar) / n_pdus * 1e6

    blob = bytes(range(256)) * 256                           # 64 KiB
    out["atm.crc32_mb_per_s"] = len(blob) / 1e6 / best(
        lambda: crc32_aal5(blob))

    n_calls = 20_000
    sizes = range(n_calls)

    def copy_miss():
        cpu = CpuModel()                # fresh memo: first 4096 keys miss
        for n in sizes:
            cpu.copy_time(n)
    warm = CpuModel()
    warm.copy_time(1460)

    def copy_hit():
        for _ in sizes:
            warm.copy_time(1460)
    out["hosts.copy_time_ns"] = best(copy_hit) / n_calls * 1e9
    out["hosts.copy_time_miss_ns"] = best(copy_miss) / n_calls * 1e9

    live = MetricsRegistry().counter("e2e.direct")
    null = NULL_REGISTRY.counter("e2e.direct")

    def incs(counter):
        def loop():
            for _ in sizes:
                counter.inc()
        return loop
    out["obs.counter_inc_ns"] = best(incs(live)) / n_calls * 1e9
    out["obs.null_inc_ns"] = best(incs(null)) / n_calls * 1e9

    image = benchmark_image()

    def codec():
        if decompress(compress(image)).shape != image.shape:
            raise AssertionError("JPEG round trip changed the image shape")
    out["apps.jpeg_codec_ms"] = best(codec) * 1e3
    return out
