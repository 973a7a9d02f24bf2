"""Wall-clock benchmarks of the paper's applications.

The pytest-benchmark twin of the ``BENCH_apps.json`` half of
``python -m repro.bench --perf``: matmul and the DIF-FFT at reduced
sizes, the JPEG pipeline and its bare codec on the paper's 600 KB image,
each on a 2-node simulated Ethernet cluster and quick enough that the
suite stays interactive.

Run with ``pytest benchmarks/perf -q``.
"""

from repro.bench import perf


def test_app_matmul(sim_bench):
    sim = sim_bench(perf.bench_app_matmul)
    assert sim["correct"]


def test_app_jpeg(sim_bench):
    sim = sim_bench(perf.bench_app_jpeg)
    assert sim["correct"]


def test_app_jpeg_codec(sim_bench):
    sim = sim_bench(perf.bench_app_jpeg_codec)
    assert sim["correct"]


def test_app_fft(sim_bench):
    sim = sim_bench(perf.bench_app_fft)
    assert sim["correct"]
