"""Integration tests for the three paper applications (small instances)."""

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.apps.common import DATA, build_platform_cluster, run_p4_programs
from repro.apps.fft import (
    bit_reverse_indices, dif_fft_reference, make_samples, run_fft_ncs,
    run_fft_p4, DifWorkerState,
)
from repro.apps.jpeg import compress, distributed
from repro.apps.jpeg.distributed import band_slices, run_jpeg_ncs, run_jpeg_p4
from repro.apps.jpeg.images import benchmark_image
from repro.apps.matmul import (
    _row_slices, make_matrices, run_matmul_ncs, run_matmul_p4,
)
from repro.bench.tables import cell_spec
from repro.config import run_scenario
from repro.core.mps import ServiceMode
from repro.p4 import P4Runtime


class TestMatmul:
    @pytest.mark.parametrize("platform", ["ethernet", "nynet"])
    @pytest.mark.parametrize("n_nodes", [1, 2, 4])
    def test_p4_correct(self, platform, n_nodes):
        r = run_matmul_p4(platform, n_nodes, n=32)
        assert r.correct
        assert r.makespan_s > 0

    @pytest.mark.parametrize("platform", ["ethernet", "nynet"])
    @pytest.mark.parametrize("n_nodes", [1, 2, 4])
    def test_ncs_correct(self, platform, n_nodes):
        r = run_matmul_ncs(platform, n_nodes, n=32)
        assert r.correct

    def test_ncs_over_hsm(self):
        r = run_matmul_ncs("nynet", 2, n=32, mode=ServiceMode.HSM)
        assert r.correct

    def test_more_nodes_faster(self):
        t1 = run_matmul_p4("ethernet", 1, n=64).makespan_s
        t4 = run_matmul_p4("ethernet", 4, n=64).makespan_s
        assert t4 < t1

    def test_nynet_beats_ethernet(self):
        """Every paper table's platform ordering."""
        te = run_matmul_p4("ethernet", 2, n=64).makespan_s
        tn = run_matmul_p4("nynet", 2, n=64).makespan_s
        assert tn < te

    def test_ncs_never_slower_at_scale(self):
        """The paper's core result, at the full problem size."""
        rp = run_matmul_p4("ethernet", 4, n=128)
        rn = run_matmul_ncs("ethernet", 4, n=128)
        assert rn.makespan_s < rp.makespan_s

    def test_row_slices_validation(self):
        with pytest.raises(ValueError):
            _row_slices(10, 3)

    def test_matrices_deterministic(self):
        a1, b1 = make_matrices(16, seed=5)
        a2, b2 = make_matrices(16, seed=5)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def local_stages_per_block(m, comm_stages, a, b):
    """``DifWorkerState.run_local_stages`` as it was at commit
    ``ef0bf93``, frozen: the twiddles re-derived for every block of
    every stage."""
    u = np.concatenate([a, b])
    size = len(u)
    for step in range(comm_stages, int(np.log2(m))):
        m_blk = m >> step
        h = m_blk // 2
        for start in range(0, size, m_blk):
            j = np.arange(h)
            k = (j * (1 << step)) % (m // 2)
            w = np.exp(-2j * np.pi * k / m)
            top = u[start:start + h]
            bot = u[start + h:start + m_blk]
            x = top + bot
            y = (top - bot) * w
            u[start:start + h] = x
            u[start + h:start + m_blk] = y
    return u


class TestFftAlgorithm:
    @pytest.mark.parametrize("m,p", [(16, 2), (64, 4), (256, 8), (512, 16)])
    def test_reference_matches_numpy(self, m, p):
        s = make_samples(m, 1)[0]
        assert np.allclose(dif_fft_reference(s, p), np.fft.fft(s))

    def test_bit_reverse_is_involution(self):
        idx = bit_reverse_indices(64)
        assert np.array_equal(idx[idx], np.arange(64))

    def test_worker_state_validation(self):
        with pytest.raises(ValueError):
            DifWorkerState(0, 3, 16, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            DifWorkerState(0, 2, 12, np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("m", [64, 128, 256, 512])
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_local_stages_equal_per_block_loop(self, m, p):
        """Every worker count of Table 3 (p4: 1-8 nodes, NCS: two threads
        each).  ``==``, not ``allclose``: one twiddle vector per stage is
        the same arithmetic, element for element."""
        r = m // (2 * p)
        a, b = make_samples(r, 2, seed=m + p)
        state = DifWorkerState(p - 1, p, m, a, b)
        expected = local_stages_per_block(m, state.comm_stages, a, b)
        out = state.run_local_stages()
        assert out.dtype == expected.dtype and out.shape == (2 * r,)
        assert (out == expected).all()
        assert np.array_equal(state.a, a) and np.array_equal(state.b, b)

    def test_butterfly_counts(self):
        st = DifWorkerState(0, 4, 64, np.zeros(8, complex),
                            np.zeros(8, complex))
        assert st.comm_stages == 2
        assert st.local_stages == 4
        assert st.n_butterflies() == 8 * 6

    def test_comm_step_counts_match_paper(self):
        """log2 N steps for p4 (Fig 19), log2 2N for NCS with the last
        one local (Fig 20)."""
        p4_worker = DifWorkerState(0, 4, 512, np.zeros(64, complex),
                                   np.zeros(64, complex))
        assert p4_worker.comm_stages == 2
        ncs_worker = DifWorkerState(0, 8, 512, np.zeros(32, complex),
                                    np.zeros(32, complex))
        assert ncs_worker.comm_stages == 3
        # the final NCS exchange (d == 1) pairs threads of one process
        d_last = ncs_worker.n_workers >> ncs_worker.comm_stages
        assert d_last == 1


class TestFftDistributed:
    @pytest.mark.parametrize("platform", ["ethernet", "nynet"])
    def test_p4_correct(self, platform):
        r = run_fft_p4(platform, 2, m=64, n_sets=2)
        assert r.correct

    @pytest.mark.parametrize("platform", ["ethernet", "nynet"])
    def test_ncs_correct(self, platform):
        r = run_fft_ncs(platform, 2, m=64, n_sets=2)
        assert r.correct

    def test_single_node(self):
        assert run_fft_p4("ethernet", 1, m=64, n_sets=1).correct
        assert run_fft_ncs("ethernet", 1, m=64, n_sets=1).correct

    def test_four_nodes(self):
        assert run_fft_ncs("nynet", 4, m=256, n_sets=1).correct

    def test_scaling_direction(self):
        t1 = run_fft_p4("nynet", 1).makespan_s
        t4 = run_fft_p4("nynet", 4).makespan_s
        assert t4 < t1


class TestJpegDistributed:
    def test_band_slices(self):
        sls = band_slices(64, 4)
        assert len(sls) == 4
        assert sls[0] == slice(0, 16)
        with pytest.raises(ValueError):
            band_slices(64, 3)

    @pytest.mark.parametrize("platform", ["ethernet", "nynet"])
    def test_p4_pipeline_correct(self, platform):
        img = benchmark_image(64, 96)
        r = run_jpeg_p4(platform, 2, image=img)
        assert r.correct

    @pytest.mark.parametrize("platform", ["ethernet", "nynet"])
    def test_ncs_pipeline_correct(self, platform):
        img = benchmark_image(64, 96)
        r = run_jpeg_ncs(platform, 2, image=img)
        assert r.correct

    def test_four_nodes(self):
        img = benchmark_image(64, 96)
        assert run_jpeg_ncs("ethernet", 4, image=img).correct

    @pytest.mark.parametrize("parts", [True, 2.0, "2"])
    def test_band_slices_reject_parts_that_are_not_an_int(self, parts):
        """``band_slices(64, True)`` used to return one band."""
        with pytest.raises(ValueError, match=re.escape(
                f"parts must be an int >= 1, got {parts!r}")):
            band_slices(64, parts)

    def test_band_slices_reject_a_partial_block_row(self):
        """``band_slices(644, 1)`` used to return ``[slice(0, 640)]``."""
        with pytest.raises(ValueError, match="^644 rows do not divide"):
            band_slices(644, 1)
        with pytest.raises(ValueError, match="^64 rows do not divide"):
            band_slices(64, 3)

    @pytest.mark.parametrize("run", [run_jpeg_p4, run_jpeg_ncs])
    @pytest.mark.parametrize("image", [
        np.zeros((644, 96), np.uint8), np.zeros((64, 92), np.uint8),
        np.zeros((64, 96), np.int16), np.zeros((2, 64, 96), np.uint8)],
        ids=["644x96", "64x92", "int16", "3-D"])
    def test_an_image_the_codec_cannot_take_is_rejected_up_front(
            self, run, image, monkeypatch):
        """A 644-row image used to run on its first 640 rows and report
        ``correct = False``."""
        monkeypatch.setattr(distributed, "build_platform_cluster", None)
        with pytest.raises(ValueError, match="^image must be 2-D uint8 "):
            run("ethernet", 2, image=image)

    @pytest.mark.parametrize("driver", ["jpeg-p4", "jpeg-ncs"])
    @pytest.mark.parametrize("quality", ["75", True, 75.5, 0, 101])
    def test_an_ill_typed_quality_is_rejected_up_front(
            self, driver, quality, monkeypatch):
        """``"75"`` used to end in "p4 programs never finished", ``True``
        ran at quality 1 and reported ``correct = False``, ``75.5`` ran."""
        monkeypatch.setattr(distributed, "build_platform_cluster", None)
        with pytest.raises(ValueError, match=re.escape(f"got {quality!r}")):
            run_scenario(cell_spec(driver, "ethernet", 2, quality=quality))

    def test_odd_node_count_rejected(self):
        with pytest.raises(ValueError):
            run_jpeg_p4("ethernet", 3)

    def test_ncs_beats_p4_full_size(self):
        """Table 2's headline: the threaded pipeline wins clearly."""
        rp = run_jpeg_p4("ethernet", 4)
        rn = run_jpeg_ncs("ethernet", 4)
        assert rn.makespan_s < 0.92 * rp.makespan_s

    def test_improvement_largest_of_three_apps(self):
        """The paper's improvement ordering: JPEG >> matmul."""
        jp = run_jpeg_p4("ethernet", 4)
        jn = run_jpeg_ncs("ethernet", 4)
        mp = run_matmul_p4("ethernet", 4, n=128)
        mn = run_matmul_ncs("ethernet", 4, n=128)
        jpeg_imp = (jp.makespan_s - jn.makespan_s) / jp.makespan_s
        mm_imp = (mp.makespan_s - mn.makespan_s) / mp.makespan_s
        assert jpeg_imp > mm_imp


class TestBandCache:
    """Each distinct band of the benchmark image is coded once per
    process; a caller's image is always coded."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """How often the pipeline ran ``compress`` / ``decompress``."""
        counts = {"compress": 0, "decompress": 0}
        for name in counts:
            plain = getattr(distributed, name)

            def counted(*args, _name=name, _plain=plain):
                counts[_name] += 1
                return _plain(*args)
            monkeypatch.setattr(distributed, name, counted)
        return counts

    @pytest.mark.parametrize("run", [run_jpeg_p4, run_jpeg_ncs])
    def test_a_cell_run_again_codes_nothing_and_ends_the_same(
            self, run, calls):
        first = run("ethernet", 4)
        calls.update(compress=0, decompress=0)
        again = run("ethernet", 4)
        assert calls == {"compress": 0, "decompress": 0}
        assert replace(again, cluster=None) == replace(first, cluster=None)
        assert (again.cluster.metrics.snapshot()
                == first.cluster.metrics.snapshot())

    def test_a_callers_image_is_always_coded(self, calls):
        image = benchmark_image()    # the very array the cache codes
        for _ in range(2):
            assert run_jpeg_p4("ethernet", 4, image=image).correct
        assert calls == {"compress": 4, "decompress": 4}

    def test_only_the_cached_object_gets_the_cached_decode(self, calls):
        code, decode = distributed._band_codec(None, 75, 1995)
        sl = slice(0, 160)
        cached = code(sl, benchmark_image()[sl])
        band = decode(sl, cached)
        calls.update(compress=0, decompress=0)
        assert decode(sl, cached) is band
        assert calls["decompress"] == 0
        twin = compress(benchmark_image()[sl])
        assert twin == cached and twin is not cached
        assert np.array_equal(decode(sl, twin), band)
        assert calls["decompress"] == 1
        with pytest.raises(ValueError, match="read-only"):
            band[0, 0] = 0

    def test_the_cache_is_bounded(self):
        bound = distributed._coded_band.cache_info().maxsize
        assert bound == 32
        for start in range(0, 8 * (bound + 2), 8):
            distributed._coded_band(1995, start, start + 8, 75)
        assert distributed._coded_band.cache_info().currsize == bound


class TestP4Programs:
    def test_a_crashed_program_is_raised_before_its_waiting_peers(self):
        """Used to raise "p4 programs never finished: ['p4:1']" for the
        peer still in ``recv``, hiding why it waits."""
        cluster = build_platform_cluster("ethernet", 2)
        rt = P4Runtime(cluster)

        def crasher(p4):
            yield from p4.compute(0.001, "work")
            raise KeyError("boom")

        def waiter(p4):
            yield from p4.recv(type_=DATA, from_=0)

        procs = [rt.spawn(0, crasher), rt.spawn(1, waiter)]
        with pytest.raises(KeyError, match="boom") as info:
            run_p4_programs(cluster, procs)
        assert any(note.startswith("(in simulated process 'p4:0' at t=")
                   for note in info.value.__notes__)
        assert not procs[1].triggered
