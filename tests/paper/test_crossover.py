"""Where the threads pay off: NCS improvement vs. communication share.

Sweeps the matmul problem size at a fixed node count.  Compute grows as
n^3 while the transferred bytes grow only as n^2, so smaller problems
are more communication-bound — and the NCS improvement must rise as the
communication share rises (the monotone relationship behind every
improvement column in the paper)."""

from repro.bench.figures import _one_way
from repro.bench.tables import run_cell
from repro.core.mps import ServiceMode


def test_improvement_is_hump_shaped():
    """Three regimes, one sweep:

    * tiny problems — fixed thread/message overheads exceed the hideable
      wait, so threads roughly break even (or lose a hair);
    * mid-size problems — transfers are long enough to hide behind the
      sibling's compute: NCS wins;
    * large problems — compute swamps everything and the improvement
      dilutes toward zero.
    """
    imps = {}
    for n in (32, 64, 128, 256):
        rp = run_cell("matmul-p4", "nynet", 2, n=n)
        rn = run_cell("matmul-ncs", "nynet", 2, n=n)
        assert rp.correct and rn.correct
        imps[n] = (rp.makespan_s - rn.makespan_s) / rp.makespan_s * 100
    # somewhere in the sweep the threads genuinely win...
    assert max(imps.values()) > 0.2
    # ...the sweet spot beats the overhead-dominated tiny case...
    assert max(imps[64], imps[128]) > imps[32]
    # ...and threads never cost more than a sliver anywhere
    assert min(imps.values()) > -0.5


def test_message_size_sweep_hsm_advantage():
    """The HSM-vs-NSM gap across message sizes (copies and TCP segments
    scale with bytes; traps and SAR hand-offs are flat)."""
    for nbytes in (512, 8 * 1024, 128 * 1024):
        nsm = _one_way(ServiceMode.NSM, nbytes)
        hsm = _one_way(ServiceMode.HSM, nbytes)
        assert nsm / hsm > 1.0
