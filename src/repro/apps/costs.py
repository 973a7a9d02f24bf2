"""Calibrated application compute costs.

The paper reports wall-clock seconds on ~1994 SPARCstations running
unoptimized compiled C.  Our applications compute *real* results with
numpy (verified against references), but charge the simulator these
calibrated per-operation constants so the simulated clock reproduces
the paper's single-node rows; the multi-node rows are then genuine
predictions of the communication/overlap model.

Derivations (see EXPERIMENTS.md for the paper-vs-measured ledger):

* **Matmul** — Table 1, 1 node: 25.77 s (ELC), 24.89 s (IPX) for a
  128x128 double matrix product = 128^3 multiply-add pairs.  Minus the
  ~1 s the model attributes to host->node->host transfers, that is
  ~11.8 us per inner-loop iteration on the ELC — slow by modern
  standards, but this is measured 1995 reality (unblocked C triple loop,
  doubles, 33 MHz, compiler of the day); we calibrate to it rather than
  argue with it.
* **FFT** — Table 3, 1 node: 5.76 s (ELC) / 5.25 s (IPX) for 8 sample
  sets of a 512-point DIF FFT = 8 * (512/2) * 9 = 18,432 butterflies,
  plus per-set distribution/collection.  The poor scaling in the
  paper's own table (5.76 -> 3.91 s at 8 nodes) indicates a large
  serial fraction at the host; we model host per-set assembly work
  explicitly.
* **JPEG** — Table 2 has no 1-node row; constants are fitted so the
  2-node rows match: compress+decompress of the 600 KB image ~ 7.4 s
  on the ELC pair, split per 8x8 block (9,600 blocks at 384 pixels^2
  ... 600 KB grayscale = 9,600 blocks of 64 pixels).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AppCosts", "ELC_COSTS", "IPX_COSTS", "costs_for_platform"]


@dataclass(frozen=True)
class AppCosts:
    """Per-operation compute costs for one workstation model (seconds)."""

    platform: str
    #: one inner-loop multiply-add of the naive matmul
    matmul_op_s: float
    #: one complex DIF butterfly (add, sub, complex twiddle multiply)
    fft_butterfly_s: float
    #: host-side work per FFT sample point per set (input prep, final
    #: bit-reversal assembly, result copy) — the serial fraction
    fft_host_per_point_s: float
    #: JPEG compression of one 8x8 block (DCT + quantize + entropy-code)
    jpeg_compress_block_s: float
    #: JPEG decompression of one 8x8 block
    jpeg_decompress_block_s: float
    #: host file I/O per byte (reading the source image / writing output)
    file_io_per_byte_s: float

    def __post_init__(self) -> None:
        for f in ("matmul_op_s", "fft_butterfly_s", "fft_host_per_point_s",
                  "jpeg_compress_block_s", "jpeg_decompress_block_s",
                  "file_io_per_byte_s"):
            if getattr(self, f) <= 0:
                raise ValueError(f"{f} must be positive")

    # ------------------------------------------------------------ aggregates
    def matmul_time(self, rows: int, inner: int, cols: int) -> float:
        """Compute time for a rows x inner by inner x cols block product."""
        return rows * inner * cols * self.matmul_op_s

    def jpeg_compress_time(self, n_blocks: int) -> float:
        """Compute time to compress ``n_blocks`` 8x8 blocks."""
        return n_blocks * self.jpeg_compress_block_s

    def jpeg_decompress_time(self, n_blocks: int) -> float:
        """Compute time to decompress ``n_blocks`` 8x8 blocks."""
        return n_blocks * self.jpeg_decompress_block_s


#: SPARCstation ELC (SUN/Ethernet platform)
ELC_COSTS = AppCosts(
    platform="SUN-ELC",
    matmul_op_s=11.86e-6,
    fft_butterfly_s=215e-6,
    fft_host_per_point_s=400e-6,
    jpeg_compress_block_s=500e-6,
    jpeg_decompress_block_s=270e-6,
    file_io_per_byte_s=1.6e-6,
)

#: SPARCstation IPX (SUN/ATM + NYNET platform)
IPX_COSTS = AppCosts(
    platform="SUN-IPX",
    matmul_op_s=11.55e-6,
    fft_butterfly_s=198e-6,
    fft_host_per_point_s=365e-6,
    jpeg_compress_block_s=310e-6,
    jpeg_decompress_block_s=170e-6,
    file_io_per_byte_s=1.0e-6,
)


def costs_for_platform(name: str) -> AppCosts:
    """Look up costs by platform name ("SUN-ELC" / "SUN-IPX")."""
    for costs in (ELC_COSTS, IPX_COSTS):
        if costs.platform == name:
            return costs
    raise KeyError(f"no calibrated costs for platform {name!r}")
