"""ATM cells and cell bursts.

An ATM cell is 53 bytes: a 5-byte header (GFC/VPI/VCI/PT/CLP/HEC) and a
48-byte payload.  The performance model moves *bursts* (trains of
consecutive cells belonging to one AAL5 PDU) instead of individual cells
— see DESIGN.md §5.5; its cell-accurate setting is a train of one cell,
still a :class:`CellBurst` that splits no bytes.  The byte-level
:class:`AtmCell` is what :mod:`repro.atm.aal`'s byte SAR produces, for
the benchmark's direct-call loop and the AAL5 tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "CELL_BYTES", "CELL_PAYLOAD_BYTES", "CELL_HEADER_BYTES",
    "AtmCell", "CellBurst",
]

CELL_BYTES = 53
CELL_HEADER_BYTES = 5
CELL_PAYLOAD_BYTES = 48


@dataclass
class AtmCell:
    """A byte-faithful ATM cell (UNI format).

    ``pt_last`` is bit 1 of the payload-type field, which AAL5 uses to
    mark the final cell of a CPCS-PDU.
    """

    vpi: int
    vci: int
    payload: bytes
    pt_last: bool = False
    clp: bool = False
    gfc: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.vpi < 256):
            raise ValueError(f"VPI {self.vpi} out of range (UNI: 8 bits)")
        if not (0 <= self.vci < 65536):
            raise ValueError(f"VCI {self.vci} out of range (16 bits)")
        if len(self.payload) != CELL_PAYLOAD_BYTES:
            raise ValueError(
                f"cell payload must be exactly {CELL_PAYLOAD_BYTES} bytes, "
                f"got {len(self.payload)}")

    @property
    def wire_bytes(self) -> int:
        """Bytes this cell occupies on the wire (always 53)."""
        return CELL_BYTES

    def header_bytes(self) -> bytes:
        """Encode the 5-byte header (HEC computed over the first 4 bytes
        with the ITU x^8+x^2+x+1 polynomial plus the 0x55 coset)."""
        b0 = ((self.gfc & 0xF) << 4) | ((self.vpi >> 4) & 0xF)
        b1 = ((self.vpi & 0xF) << 4) | ((self.vci >> 12) & 0xF)
        b2 = (self.vci >> 4) & 0xFF
        b3 = ((self.vci & 0xF) << 4) | ((1 if self.pt_last else 0) << 1) \
            | (1 if self.clp else 0)
        hdr = bytes([b0, b1, b2, b3])
        return hdr + bytes([_hec(hdr)])


def _hec(four: bytes) -> int:
    """ITU-T I.432 Header Error Control: CRC-8 (x^8+x^2+x+1) XOR 0x55."""
    crc = 0
    for byte in four:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc ^ 0x55


@dataclass
class CellBurst:
    """A train of consecutive cells of one AAL PDU on one VC.

    This is the unit the performance model queues on links and through
    switches.  ``payload`` rides along only on the final burst of a PDU so
    applications receive real data; it contributes nothing to timing.
    """

    vc: Any                      # VirtualChannel (kept opaque to avoid cycles)
    vci: int                     # VCI half of the hop label (switch-rewritable)
    msg_id: int
    n_cells: int
    payload_bytes: int           # application bytes carried by this burst
    is_final: bool
    payload: Any = None
    corrupted: bool = False
    enqueued_at: float = field(default=0.0)
    vpi: int = 0                 # VPI half of the hop label

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ValueError("a burst carries at least one cell")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")

    @property
    def wire_bytes(self) -> int:
        """Bytes the whole burst occupies on the wire (53 per cell)."""
        return self.n_cells * CELL_BYTES
