"""ATM Adaptation Layer 5: sizing math and byte-level SAR.

* **Sizing** (:meth:`Aal5.pdu_cells`) — how many cells a payload needs;
  the adapter charges every PDU by it
  (:meth:`~repro.atm.adapter.Sba200Adapter.send_pdu`).  Every VC carries
  AAL5, the AAL the paper's NCS traffic uses.
* **Byte-level SAR** (:meth:`Aal5.segment` / :meth:`Aal5.reassemble`) —
  real segmentation of a ``bytes`` payload into :class:`AtmCell` objects
  with the CPCS trailer and its CRC-32, and reassembly that verifies
  them.  The simulated datapath never splits bytes (a PDU travels as
  cell bursts); the byte SAR serves the benchmark's direct-call loop and
  the AAL5 tests, which round-trip arbitrary payloads and check that the
  sizing math agrees with the actual cell count.
"""

from __future__ import annotations

import struct
from math import ceil

from .cell import AtmCell, CELL_PAYLOAD_BYTES
from .crc import crc32_aal5

__all__ = ["Aal5", "AalError", "AAL5"]


class AalError(ValueError):
    """Raised on reassembly failures (bad CRC, bad length, truncation)."""


class Aal5:
    """AAL5: pad + 8-byte CPCS trailer (UU, CPI, Length, CRC-32); the last
    cell is flagged through the cell header's payload-type bit."""

    TRAILER_BYTES = 8

    def pdu_cells(self, payload_bytes: int) -> int:
        """Cells for a payload: pad + trailer rounded up to 48-byte chunks."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        if payload_bytes > 65535:
            raise ValueError("AAL5 CPCS length field is 16 bits (max 65535)")
        return max(1, ceil((payload_bytes + self.TRAILER_BYTES)
                           / CELL_PAYLOAD_BYTES))

    def segment(self, payload: bytes, vpi: int = 0, vci: int = 32) -> list[AtmCell]:
        """Segment ``payload`` into AAL5 cells (CRC-32 trailer, last-cell flag)."""
        n_cells = self.pdu_cells(len(payload))
        pdu_len = n_cells * CELL_PAYLOAD_BYTES
        pad = pdu_len - len(payload) - self.TRAILER_BYTES
        body = payload + b"\x00" * pad
        # trailer: CPCS-UU(1) CPI(1) Length(2) CRC-32(4); CRC covers
        # everything including the first four trailer bytes.
        head = body + struct.pack(">BBH", 0, 0, len(payload))
        crc = crc32_aal5(head)
        pdu = head + struct.pack(">I", crc)
        assert len(pdu) == pdu_len
        cells = []
        for i in range(n_cells):
            chunk = pdu[i * CELL_PAYLOAD_BYTES:(i + 1) * CELL_PAYLOAD_BYTES]
            cells.append(AtmCell(vpi=vpi, vci=vci, payload=chunk,
                                 pt_last=(i == n_cells - 1)))
        return cells

    def reassemble(self, cells: list[AtmCell]) -> bytes:
        """Rebuild and CRC-verify an AAL5 PDU, returning the payload bytes."""
        if not cells:
            raise AalError("empty cell list")
        if not cells[-1].pt_last:
            raise AalError("final cell not marked (truncated PDU?)")
        for c in cells[:-1]:
            if c.pt_last:
                raise AalError("interior cell marked as last")
        pdu = b"".join(c.payload for c in cells)
        uu, cpi, length = struct.unpack(">BBH", pdu[-8:-4])
        (crc,) = struct.unpack(">I", pdu[-4:])
        if crc32_aal5(pdu[:-4]) != crc:
            raise AalError("AAL5 CRC-32 mismatch")
        if length > len(pdu) - 8:
            raise AalError(f"CPCS length {length} exceeds PDU capacity")
        return pdu[:length]


#: module-level singleton (the class is stateless)
AAL5 = Aal5()
