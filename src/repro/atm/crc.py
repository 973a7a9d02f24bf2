"""The CRC-32 of the AAL5 CPCS-PDU trailer.

The IEEE 802.3 polynomial, reflected, with final inversion: the CRC
zlib computes.  The SBA-200 computes it in hardware ("special hardware
for AAL CRC" — §2), so the performance model charges the host nothing
for it; the byte-level SAR of :mod:`repro.atm.aal` computes it for real,
for the benchmark's direct-call loop and the AAL5 tests.
"""

from __future__ import annotations

from zlib import crc32 as crc32_aal5

__all__ = ["crc32_aal5"]
