"""Unit & property tests for ATM cells, the AAL5 CRC-32 and AAL5 SAR."""

import binascii

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm import (
    AAL5, AalError, AtmCell, CELL_BYTES, CELL_PAYLOAD_BYTES, crc32_aal5,
)


class TestCell:
    def test_sizes(self):
        c = AtmCell(vpi=1, vci=100, payload=b"\x00" * 48)
        assert c.wire_bytes == CELL_BYTES == 53
        assert CELL_PAYLOAD_BYTES == 48

    def test_payload_size_enforced(self):
        with pytest.raises(ValueError):
            AtmCell(vpi=0, vci=32, payload=b"short")

    def test_vpi_vci_ranges(self):
        with pytest.raises(ValueError):
            AtmCell(vpi=256, vci=0, payload=b"\x00" * 48)
        with pytest.raises(ValueError):
            AtmCell(vpi=0, vci=70000, payload=b"\x00" * 48)

    def test_header_encoding_roundtrips_fields(self):
        c = AtmCell(vpi=0x12, vci=0x3456, payload=b"\x00" * 48,
                    pt_last=True, clp=True)
        hdr = c.header_bytes()
        assert len(hdr) == 5
        vpi = ((hdr[0] & 0xF) << 4) | (hdr[1] >> 4)
        vci = ((hdr[1] & 0xF) << 12) | (hdr[2] << 4) | (hdr[3] >> 4)
        assert vpi == 0x12 and vci == 0x3456
        assert hdr[3] & 0b10  # pt_last bit
        assert hdr[3] & 0b1   # clp bit

    def test_hec_known_property(self):
        """HEC of four zero bytes is the coset constant 0x55."""
        c = AtmCell(vpi=0, vci=0, payload=b"\x00" * 48)
        assert c.header_bytes()[4] == 0x55


class TestCrc:
    def test_crc32_matches_zlib(self):
        for data in (b"", b"123456789", b"hello ATM world", bytes(range(256))):
            assert crc32_aal5(data) == binascii.crc32(data)

    @given(st.binary(min_size=0, max_size=200))
    def test_crc32_always_matches_zlib(self, data):
        assert crc32_aal5(data) == binascii.crc32(data)


class TestAal5:
    def test_small_payload_one_cell(self):
        assert AAL5.pdu_cells(1) == 1
        assert AAL5.pdu_cells(40) == 1  # 40 + 8 trailer = 48

    def test_trailer_forces_extra_cell(self):
        assert AAL5.pdu_cells(41) == 2  # 41 + 8 = 49 > 48

    def test_zero_payload_still_one_cell(self):
        assert AAL5.pdu_cells(0) == 1

    def test_length_cap(self):
        with pytest.raises(ValueError):
            AAL5.pdu_cells(65536)

    def test_segment_reassemble_roundtrip(self):
        payload = bytes(range(256)) * 3
        cells = AAL5.segment(payload, vpi=0, vci=99)
        assert all(c.vci == 99 for c in cells)
        assert cells[-1].pt_last and not any(c.pt_last for c in cells[:-1])
        assert AAL5.reassemble(cells) == payload

    def test_reassemble_detects_corruption(self):
        cells = AAL5.segment(b"x" * 100)
        bad = bytearray(cells[0].payload)
        bad[10] ^= 0xFF
        cells[0].payload = bytes(bad)
        with pytest.raises(AalError, match="CRC"):
            AAL5.reassemble(cells)

    def test_reassemble_detects_truncation(self):
        cells = AAL5.segment(b"y" * 200)
        with pytest.raises(AalError):
            AAL5.reassemble(cells[:-1])

    def test_reassemble_detects_interior_last_mark(self):
        cells = AAL5.segment(b"z" * 200)
        cells[0].pt_last = True
        with pytest.raises(AalError):
            AAL5.reassemble(cells)

    def test_reassemble_empty_rejected(self):
        with pytest.raises(AalError):
            AAL5.reassemble([])

    @given(st.binary(min_size=0, max_size=2000))
    @settings(max_examples=50)
    def test_roundtrip_property(self, payload):
        cells = AAL5.segment(payload)
        assert len(cells) == AAL5.pdu_cells(len(payload))
        assert AAL5.reassemble(cells) == payload
