"""ATM substrate: cells, AAL SAR, links, switches, signaling, adapter, API."""

from .aal import AAL5, Aal5, AalError
from .adapter import Sba200Adapter
from .api import AtmApi, AtmMessage, MAX_PDU_BYTES
from .cell import AtmCell, CELL_BYTES, CELL_HEADER_BYTES, CELL_PAYLOAD_BYTES, CellBurst
from .crc import crc32_aal5
from .link import Channel, DS3, DuplexLink, LinkSpec, OC3, OC48, TAXI_140
from .signaling import (AtmFabric, FabricEdge, MulticastChannel,
                        NoPathError, Service, SignalingController,
                        VirtualChannel)
from .switch import AtmSwitch, VcRoute

__all__ = [
    "AAL5", "Aal5", "AalError",
    "Sba200Adapter",
    "AtmApi", "AtmMessage", "MAX_PDU_BYTES",
    "AtmCell", "CELL_BYTES", "CELL_HEADER_BYTES", "CELL_PAYLOAD_BYTES",
    "CellBurst",
    "crc32_aal5",
    "Channel", "DS3", "DuplexLink", "LinkSpec", "OC3", "OC48", "TAXI_140",
    "AtmFabric", "FabricEdge", "MulticastChannel", "NoPathError", "Service",
    "SignalingController", "VirtualChannel",
    "AtmSwitch", "VcRoute",
]
