"""NCS_MPS: transports, datapaths, buffers, flow/error control, QoS."""

from .buffers import BufferPipeline
from .core import NcsMps, RecvRequest, SendRequest
from .datapath import (
    DatapathModel,
    NCS_DATAPATH,
    SOCKET_DATAPATH,
    ZERO_COPY_DATAPATH,
)
from .error_control import (
    AckRetransmitErrorControl,
    AdaptiveAckErrorControl,
    ErrorControl,
    MessageLost,
    make_error_control,
)
from .exceptions import NcsError, RecvTimeout, RemoteException
from .flow_control import (
    FlowControl,
    NoFlowControl,
    RateFlowControl,
    WindowFlowControl,
    make_flow_control,
)
from .message import ANY, ANY_THREAD, ControlKind, NCS_HEADER_BYTES, NcsMessage
from .qos import PDA_PROFILE, QosContract, ServiceMode, VOD_PROFILE, flow_control_for
from .transports import AtmTransport, NcsTransport, P4Transport, SocketTransport

__all__ = [
    "BufferPipeline",
    "NcsMps", "RecvRequest", "SendRequest",
    "DatapathModel", "NCS_DATAPATH", "SOCKET_DATAPATH", "ZERO_COPY_DATAPATH",
    "AckRetransmitErrorControl", "AdaptiveAckErrorControl", "ErrorControl",
    "MessageLost", "make_error_control",
    "NcsError", "RecvTimeout", "RemoteException",
    "FlowControl", "NoFlowControl", "RateFlowControl", "WindowFlowControl",
    "make_flow_control",
    "ANY", "ANY_THREAD", "ControlKind", "NCS_HEADER_BYTES", "NcsMessage",
    "PDA_PROFILE", "QosContract", "ServiceMode", "VOD_PROFILE",
    "flow_control_for",
    "AtmTransport", "NcsTransport", "P4Transport", "SocketTransport",
]
