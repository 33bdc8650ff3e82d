"""Trace model and formats (Dimemas-style records, ``.dim``, ``.prv``)."""

from .records import (
    AccessProfile,
    CHANNEL_APP,
    CHANNEL_CHUNK,
    CHANNEL_COLLECTIVE,
    CollOp,
    CpuBurst,
    Event,
    GlobalOp,
    IRecv,
    ISend,
    ProcessTrace,
    Recv,
    Record,
    Send,
    TraceSet,
    Wait,
)
from .validate import ValidationError, ValidationIssue, ValidationReport, validate
from .columnar import ColumnarFormatError, ColumnarTrace, columnar_of
from . import columnar, dim, prv

__all__ = [
    "AccessProfile", "CHANNEL_APP", "CHANNEL_CHUNK", "CHANNEL_COLLECTIVE",
    "CollOp", "ColumnarFormatError", "ColumnarTrace", "CpuBurst", "Event",
    "GlobalOp", "IRecv", "ISend",
    "ProcessTrace", "Recv", "Record", "Send", "TraceSet", "Wait",
    "ValidationError", "ValidationIssue", "ValidationReport", "validate",
    "columnar", "columnar_of", "dim", "prv",
]
