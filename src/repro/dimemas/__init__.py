"""Trace-driven replay simulator (the framework's Dimemas stage)."""

from .engine import EventLoop, WatchdogExpired
from .machine import MB, MachineConfig, PAPER_BANDWIDTH_MBPS, PAPER_BUSES
from .network import Network, PerturbedNetwork, Transfer
from .postmortem import (
    BlockedOp,
    DeadlockError,
    DeadlockReport,
    PendingMessage,
    PerturbationStall,
    SimulationTimeout,
)
from .replay import ReplayError, simulate
from .results import MessageFlight, STATE_NAMES, SimResult

__all__ = [
    "BlockedOp", "DeadlockError", "DeadlockReport", "EventLoop", "MB",
    "MachineConfig", "MessageFlight", "Network", "PAPER_BANDWIDTH_MBPS",
    "PAPER_BUSES", "PendingMessage", "PerturbationStall", "PerturbedNetwork",
    "ReplayError", "STATE_NAMES", "SimResult", "SimulationTimeout",
    "Transfer", "WatchdogExpired", "simulate",
]
