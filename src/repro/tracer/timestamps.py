"""Virtual-time bookkeeping: instruction counts to seconds.

Paper §III-C: *"the tracer obtains time-stamps by scaling the number of
executed instruction by the average MIPS rate observed in a real
run."*  We do exactly that: simulated applications report work in
instructions, and a :class:`Clock` converts them to seconds with a
configurable MIPS rate.  The default corresponds to the paper's
test-bed CPU (PowerPC 970 @ 2.3 GHz, ~1 instruction/cycle sustained).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFAULT_MIPS", "Clock"]

#: Default MIPS rate: 2.3 GHz at IPC 1 — the MareNostrum PowerPC 970.
DEFAULT_MIPS = 2300.0


@dataclass(frozen=True)
class Clock:
    """Converts between instruction counts and virtual seconds."""

    mips: float = DEFAULT_MIPS

    def __post_init__(self) -> None:
        if not self.mips > 0:  # NaN fails too
            raise ValueError(f"MIPS rate must be positive, got {self.mips}")

    @property
    def hz(self) -> float:
        """Instructions per second."""
        return self.mips * 1e6

    def seconds(self, instructions: float) -> float:
        """Instruction count -> virtual seconds."""
        return instructions / self.hz

    def instructions(self, seconds: float) -> int:
        """Virtual seconds -> instruction count (rounded)."""
        return int(round(seconds * self.hz))
