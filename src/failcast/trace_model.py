"""Core domain types for machine-level trace data.

Times are integer microseconds since trace start. Usage values are
fractions of each resource's maximum, so everything lives in [0, 1].
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Optional

MICROS_PER_SECOND = 1_000_000
MICROS_PER_MINUTE = 60 * MICROS_PER_SECOND

#: Standard 5-minute reporting interval. Fixed at dataset-build time.
INTERVAL_US = 5 * MICROS_PER_MINUTE

N_RESOURCES = 6


class FleetArrays:
    """A dataclass of arrays whose first axis is the machine.

    Row i of every field belongs to machine ``machine_ids[i]``, and
    ``machine_ids`` is sorted. Each field is one file of a store.
    """

    def __len__(self) -> int:
        return len(self.machine_ids)

    def select(self, keep):
        """The machines whose entry in the (M,) boolean ``keep`` is True."""
        return type(self)(*(getattr(self, f.name)[keep] for f in dataclasses.fields(self)))


class ResourceKind(enum.IntEnum):
    """The six tracked resource measurements; values are the feature-layout indices."""

    CPU_USAGE = 0
    DISK_IO_TIME = 1
    DISK_SPACE = 2
    MEMORY_USAGE = 3
    PAGE_CACHE = 4
    MEM_ACCESS_PER_INSTR = 5


class MachineEventKind(enum.IntEnum):
    """Machine state-change events; values match the CSV event codes."""

    ADD = 0
    REMOVE = 1
    UPDATE = 2


class FailureType(enum.IntEnum):
    """Per-interval machine state class. Integer labels are part of the data format."""

    NORMAL = 0
    IMMEDIATE_REBOOT = 1
    SLOW_REBOOT = 2
    FORCIBLE_DECOMMISSION = 3


@dataclass(frozen=True)
class MachineEvent:
    machine_id: int
    time_us: int
    kind: MachineEventKind


@dataclass(frozen=True)
class FailureEvent:
    """A REMOVE paired with the next ADD of the same machine, categorized by downtime.

    ``add_us`` is absent exactly when the machine never returned before the
    end of the trace, which is also exactly the FORCIBLE_DECOMMISSION case.
    """

    machine_id: int
    remove_us: int
    add_us: Optional[int]
    ftype: FailureType

    def __post_init__(self):
        if self.ftype == FailureType.NORMAL:
            raise ValueError("a failure event cannot have type NORMAL")
        permanent = self.ftype == FailureType.FORCIBLE_DECOMMISSION
        if permanent and self.add_us is not None:
            raise ValueError("FORCIBLE_DECOMMISSION must not carry an add time")
        if not permanent and self.add_us is None:
            raise ValueError(f"{self.ftype.name} requires an add time")
        if self.add_us is not None and self.add_us < self.remove_us:
            raise ValueError("add time precedes remove time")

    @property
    def duration_us(self) -> Optional[int]:
        if self.add_us is None:
            return None
        return self.add_us - self.remove_us
