"""Core domain types for machine-level trace data.

Times are integer microseconds since trace start. Usage values are
fractions of each resource's maximum, so everything lives in [0, 1].
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

MICROS_PER_SECOND = 1_000_000
MICROS_PER_MINUTE = 60 * MICROS_PER_SECOND

#: Standard 5-minute reporting interval. Fixed at dataset-build time.
INTERVAL_US = 5 * MICROS_PER_MINUTE

N_RESOURCES = 6

#: the feature window: an instance's features are the LAGS intervals before it, the
#: 30 minutes that the paper's significant-lag histogram supports
LAGS = 6
#: the width of an instance: the average and the peak of each resource at each lag
N_FEATURES = 2 * N_RESOURCES * LAGS


class FleetArrays:
    """A dataclass of arrays whose first axis is indexed like ``machine_ids``.

    Row i of every field belongs to machine ``machine_ids[i]``, and
    ``machine_ids`` is sorted. In a store, each field is one file.
    """

    def __len__(self) -> int:
        return len(self.machine_ids)

    def select(self, keep):
        """The rows whose entry in the boolean ``keep`` is True."""
        return type(self)(*(getattr(self, f.name)[keep] for f in dataclasses.fields(self)))


@dataclasses.dataclass(frozen=True)
class IntervalSeries(FleetArrays):
    """Dense per-interval usage for every machine over the whole trace horizon.

    ``machine_ids`` is a sorted (M,) int64 array, and row i of every other
    array belongs to machine ``machine_ids[i]``: ``avg`` and ``peak`` are
    (M, T, 6) arrays, and ``present[i, t]`` is False for intervals with no
    contributing row, which then carry all zeros.
    """

    machine_ids: np.ndarray
    avg: np.ndarray
    peak: np.ndarray
    present: np.ndarray


@dataclasses.dataclass(frozen=True)
class LabelTracks(FleetArrays):
    """Per-interval class labels and downtime flags for every machine.

    Row i of ``y`` and ``downtime`` ((M, T) int8 and bool) belongs to
    machine ``machine_ids[i]``. ``y[i, t]`` is non-normal only at the
    interval containing a REMOVE. ``downtime[i, t]`` marks intervals
    lying entirely inside a failure's remove-to-add window, strictly
    after the removal interval.
    """

    machine_ids: np.ndarray
    y: np.ndarray
    downtime: np.ndarray


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


N_CLASSES = len(FailureType)


#: A paired failure: a machine's REMOVE time, the time of its next ADD
#: (-1 when it never came back before the end of the trace) and its
#: FailureType, which is never NORMAL.
FAILURE_DTYPE = np.dtype(
    [("machine_id", np.int64), ("remove_us", np.int64), ("add_us", np.int64), ("type", np.int8)]
)

#: Downtime below this is an immediate reboot; at or above it, a slow reboot.
IR_MAX_DOWNTIME_US = 30 * MICROS_PER_MINUTE


def failure_types(remove_us: np.ndarray, add_us: np.ndarray) -> np.ndarray:
    """The FailureType of each failure as int8.

    FD where ``add_us`` is -1, else IR or SR by the downtime add - remove.
    """
    return np.select(
        [add_us < 0, add_us - remove_us < IR_MAX_DOWNTIME_US],
        [FailureType.FORCIBLE_DECOMMISSION, FailureType.IMMEDIATE_REBOOT],
        FailureType.SLOW_REBOOT,
    ).astype(np.int8)


def interval_runs(shape: tuple[int, int], row, start, stop) -> np.ndarray:
    """A (machines, intervals) bool mask, True on intervals [start, stop) of each given row.

    Runs may overlap, and a run with stop <= start marks nothing. Needs
    0 <= start <= intervals and stop <= intervals.
    """
    edges = np.zeros((shape[0], shape[1] + 1), dtype=np.int32)
    np.add.at(edges, (row, start), 1)
    np.add.at(edges, (row, np.maximum(stop, start)), -1)
    np.cumsum(edges, axis=1, out=edges)
    return edges[:, :-1] > 0
