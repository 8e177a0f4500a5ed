"""Failure pairing, categorization, and per-interval label tracks.

A REMOVE opens a failure; the next ADD of the same machine closes it.
Downtime under 30 minutes is an immediate reboot, 30 minutes or more a
slow reboot, and a machine that never returns before the end of the
trace is a forcible decommission.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from .errors import ConfigError
from .ingestion import IntervalSeries
from .trace_model import (
    INTERVAL_US,
    MICROS_PER_MINUTE,
    FailureEvent,
    FailureType,
    FleetArrays,
    MachineEvent,
    MachineEventKind,
)

logger = logging.getLogger(__name__)

FAILURES_HEADER = "machine_id,remove_us,add_us,duration_us,type"


@dataclass(frozen=True)
class LabelingConfig:
    ir_max_downtime_us: int = 30 * MICROS_PER_MINUTE
    degenerate_min_failures: int = 100
    trace_end_us: int = 0

    def __post_init__(self):
        if self.ir_max_downtime_us <= 0:
            raise ConfigError("ir_max_downtime_us must be positive")


@dataclass
class PairingResult:
    failures: list[FailureEvent]
    dropped_removes: int


@dataclass(frozen=True)
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


def categorize(duration_us: Optional[int], cfg: LabelingConfig) -> FailureType:
    """Map a failure duration to its class; absent duration means never returned."""
    if duration_us is None:
        return FailureType.FORCIBLE_DECOMMISSION
    if duration_us < cfg.ir_max_downtime_us:
        return FailureType.IMMEDIATE_REBOOT
    return FailureType.SLOW_REBOOT


def pair_failures(
    events: Sequence[MachineEvent], cfg: LabelingConfig
) -> PairingResult:
    """Pair each REMOVE with the next ADD of the same machine.

    A second REMOVE arriving while one is already open is dropped and
    counted; a REMOVE never followed by an ADD closes as permanent.
    Events must be sorted by time within each machine, which is how the
    parser returns them.
    """
    failures: list[FailureEvent] = []
    dropped = 0
    open_remove: Optional[int] = None
    current_machine: Optional[int] = None

    def close_open(machine_id: int) -> None:
        nonlocal open_remove
        if open_remove is not None:
            failures.append(
                FailureEvent(
                    machine_id=machine_id,
                    remove_us=open_remove,
                    add_us=None,
                    ftype=FailureType.FORCIBLE_DECOMMISSION,
                )
            )
            open_remove = None

    for ev in events:
        if ev.machine_id != current_machine:
            if current_machine is not None:
                close_open(current_machine)
            current_machine = ev.machine_id
        if ev.kind == MachineEventKind.UPDATE:
            continue
        if ev.kind == MachineEventKind.REMOVE:
            if open_remove is None:
                open_remove = ev.time_us
            else:
                dropped += 1
        else:  # ADD
            if open_remove is not None:
                duration = ev.time_us - open_remove
                failures.append(
                    FailureEvent(
                        machine_id=ev.machine_id,
                        remove_us=open_remove,
                        add_us=ev.time_us,
                        ftype=categorize(duration, cfg),
                    )
                )
                open_remove = None
    if current_machine is not None:
        close_open(current_machine)
    if dropped:
        logger.warning("dropped %d REMOVE events with no intervening ADD", dropped)
    return PairingResult(failures=failures, dropped_removes=dropped)


def detect_degenerate_machines(
    series: IntervalSeries,
    failures: Iterable[FailureEvent],
    cfg: LabelingConfig,
) -> set[int]:
    """Machines failing more than the threshold with usage that is all zero.

    A machine with no usage series at all counts as all-zero. These look
    like bookkeeping artifacts rather than real hosts and are excluded
    from every later stage.
    """
    counts = Counter(f.machine_id for f in failures)
    # 0 <= avg <= peak, and absent intervals are all zero: usage shows in peak
    used_ids = set(series.machine_ids[series.peak.any(axis=(1, 2))].tolist())
    return {
        m
        for m, count in counts.items()
        if count > cfg.degenerate_min_failures and m not in used_ids
    }


def build_label_tracks(
    failures: Iterable[FailureEvent],
    series: IntervalSeries,
    cfg: LabelingConfig,
    interval_us: int = INTERVAL_US,
) -> LabelTracks:
    """Assign the per-interval label and downtime flags for every machine.

    The label lands on the interval containing the remove time. Downtime
    flags cover intervals fully inside [remove, add], after the removal
    interval; for permanent failures they extend to the end of the trace.
    Failures of machines without a series are ignored.
    """
    y = np.zeros(series.present.shape, dtype=np.int8)
    downtime = np.zeros(series.present.shape, dtype=bool)
    n = y.shape[1]
    row_of = {m: i for i, m in enumerate(series.machine_ids.tolist())}
    for f in sorted(failures, key=lambda f: (f.machine_id, f.remove_us)):
        i = row_of.get(f.machine_id)
        t_remove = f.remove_us // interval_us
        if i is None or t_remove >= n:
            continue
        y[i, t_remove] = int(f.ftype)
        if f.add_us is None:
            downtime[i, t_remove + 1 :] = True
        else:
            # flag bins whose whole span fits inside the downtime window
            last_full = f.add_us // interval_us - 1
            lo = t_remove + 1
            hi = min(last_full, n - 1)
            if hi >= lo:
                downtime[i, lo : hi + 1] = True
    return LabelTracks(series.machine_ids, y, downtime)


def write_failures_csv(failures: Iterable[FailureEvent], out: TextIO) -> None:
    """Write the optional failures export; add/duration are empty for permanent failures."""
    out.write(FAILURES_HEADER + "\n")
    for f in failures:
        add = "" if f.add_us is None else str(f.add_us)
        dur = "" if f.duration_us is None else str(f.duration_us)
        out.write(f"{f.machine_id},{f.remove_us},{add},{dur},{int(f.ftype)}\n")

