"""Failure pairing, categorization, and per-interval label tracks.

A REMOVE opens a failure; the next ADD of the same machine closes it.
Downtime under 30 minutes is an immediate reboot, 30 minutes or more a
slow reboot, and a machine that never returns before the end of the
trace is a forcible decommission.
"""

from __future__ import annotations

import logging
from typing import TextIO

import numpy as np

from .tables import write_rows
from .trace_model import (
    FAILURE_DTYPE,
    INTERVAL_US,
    IntervalSeries,
    LabelTracks,
    MachineEventKind,
    failure_types,
    interval_runs,
)

logger = logging.getLogger(__name__)

FAILURES_HEADER = "machine_id,remove_us,add_us,duration_us,type"
#: a machine with all-zero usage that fails more often than this is taken for a
#: bookkeeping artifact, not a host: kept, it would add that many failure windows
#: of all-zero features, which no usage pattern precedes
DEGENERATE_MIN_FAILURES = 100


def pair_failures(events: np.ndarray) -> tuple[np.ndarray, int]:
    """Pair each REMOVE with the next ADD of the same machine.

    ``events`` are the rows ``ingestion.parse_machine_events`` returns,
    sorted by (machine_id, time_us, event). Update events are ignored. A
    REMOVE opens a failure unless the machine's previous event is a
    REMOVE too, in which case it is dropped and counted. A failure closes
    at the machine's next ADD, or never, which makes it a forcible
    decommission. Returns ``(failures, dropped)``: a FAILURE_DTYPE array in
    event order, and the number of dropped REMOVEs.
    """
    events = events[events["event"] != MachineEventKind.UPDATE]
    machine, time_us = events["machine_id"], events["time_us"]
    is_remove = events["event"] == MachineEventKind.REMOVE
    after_remove = np.zeros(len(events), dtype=bool)
    after_remove[1:] = is_remove[:-1] & (machine[1:] == machine[:-1])
    opens = np.flatnonzero(is_remove & ~after_remove)
    dropped = int(np.count_nonzero(is_remove & after_remove))
    # the first ADD at or after each position; len(events) where there is none
    at_add = np.where(is_remove, len(events), np.arange(len(events)))
    close = np.minimum.accumulate(at_add[::-1])[::-1][opens]
    back = close < len(events)
    back[back] = machine[close[back]] == machine[opens[back]]

    failures = np.empty(len(opens), FAILURE_DTYPE)
    failures["machine_id"] = machine[opens]
    failures["remove_us"] = time_us[opens]
    failures["add_us"] = -1
    failures["add_us"][back] = time_us[close[back]]
    failures["type"] = failure_types(failures["remove_us"], failures["add_us"])
    if dropped:
        logger.warning("dropped %d REMOVE events with no intervening ADD", dropped)
    return failures, dropped


def detect_degenerate_machines(series: IntervalSeries, failures: np.ndarray) -> np.ndarray:
    """The sorted int64 ids of machines failing more than DEGENERATE_MIN_FAILURES
    times with usage that is all zero.

    A machine with no usage series at all counts as all-zero. These look
    like bookkeeping artifacts rather than real hosts and are excluded
    from every later stage.
    """
    ids, counts = np.unique(failures["machine_id"], return_counts=True)
    frequent = ids[counts > DEGENERATE_MIN_FAILURES]
    # 0 <= avg <= peak, and absent intervals are all zero: usage shows in peak
    used = series.machine_ids[series.peak.any(axis=(1, 2))]
    return frequent[~np.isin(frequent, used)]


def build_label_tracks(failures: np.ndarray, series: IntervalSeries) -> LabelTracks:
    """Assign the per-interval label and downtime flags for every machine.

    The label lands on the interval containing the remove time; where one
    interval holds several removes, the latest one's type wins. Downtime
    flags cover intervals fully inside [remove, add], after the removal
    interval; for permanent failures they extend to the end of the trace.
    Failures of machines without a series are ignored.
    """
    m, n = series.present.shape
    failures = failures[np.lexsort((failures["remove_us"], failures["machine_id"]))]
    row = np.searchsorted(series.machine_ids, failures["machine_id"])
    t_remove = failures["remove_us"] // INTERVAL_US
    keep = np.isin(failures["machine_id"], series.machine_ids) & (t_remove < n)
    failures, row, t_remove = failures[keep], row[keep], t_remove[keep]

    y = np.zeros((m, n), dtype=np.int8)
    latest = np.ones(len(row), dtype=bool)
    latest[:-1] = (row[1:] != row[:-1]) | (t_remove[1:] != t_remove[:-1])
    y[row[latest], t_remove[latest]] = failures["type"][latest]

    # a failure that comes back is down up to the last interval ending by the add
    add = failures["add_us"]
    stop = np.where(add < 0, n, np.minimum(add // INTERVAL_US, n))
    downtime = interval_runs((m, n), row, t_remove + 1, stop)
    return LabelTracks(series.machine_ids, y, downtime)


def write_failures_csv(failures: np.ndarray, out: TextIO) -> None:
    """Write the optional failures export; add/duration are empty for permanent failures."""
    out.write(FAILURES_HEADER + "\n")
    remove, add = failures["remove_us"], failures["add_us"]
    back = [np.where(add < 0, "", v.astype(str)) for v in (add, add - remove)]
    write_rows(out, "%d,%d,%s,%s,%d\n", failures["machine_id"], remove, *back, failures["type"])
