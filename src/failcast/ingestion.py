"""Trace file parsing and 5-minute interval aggregation.

Input schemas (UTF-8, LF, no quoting):

``machine_events.csv``
    header ``time_us,machine_id,event`` with event 0=Add, 1=Remove, 2=Update.

``resource_usage.csv``
    header ``start_us,end_us,machine_id,mean_cpu,mean_diskio,mean_disk,
    mean_mem,mean_cache,mean_mai,max_cpu,max_diskio,max_disk,max_mem,
    max_cache,max_mai`` with all usage fields in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ParseError
from .trace_model import (
    INTERVAL_US,
    N_RESOURCES,
    IntervalUsage,
    MachineEvent,
    MachineEventKind,
)

MACHINE_EVENTS_HEADER = "time_us,machine_id,event"
USAGE_HEADER = (
    "start_us,end_us,machine_id,"
    "mean_cpu,mean_diskio,mean_disk,mean_mem,mean_cache,mean_mai,"
    "max_cpu,max_diskio,max_disk,max_mem,max_cache,max_mai"
)


@dataclass(frozen=True)
class UsageRecord:
    """One raw usage row: per-resource mean and max over [start_us, end_us)."""

    machine_id: int
    start_us: int
    end_us: int
    mean: tuple[float, ...]
    peak: tuple[float, ...]


@dataclass
class ClampStats:
    """How many raw usage values had to be forced back into range."""

    values_clamped: int = 0
    rows_affected: int = 0


@dataclass
class MachineSeries:
    """Dense per-interval usage for one machine over the whole trace horizon.

    ``avg`` and ``peak`` are (T, 6) arrays; ``present[t]`` is False for
    intervals with no contributing record, which then carry all zeros.
    """

    machine_id: int
    avg: np.ndarray
    peak: np.ndarray
    present: np.ndarray

    @property
    def n_intervals(self) -> int:
        return self.avg.shape[0]

    def interval(self, t: int) -> IntervalUsage:
        """Materialize interval ``t`` as a validated value object."""
        return IntervalUsage(
            machine_id=self.machine_id,
            interval=t,
            avg=tuple(float(v) for v in self.avg[t]),
            peak=tuple(float(v) for v in self.peak[t]),
        )


def _lines(source: Iterable[str]) -> Iterator[tuple[int, str]]:
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if line:
            yield line_no, line


def parse_machine_events(source: Iterable[str]) -> list[MachineEvent]:
    """Parse machine-event rows, returning events sorted by (machine_id, time).

    Update events are kept; downstream pairing ignores them.
    """
    events: list[MachineEvent] = []
    saw_header = False
    for line_no, line in _lines(source):
        if not saw_header:
            if line != MACHINE_EVENTS_HEADER:
                raise ParseError(line_no, f"expected header '{MACHINE_EVENTS_HEADER}'")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(line_no, f"expected 3 fields, got {len(parts)}")
        try:
            time_us = int(parts[0])
            machine_id = int(parts[1])
            code = int(parts[2])
        except ValueError as exc:
            raise ParseError(line_no, f"non-integer field: {exc}") from None
        try:
            kind = MachineEventKind(code)
        except ValueError:
            raise ParseError(line_no, f"unknown event code {code}") from None
        events.append(MachineEvent(machine_id, time_us, kind))
    events.sort(key=lambda e: (e.machine_id, e.time_us, e.kind))
    return events


def parse_usage_records(source: Iterable[str]) -> tuple[list[UsageRecord], ClampStats]:
    """Parse usage rows, clamping out-of-range values into [0, 1].

    Clamps are counted, never silent. After range clamping, a mean still
    above its max is capped at the max (also counted) so the record
    invariant mean <= max holds. Rows with start >= end are rejected.
    """
    records: list[UsageRecord] = []
    stats = ClampStats()
    saw_header = False
    for line_no, line in _lines(source):
        if not saw_header:
            if line != USAGE_HEADER:
                raise ParseError(line_no, "unexpected resource_usage header")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 3 + 2 * N_RESOURCES:
            raise ParseError(line_no, f"expected 15 fields, got {len(parts)}")
        try:
            start_us = int(parts[0])
            end_us = int(parts[1])
            machine_id = int(parts[2])
            values = [float(p) for p in parts[3:]]
        except ValueError as exc:
            raise ParseError(line_no, f"non-numeric field: {exc}") from None
        if start_us >= end_us:
            raise ParseError(line_no, f"start {start_us} >= end {end_us}")
        clamped = 0
        mean = values[:N_RESOURCES]
        peak = values[N_RESOURCES:]
        for r in range(N_RESOURCES):
            m, p = mean[r], peak[r]
            if not 0.0 <= m <= 1.0:
                mean[r] = min(max(m, 0.0), 1.0)
                clamped += 1
            if not 0.0 <= p <= 1.0:
                peak[r] = min(max(p, 0.0), 1.0)
                clamped += 1
            if mean[r] > peak[r]:
                mean[r] = peak[r]
                clamped += 1
        if clamped:
            stats.values_clamped += clamped
            stats.rows_affected += 1
        records.append(
            UsageRecord(machine_id, start_us, end_us, tuple(mean), tuple(peak))
        )
    return records, stats


def aggregate_intervals(
    records: Iterable[UsageRecord],
    horizon_us: int,
    interval_us: int = INTERVAL_US,
) -> dict[int, MachineSeries]:
    """Aggregate raw records into dense per-machine interval series.

    Per bin, avg is the overlap-duration-weighted mean of record means and
    peak is the max of record maxima over every bin the record touches.
    Records are sorted on all fields before accumulation so the result is
    bit-identical under any permutation of the input.
    """
    records = list(records)
    if not records:
        return {}
    max_end = max(r.end_us for r in records)
    if horizon_us < max_end:
        raise ValueError(f"horizon {horizon_us} < max record end {max_end}")
    n_bins = -(-horizon_us // interval_us)

    records.sort(key=lambda r: (r.machine_id, r.start_us, r.end_us, r.mean, r.peak))

    out: dict[int, MachineSeries] = {}
    i = 0
    n = len(records)
    while i < n:
        machine_id = records[i].machine_id
        j = i
        while j < n and records[j].machine_id == machine_id:
            j += 1
        out[machine_id] = _aggregate_machine(
            records[i:j], machine_id, n_bins, interval_us
        )
        i = j
    return out


def _aggregate_machine(
    recs: list[UsageRecord], machine_id: int, n_bins: int, interval_us: int
) -> MachineSeries:
    acc = np.zeros((n_bins, N_RESOURCES))
    wsum = np.zeros(n_bins)
    peak = np.zeros((n_bins, N_RESOURCES))

    starts = np.array([r.start_us for r in recs], dtype=np.int64)
    ends = np.array([r.end_us for r in recs], dtype=np.int64)
    means = np.array([r.mean for r in recs])
    peaks = np.array([r.peak for r in recs])

    first_bin = starts // interval_us
    last_bin = (ends - 1) // interval_us
    single = first_bin == last_bin

    if np.any(single):
        b = first_bin[single]
        w = (ends[single] - starts[single]).astype(float)
        np.add.at(wsum, b, w)
        np.add.at(acc, b, w[:, None] * means[single])
        np.maximum.at(peak, b, peaks[single])

    # spanning records: rare in practice, handled per bin
    for k in np.nonzero(~single)[0]:
        for b in range(first_bin[k], last_bin[k] + 1):
            lo = max(starts[k], b * interval_us)
            hi = min(ends[k], (b + 1) * interval_us)
            w = float(hi - lo)
            wsum[b] += w
            acc[b] += w * means[k]
            peak[b] = np.maximum(peak[b], peaks[k])

    present = wsum > 0
    avg = np.zeros_like(acc)
    np.divide(acc, wsum[:, None], out=avg, where=present[:, None])
    # weighted mean of values each <= the bin peak can only round past it
    # at the last ulp; clip so the interval invariant avg <= peak holds
    np.minimum(avg, peak, out=avg)
    avg.setflags(write=False)
    peak.setflags(write=False)
    present.setflags(write=False)
    return MachineSeries(machine_id=machine_id, avg=avg, peak=peak, present=present)
