"""Trace file parsing, the native usage row writer, and 5-minute interval aggregation.

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
from typing import TextIO

import numpy as np

from .errors import FailcastError
from .tables import LEAD, TEXT_BLOCK_ROWS, Rule, format_rows, merged_rows, read_table, spelled_rows
from .trace_model import INTERVAL_US, N_RESOURCES, IntervalSeries, MachineEventKind

MACHINE_EVENTS_HEADER = "time_us,machine_id,event"
USAGE_HEADER = (
    "start_us,end_us,machine_id,"
    "mean_cpu,mean_diskio,mean_disk,mean_mem,mean_cache,mean_mai,"
    "max_cpu,max_diskio,max_disk,max_mem,max_cache,max_mai"
)
_USAGE_VALUE_FIELDS = tuple(USAGE_HEADER.split(",")[3:])
#: a usage row, one machine's usage over [start_us, end_us): int64 ``start_us``,
#: ``end_us`` and ``machine_id``, then float64 ``values``, the six per-resource
#: means and then the six maxima over the row's span
USAGE_DTYPE = np.dtype(
    [(name, np.int64) for name in USAGE_HEADER.split(",")[:3]]
    + [("values", np.float64, (len(_USAGE_VALUE_FIELDS),))]
)
_EVENTS_DTYPE = np.dtype([(name, np.int64) for name in MACHINE_EVENTS_HEADER.split(",")])


@dataclass
class ClampStats:
    """How many raw usage values had to be forced back into range."""

    values_clamped: int = 0
    rows_affected: int = 0


def write_usage_rows(
    out: TextIO, start_us: np.ndarray, end_us: np.ndarray, machine_id: np.ndarray,
    values: np.ndarray,
) -> None:
    """Write a native usage row per row of the columns and the (n, 12) ``values``.

    The row is ``%d,%d,%d`` of the columns, then ``%.6f`` of each value,
    all comma-separated, byte for byte as ``%`` formats it. A row of
    values in [0, 1], none within 1e-6 millionths of a rounding tie, is
    rounded to millionths in float64 and spelled from the digit table;
    any other row, negative zero and NaN included, is formatted by ``%``.
    """
    for lo in range(0, len(values), TEXT_BLOCK_ROWS):
        rows = slice(lo, lo + TEXT_BLOCK_ROWS)
        v = values[rows]
        exact = (v >= 0.0) & (v <= 1.0) & ~np.signbit(v)
        micro = np.where(exact, v, 0.0) * 1e6
        exact &= np.abs(micro - np.floor(micro) - 0.5) > 1e-6
        spelled = exact.all(axis=1)
        whole, m = np.divmod(np.floor(micro[spelled] + 0.5).astype(np.int32), 1_000_000)
        text = spelled_rows(0, LEAD + (whole << 8), m, trim=False)
        lines = merged_rows(spelled, text, ",%.6f" * v.shape[1] + "\n", v)
        keys = start_us[rows], end_us[rows], machine_id[rows]
        out.write(format_rows("%d,%d,%d%s\n", *keys, lines))


def parse_machine_events(source: TextIO) -> np.ndarray:
    """Parse machine-event rows, sorted by (machine_id, time_us, event).

    The result is a structured array with the int64 fields ``time_us``,
    ``machine_id`` and ``event`` (a MachineEventKind code). Update events
    are kept; pairing ignores them. A malformed row, an unknown event
    code or a negative time raises ParseError naming its line.
    """
    rows = read_table(source, MACHINE_EVENTS_HEADER, _EVENTS_DTYPE, _event_rules)
    return rows[np.lexsort((rows["event"], rows["time_us"], rows["machine_id"]))]


def _event_rules(rows: np.ndarray) -> list[Rule]:
    code, time_us = rows["event"], rows["time_us"]
    unknown = ~np.isin(code, list(MachineEventKind))
    return [
        (unknown, lambda i: f"unknown event code {code[i]}"),
        (time_us < 0, lambda i: f"negative time {time_us[i]}"),
    ]


def parse_usage_records(source: TextIO) -> tuple[np.ndarray, ClampStats]:
    """Parse usage rows into a ``USAGE_DTYPE`` array, clamping out-of-range values into [0, 1].

    Clamps are counted, never silent. After range clamping, a mean still
    above its max is capped at the max (also counted) so the row
    invariant mean <= max holds. A row with the wrong field count, a
    non-numeric or non-finite value, a negative start or start >= end
    raises ParseError naming its line.
    """
    rows = read_table(source, USAGE_HEADER, USAGE_DTYPE, _usage_rules)
    values = rows["values"]
    clamped = (values < 0.0) | (values > 1.0)
    np.clip(values, 0.0, 1.0, out=values)
    mean, peak = values[:, :N_RESOURCES], values[:, N_RESOURCES:]
    capped = mean > peak
    np.minimum(mean, peak, out=mean)
    per_row = clamped.sum(axis=1) + capped.sum(axis=1)
    stats = ClampStats(
        values_clamped=int(per_row.sum()), rows_affected=int(np.count_nonzero(per_row))
    )
    return rows, stats


def _usage_rules(rows: np.ndarray) -> list[Rule]:
    values, start, end = rows["values"], rows["start_us"], rows["end_us"]
    finite = np.isfinite(values)

    def non_finite(i: int) -> str:
        j = int(np.argmin(finite[i]))
        return f"non-finite {_USAGE_VALUE_FIELDS[j]} {values[i, j]}"

    return [
        (~finite.all(axis=1), non_finite),
        (start < 0, lambda i: f"negative start {start[i]}"),
        (start >= end, lambda i: f"start {start[i]} >= end {end[i]}"),
    ]


def aggregate_intervals(table: np.ndarray, horizon_us: int) -> IntervalSeries:
    """Aggregate the ``USAGE_DTYPE`` rows ``table`` into dense 5-minute series for every machine.

    Per bin, avg is the overlap-duration-weighted mean of row means and
    peak is the max of row maxima over every bin the row touches. Rows
    are ordered on all fields before accumulation, and each bin adds its
    single-bin rows before the pieces of rows spanning several bins, so
    the result is bit-identical under any permutation of the rows.
    """
    start_us, end_us = table["start_us"], table["end_us"]
    max_end = int(end_us.max(initial=0))
    if horizon_us < max_end:
        raise FailcastError(f"horizon {horizon_us} < max record end {max_end}")
    n_bins = -(-horizon_us // INTERVAL_US)

    order = _row_order(table)
    sorted_ids = table["machine_id"][order]
    new_machine = np.ones(len(table), dtype=bool)
    new_machine[1:] = sorted_ids[1:] != sorted_ids[:-1]
    machine_ids = sorted_ids[new_machine]
    machine_index = np.empty(len(table), dtype=np.int64)
    machine_index[order] = np.cumsum(new_machine) - 1

    first_bin = start_us // INTERVAL_US
    is_single = first_bin[order] == (end_us[order] - 1) // INTERVAL_US
    single, spanning = order[is_single], order[~is_single]
    piece_row, piece_bin, overlap = bin_pieces(start_us[spanning], end_us[spanning])
    pieces = spanning[piece_row]

    rows = np.concatenate([single, pieces])
    cell = machine_index[rows] * n_bins + np.concatenate([first_bin[single], piece_bin])
    weight = np.concatenate(
        [end_us[single] - start_us[single], overlap]
    ).astype(float)

    n_cells = len(machine_ids) * n_bins
    wsum = np.zeros(n_cells)
    avg = np.zeros((n_cells, N_RESOURCES))
    peak = np.zeros((n_cells, N_RESOURCES))
    np.add.at(wsum, cell, weight)
    # each half is gathered on its own, so the two are never alive at once
    np.add.at(avg, cell, weight[:, None] * table["values"][rows, :N_RESOURCES])
    np.maximum.at(peak, cell, table["values"][rows, N_RESOURCES:])

    present = wsum > 0
    np.divide(avg, wsum[:, None], out=avg, where=present[:, None])
    # weighted mean of values each <= the bin peak can only round past it
    # at the last ulp; clip so the interval invariant avg <= peak holds
    np.minimum(avg, peak, out=avg)
    shape = (len(machine_ids), n_bins)
    avg = avg.reshape(shape + (N_RESOURCES,))
    peak = peak.reshape(shape + (N_RESOURCES,))
    present = present.reshape(shape)
    return IntervalSeries(machine_ids, avg, peak, present)


def bin_pieces(
    start_us: np.ndarray, end_us: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, bin, overlap) of each piece of the spans [start_us, end_us) cut at 5-minute bin edges.

    Pieces come in span order then bin order; ``overlap`` is in microseconds.
    """
    first_bin = start_us // INTERVAL_US
    n_pieces = (end_us - 1) // INTERVAL_US - first_bin + 1
    row = np.repeat(np.arange(len(start_us)), n_pieces)
    bins = first_bin[row] + (
        np.arange(len(row)) - np.repeat(np.cumsum(n_pieces) - n_pieces, n_pieces)
    )
    lo = np.maximum(start_us[row], bins * INTERVAL_US)
    hi = np.minimum(end_us[row], (bins + 1) * INTERVAL_US)
    return row, bins, hi - lo


def _row_order(table: np.ndarray) -> np.ndarray:
    """Row indices of the usage rows ``table`` sorted by (machine, start, end, values)."""
    keys = (table["machine_id"], table["start_us"], table["end_us"])
    order = np.lexsort(keys[::-1])
    tied = np.ones(len(order), dtype=bool)[1:]
    for key in keys:
        k = key[order]
        tied &= k[1:] == k[:-1]
    if tied.any():
        # only rows tying on the three integer keys need their values compared
        at = np.flatnonzero(np.r_[tied, False] | np.r_[False, tied])
        sub = order[at]
        value_keys = table["values"][sub].T[::-1]
        order[at] = sub[np.lexsort((*value_keys, *(key[sub] for key in keys[::-1])))]
    return order

