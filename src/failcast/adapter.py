"""Adapter from the public Google clusterdata-2011 layout to the native schema.

machine_events (headerless):
    col 0 time, 1 machine_id, 2 event_type (0=ADD, 1=REMOVE, 2=UPDATE),
    3 platform_id, 4-5 capacities. Times are already microseconds; only
    the first three columns are carried over.

task_usage (headerless), columns used (0-based):
    0 start, 1 end, 4 machine_id,
    5 mean cpu, 6 canonical memory, 9 total page cache, 10 max memory,
    11 mean disk i/o time, 12 mean local disk space, 13 max cpu,
    14 max disk i/o time, 16 memory accesses per instruction.

Per machine and 5-minute bin, co-resident task usage is SUMMED (weighted
by each task record's overlap with the bin) and clamped to 1. Peaks are
the clamped sum of task maxima, an upper bound on the true machine peak.
Resources with no max column (disk space, page cache, mai) reuse the
mean. Empty usage fields count as zero, as in the published trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from . import ingestion, tables
from .ingestion import MACHINE_EVENTS_HEADER, USAGE_HEADER
from .trace_model import INTERVAL_US, N_RESOURCES, MachineEventKind

# (mean column, max column) per native resource index
_USAGE_COLUMNS = [
    (5, 13),   # cpu
    (11, 14),  # disk i/o time
    (12, 12),  # disk space
    (6, 10),   # memory
    (9, 9),    # page cache
    (16, 16),  # memory accesses per instruction
]
_VALUE_COLUMNS = sorted({c for pair in _USAGE_COLUMNS for c in pair})
_MEAN = [_VALUE_COLUMNS.index(mean) for mean, _ in _USAGE_COLUMNS]
_PEAK = [_VALUE_COLUMNS.index(peak) for _, peak in _USAGE_COLUMNS]
_TASK_DTYPE = np.dtype(
    [("start", np.int64), ("end", np.int64), ("machine_id", np.int64),
     ("values", np.float64, (len(_VALUE_COLUMNS),))]
)


@dataclass
class AdaptStats:
    events_converted: int = 0
    events_skipped: int = 0
    usage_rows_read: int = 0
    usage_bins_written: int = 0
    values_clamped: int = 0


def convert_machine_events(source: TextIO, out: TextIO, stats: AdaptStats) -> None:
    """Copy (time, machine id, event) rows into a native machine-events table.

    A row with a blank field among the three, or an event code outside
    0..2, is skipped and counted. A row with fewer than three fields, or
    a field that is not an integer in a row without blanks, raises
    ParseError naming its line.
    """
    fields = tables.read_body(
        source, 0, str, _integer_rule, usecols=(0, 1, 2)
    ).reshape(-1, 3)
    rows = fields[(fields != "").all(axis=1)].astype(np.int64)
    rows = rows[np.isin(rows[:, 2], list(MachineEventKind))]
    stats.events_converted += len(rows)
    stats.events_skipped += len(fields) - len(rows)
    out.write(MACHINE_EVENTS_HEADER + "\n")
    tables.write_rows(out, "%d,%d,%d\n", rows)


def _integer_rule(fields: np.ndarray) -> list[tables.Rule]:
    """A row whose three fields are all filled in must hold three int64 integers."""
    full = (fields != "").all(axis=1)
    try:
        fields[full].astype(np.int64)
        bad = np.zeros_like(full)
    except (ValueError, OverflowError):
        # field by field, and only on this error path, to find the row
        bad = full & ~np.vectorize(_is_int64, otypes=[bool])(fields).all(axis=1)
    return [(bad, lambda i: f"non-integer field in {','.join(fields[i])!r}")]


def _is_int64(field: str) -> bool:
    try:
        return -(2**63) <= int(field) < 2**63
    except ValueError:
        return False


def convert_task_usage(source: TextIO, out: TextIO, stats: AdaptStats) -> None:
    """Sum co-resident task usage into native per-machine 5-minute rows.

    Start, end and machine id are required integers, and a blank usage
    field reads as 0. Rows with start >= end are dropped. Each bin sums,
    in file order, the overlap-weighted means and the maxima of the rows
    touching it; sums above 1 are clamped to 1 and counted.
    """
    rows = tables.read_body(
        source, 0, _TASK_DTYPE,
        usecols=(0, 1, 4, *_VALUE_COLUMNS),
        converters=dict.fromkeys(_VALUE_COLUMNS, lambda field: float(field) if field else 0.0),
    )
    rows = rows[rows["start"] < rows["end"]]
    stats.usage_rows_read += len(rows)
    # means then maxima, as in a native row; a task's max is at least its mean
    values = rows["values"][:, _MEAN + _PEAK]
    np.maximum(values[:, N_RESOURCES:], values[:, :N_RESOURCES], out=values[:, N_RESOURCES:])

    row, bins, overlap = ingestion.bin_pieces(rows["start"], rows["end"])
    cells, cell = np.unique(
        np.column_stack([rows["machine_id"][row], bins]), axis=0, return_inverse=True
    )
    pieces = values[row]
    pieces[:, :N_RESOURCES] *= (overlap / INTERVAL_US)[:, None]
    sums = np.zeros((len(cells), pieces.shape[1]))
    # np.add.at adds in piece order, so each cell sums its rows in file order
    np.add.at(sums, cell, pieces)
    stats.values_clamped += int(np.count_nonzero(sums > 1.0))
    stats.usage_bins_written += len(cells)
    np.clip(sums, 0.0, 1.0, out=sums)
    np.maximum(sums[:, N_RESOURCES:], sums[:, :N_RESOURCES], out=sums[:, N_RESOURCES:])

    machine_id, b = cells.T
    out.write(USAGE_HEADER + "\n")
    ingestion.write_usage_rows(out, b * INTERVAL_US, (b + 1) * INTERVAL_US, machine_id, sums)
