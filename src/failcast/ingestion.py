"""Trace file parsing, the one CSV table reader and writer, and 5-minute interval aggregation.

Input schemas (UTF-8, LF, no quoting):

``machine_events.csv``
    header ``time_us,machine_id,event`` with event 0=Add, 1=Remove, 2=Update.

``resource_usage.csv``
    header ``start_us,end_us,machine_id,mean_cpu,mean_diskio,mean_disk,
    mean_mem,mean_cache,mean_mai,max_cpu,max_diskio,max_disk,max_mem,
    max_cache,max_mai`` with all usage fields in [0, 1].
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, TextIO

import numpy as np

from .errors import FailcastError, ParseError
from .trace_model import INTERVAL_US, N_RESOURCES, FleetArrays, MachineEventKind

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


@dataclass(frozen=True)
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


def _lines(source: Iterable[str], first_line_no: int = 1) -> Iterator[tuple[int, str]]:
    for line_no, raw in enumerate(source, start=first_line_no):
        line = raw.rstrip("\n").rstrip("\r")
        if line:
            yield line_no, line


#: A row rule: the mask of the rows that break it, and the message for one of them.
Rule = tuple[np.ndarray, Callable[[int], str]]


def _read_table(
    source: TextIO,
    header: str,
    dtype: np.dtype,
    check: Optional[Callable[[np.ndarray], list[Rule]]] = None,
) -> np.ndarray:
    """Read a CSV table with the given header into a structured array of ``dtype``.

    The header must be the first non-empty line of the seekable text file
    ``source``, and a file without one is an empty table.
    """
    header_no, first = next(_lines(iter(source.readline, "")), (0, header))
    if first != header:
        raise ParseError(header_no, f"expected header '{header}'")
    return _read_body(source, header_no, dtype, check)


def _read_body(
    source: TextIO,
    line_no: int,
    dtype: np.dtype,
    check: Optional[Callable[[np.ndarray], list[Rule]]] = None,
    *,
    delimiter: Optional[str] = ",",
    comments: Optional[str] = None,
    **settings,
) -> np.ndarray:
    """Read the seekable text file ``source`` from after its line ``line_no`` to its end.

    One ``np.loadtxt`` call with the format's ``delimiter``, ``comments``
    and ``settings`` reads one row of ``dtype`` per line that holds one (a
    2-D array for an unstructured ``dtype``); a body without one is empty.
    ``check(rows)`` gives the rules the rows must keep. The first line that
    is not a row of ``dtype`` or breaks a rule raises ParseError with its
    line number, which is searched for only then, by reading the body again.
    """
    dtype = np.dtype(dtype)
    loadtxt = functools.partial(
        np.loadtxt, dtype=dtype, delimiter=delimiter, comments=comments,
        ndmin=1 if dtype.names else 2, **settings,
    )
    start = source.tell()

    def body() -> Iterator[tuple[int, str]]:
        source.seek(start)
        for no, line in _lines(source, line_no + 1):
            if comments:
                line = line.partition(comments)[0]
            # split on whitespace, a line of only spaces holds no row; split on a
            # delimiter, it is a row of one blank field
            if line.strip() if delimiter is None else line:
                yield no, line

    n_rows = sum(1 for _ in body())
    if not n_rows:
        return np.empty(0, dtype)
    source.seek(start)
    try:
        with warnings.catch_warnings():
            # np.loadtxt reads a text dtype in chunks and warns of the blank lines
            # in them, which every format here allows
            warnings.simplefilter("ignore", UserWarning)
            rows = loadtxt(source)
    except ValueError:
        rows = None
    unreadable = None
    if rows is None or len(rows) != n_rows:
        for k, (no, line) in enumerate(body()):
            try:
                loadtxt([line])
            except ValueError as exc:
                unreadable = ParseError(no, str(exc).partition(" at row")[0])
                break
        else:
            # np.loadtxt reads each line on its own, so a body it rejects has a line it rejects alone
            raise AssertionError("no unreadable line in a rejected table")
        if not k:
            raise unreadable
        # a row above the unreadable line that breaks a rule comes first
        rows = loadtxt(line for _, line in itertools.islice(body(), k))
    firsts = [
        (int(np.argmax(broken)), message)
        for broken, message in (check(rows) if check else [])
        if broken.any()
    ]
    if firsts:
        row, message = min(firsts, key=lambda first: first[0])
        no, _ = next(itertools.islice(body(), row, None))
        raise ParseError(no, message(row))
    if unreadable:
        raise unreadable
    return rows


#: rows per block of ``write_rows``: bounds the Python scalars and text alive at once
_WRITE_BLOCK_ROWS = 128


def write_rows(out: TextIO, row_format: str, *columns: np.ndarray) -> None:
    """Write one ``row_format`` line per row of the (n,) or (n, k) ``columns``.

    Row i's fields are row i of each column in turn. Each block of rows is
    turned into Python scalars and formatted by one ``%``, so ``%r`` writes
    a float as its shortest round-trip repr, ``inf`` included.
    """
    for lo in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
        out.write(_format_rows(row_format, *(c[lo : lo + _WRITE_BLOCK_ROWS] for c in columns)))


def _format_rows(row_format: str, *columns: np.ndarray) -> str:
    """One ``row_format`` line per row of the (n,) or (n, k) ``columns``, by one ``%``."""
    block = np.hstack([(c[:, None] if c.ndim == 1 else c).astype(object) for c in columns])
    return row_format * len(block) % tuple(block.ravel().tolist())


#: rows per block of the writers that spell rows in numpy: usage rows and forest nodes
_TEXT_BLOCK_ROWS = 1024
#: 0..999 as little-endian words of four bytes: at i, i's three digits and a NUL; at
#: 1000 + i, the same with i's trailing zeros as NULs
_TRIPLE_WORDS = np.frombuffer(
    b"".join(b"%03d\0" % i for i in range(1000))
    + b"".join((b"%03d" % i).rstrip(b"0").ljust(4, b"\0") for i in range(1000)),
    dtype="<u4",
)
#: the word ``,0.`` that leads a spelled field; adding d << 8 makes it ``,d.``
_LEAD = int.from_bytes(b",0.", "little")


def _spelled_rows(first, lead, m: np.ndarray, trim: bool) -> str:
    """A line per row of the (n, k) millionths ``m`` in [0, 1e6), spelled from the digit table.

    Row i is the word ``first[i]``, then per field the word ``lead`` and
    m's six digits (without their trailing zeros if ``trim``), then a
    newline. The words' NULs are dropped, so a ``first`` of 0 writes nothing.
    """
    high, low = np.divmod(m, 1000)
    if trim:
        # the leading digits lose their trailing zeros too when the last three are zeros
        high, low = high + 1000 * (low == 0), low + 1000
    words = np.empty((len(m), 2 + 3 * m.shape[1]), dtype="<u4")
    words[:, 0], words[:, -1] = first, ord("\n")
    fields = words[:, 1:-1].reshape(*m.shape, 3)
    fields[..., 0] = lead
    fields[..., 1] = np.take(_TRIPLE_WORDS, high)
    fields[..., 2] = np.take(_TRIPLE_WORDS, low)
    return words.tobytes().translate(None, b"\0").decode()


def _merged_rows(spelled: np.ndarray, text: str, row_format: str, *columns) -> np.ndarray:
    """A block's lines in row order, without their newlines, as an object array: the
    ``spelled`` rows' from ``text``, the others' from ``columns`` by one ``%`` of
    ``row_format``, which ends in a newline."""
    lines = np.empty(len(spelled), dtype=object)
    lines[spelled] = text.split("\n")[:-1]
    lines[~spelled] = _format_rows(row_format, *(c[~spelled] for c in columns)).split("\n")[:-1]
    return lines


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
    for lo in range(0, len(values), _TEXT_BLOCK_ROWS):
        rows = slice(lo, lo + _TEXT_BLOCK_ROWS)
        v = values[rows]
        exact = (v >= 0.0) & (v <= 1.0) & ~np.signbit(v)
        micro = np.where(exact, v, 0.0) * 1e6
        exact &= np.abs(micro - np.floor(micro) - 0.5) > 1e-6
        spelled = exact.all(axis=1)
        whole, m = np.divmod(np.floor(micro[spelled] + 0.5).astype(np.int32), 1_000_000)
        text = _spelled_rows(0, _LEAD + (whole << 8), m, trim=False)
        lines = _merged_rows(spelled, text, ",%.6f" * v.shape[1] + "\n", v)
        keys = start_us[rows], end_us[rows], machine_id[rows]
        out.write(_format_rows("%d,%d,%d%s\n", *keys, lines))


def parse_machine_events(source: TextIO) -> np.ndarray:
    """Parse machine-event rows, sorted by (machine_id, time_us, event).

    The result is a structured array with the int64 fields ``time_us``,
    ``machine_id`` and ``event`` (a MachineEventKind code). Update events
    are kept; pairing ignores them. A malformed row, an unknown event
    code or a negative time raises ParseError naming its line.
    """
    rows = _read_table(source, MACHINE_EVENTS_HEADER, _EVENTS_DTYPE, _event_rules)
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
    rows = _read_table(source, USAGE_HEADER, USAGE_DTYPE, _usage_rules)
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


def aggregate_intervals(
    table: np.ndarray,
    horizon_us: int,
    interval_us: int = INTERVAL_US,
) -> IntervalSeries:
    """Aggregate the ``USAGE_DTYPE`` rows ``table`` into dense interval series for every machine.

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
    n_bins = -(-horizon_us // interval_us)

    order = _row_order(table)
    sorted_ids = table["machine_id"][order]
    new_machine = np.ones(len(table), dtype=bool)
    new_machine[1:] = sorted_ids[1:] != sorted_ids[:-1]
    machine_ids = sorted_ids[new_machine]
    machine_index = np.empty(len(table), dtype=np.int64)
    machine_index[order] = np.cumsum(new_machine) - 1

    first_bin = start_us // interval_us
    is_single = first_bin[order] == (end_us[order] - 1) // interval_us
    single, spanning = order[is_single], order[~is_single]
    piece_row, piece_bin, overlap = _bin_pieces(
        start_us[spanning], end_us[spanning], interval_us
    )
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


def _bin_pieces(
    start_us: np.ndarray, end_us: np.ndarray, interval_us: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, bin, overlap) of each piece of the spans [start_us, end_us) cut at bin edges.

    Pieces come in span order then bin order; ``overlap`` is in microseconds.
    """
    first_bin = start_us // interval_us
    n_pieces = (end_us - 1) // interval_us - first_bin + 1
    row = np.repeat(np.arange(len(start_us)), n_pieces)
    bins = first_bin[row] + (
        np.arange(len(row)) - np.repeat(np.cumsum(n_pieces) - n_pieces, n_pieces)
    )
    lo = np.maximum(start_us[row], bins * interval_us)
    hi = np.minimum(end_us[row], (bins + 1) * interval_us)
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

