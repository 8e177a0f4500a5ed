"""The text tables of every stage: one reader, one ``%`` writer and one digit speller."""

from __future__ import annotations

import functools
import itertools
import warnings
from typing import Callable, Iterable, Iterator, Optional, TextIO

import numpy as np

from .errors import ParseError


def nonblank_lines(source: Iterable[str], first_line_no: int = 1) -> Iterator[tuple[int, str]]:
    """(line number, line without its line break) of each non-empty line of ``source``."""
    for line_no, raw in enumerate(source, start=first_line_no):
        line = raw.rstrip("\n").rstrip("\r")
        if line:
            yield line_no, line


#: A row rule: the mask of the rows that break it, and the message for one of them.
Rule = tuple[np.ndarray, Callable[[int], str]]


def read_table(
    source: TextIO,
    header: str,
    dtype: np.dtype,
    check: Optional[Callable[[np.ndarray], list[Rule]]] = None,
) -> np.ndarray:
    """Read a CSV table with the given header into a structured array of ``dtype``.

    The header must be the first non-empty line of the seekable text file
    ``source``, and a file without one is an empty table.
    """
    header_no, first = next(nonblank_lines(iter(source.readline, "")), (0, header))
    if first != header:
        raise ParseError(header_no, f"expected header '{header}'")
    return read_body(source, header_no, dtype, check)


def read_body(
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
        for no, line in nonblank_lines(source, line_no + 1):
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
WRITE_BLOCK_ROWS = 128


def write_rows(out: TextIO, row_format: str, *columns: np.ndarray) -> None:
    """Write one ``row_format`` line per row of the (n,) or (n, k) ``columns``.

    Row i's fields are row i of each column in turn. Each block of rows is
    turned into Python scalars and formatted by one ``%``, so ``%r`` writes
    a float as its shortest round-trip repr, ``inf`` included.
    """
    for lo in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
        out.write(format_rows(row_format, *(c[lo : lo + WRITE_BLOCK_ROWS] for c in columns)))


def format_rows(row_format: str, *columns: np.ndarray) -> str:
    """One ``row_format`` line per row of the (n,) or (n, k) ``columns``, by one ``%``."""
    block = np.hstack([(c[:, None] if c.ndim == 1 else c).astype(object) for c in columns])
    return row_format * len(block) % tuple(block.ravel().tolist())


#: rows per block of the writers that spell rows in numpy: usage rows and forest nodes
TEXT_BLOCK_ROWS = 1024
#: 0..999 as little-endian words of four bytes: at i, i's three digits and a NUL; at
#: 1000 + i, the same with i's trailing zeros as NULs
_TRIPLE_WORDS = np.frombuffer(
    b"".join(b"%03d\0" % i for i in range(1000))
    + b"".join((b"%03d" % i).rstrip(b"0").ljust(4, b"\0") for i in range(1000)),
    dtype="<u4",
)
#: the word ``,0.`` that leads a spelled field; adding d << 8 makes it ``,d.``
LEAD = int.from_bytes(b",0.", "little")


def spelled_rows(first, lead, m: np.ndarray, trim: bool) -> str:
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


def merged_rows(spelled: np.ndarray, text: str, row_format: str, *columns) -> np.ndarray:
    """A block's lines in row order, without their newlines, as an object array: the
    ``spelled`` rows' from ``text``, the others' from ``columns`` by one ``%`` of
    ``row_format``, which ends in a newline."""
    lines = np.empty(len(spelled), dtype=object)
    lines[spelled] = text.split("\n")[:-1]
    lines[~spelled] = format_rows(row_format, *(c[~spelled] for c in columns)).split("\n")[:-1]
    return lines
