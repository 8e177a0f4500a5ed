"""Lag-window feature construction and partial autocorrelation analysis.

The partial autocorrelation at lag k is defined here as the last
coefficient of the order-k least-squares autoregression (with intercept)
fitted to the series. Each order is fitted on its own, from its centred
design matrix of lagged values and its k-by-k normal equations. One
kernel fits a batch of equal-length series at once, one stacked solve
per order: ``pacf_by_machine`` passes it a machine's varying resources
together, and ``pacf`` is its batch of one, with the same values.

``pacf_by_machine`` returns the fleet's partial autocorrelations as one
structured array, a row per (machine, resource) pair, and
``significant_lag_counts`` turns that table into the per-lag histogram
that ``pacf-report`` writes.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import ConfigError, FailcastError, ParseError
from .tables import (
    LEAD, WRITE_BLOCK_ROWS, Rule, merged_rows, nonblank_lines, read_body, read_table, spelled_rows,
    write_rows,
)
from .trace_model import (
    LAGS, N_CLASSES, N_FEATURES, N_RESOURCES, FleetArrays, IntervalSeries, LabelTracks,
    ResourceKind,
)

logger = logging.getLogger(__name__)

#: 95% significance threshold scale for sample partial autocorrelations.
SIGNIFICANCE_Z = 1.96
#: the lags 1..PACF_MAX_LAG that ``pacf_by_machine`` fits, the range of the histogram
#: that the LAGS-interval window is read off
PACF_MAX_LAG = 10
#: the shortest gap-free run, in intervals (about four hours), that ``pacf_by_machine``
#: fits: Box and Jenkins's rule of at least 50 observations for estimating correlations.
#: ``pacf`` needs PACF_MAX_LAG + 2, which this exceeds.
MIN_PACF_RUN = 50

KIND_AVG = "avg"
KIND_PEAK = "peak"


def pacf(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Partial autocorrelations for lags 1..max_lag.

    Lag k is the last coefficient of the order-k autoregression fitted by
    least squares, so each value reflects the correlation with the k-lagged
    past after the intervening lags' linear dependence is removed.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    n = len(x)
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if n <= max_lag + 1:
        raise ConfigError(
            f"series length {n} supports at most {n - 2} lags, requested {max_lag}"
        )
    if np.ptp(x) == 0.0:
        raise FailcastError("series is constant")
    return _pacf_rows(x[None, :], max_lag)[0]


def _pacf_rows(W: np.ndarray, max_lag: int) -> np.ndarray:
    """(g, max_lag) partial autocorrelations of the g equal-length series in
    the rows of W, each row exactly as ``pacf`` computes it on its own.

    Each order solves the g normal equations in one stacked call. When one
    of them is singular, the order is solved member by member, so that
    member's least-squares fallback leaves its neighbours untouched.
    """
    W = np.ascontiguousarray(W, dtype=float)
    g, n = W.shape
    out = np.empty((g, max_lag))
    for k in range(1, max_lag + 1):
        # regression rows t = k..n-1; column j holds x[t-j]
        y = W[:, k:]
        design = np.stack([W[:, k - j : n - j] for j in range(1, k + 1)], axis=2)
        yc = y - y.mean(axis=1, keepdims=True)
        dc = design - design.mean(axis=1, keepdims=True)
        dct = dc.transpose(0, 2, 1)
        gram = dct @ dc
        rhs = dct @ yc[:, :, None]
        try:
            coef = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            coef = np.array([_solve_or_lstsq(a, b) for a, b in zip(gram, rhs)])
        out[:, k - 1] = coef[:, -1, 0]
    return out


def _solve_or_lstsq(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def _longest_present_runs(present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M,) start and length of each row's first longest run of True; 0 and 0 for none."""
    # padded with False, a row's changes alternate between run starts and ends
    row, edge = np.nonzero(np.diff(present, axis=1, prepend=False, append=False))
    row, begin, run = row[::2], edge[::2], edge[1::2] - edge[::2]
    # by row, then longest first; the stable sort keeps equal runs in start order
    order = np.lexsort((-run, row))
    best = order[np.unique(row[order], return_index=True)[1]]
    start = np.zeros(len(present), dtype=np.int64)
    length = np.zeros(len(present), dtype=np.int64)
    start[row[best]] = begin[best]
    length[row[best]] = run[best]
    return start, length


def pacf_by_machine(series: IntervalSeries) -> np.ndarray:
    """Per-machine, per-resource partial autocorrelations of average usage.

    One row per (machine, resource) pair, in machine then resource order,
    with fields ``machine_id``, ``resource`` (a ``ResourceKind`` code),
    ``n_effective`` (the number of intervals used) and ``pacf`` (lags
    1..PACF_MAX_LAG). Each machine's series is cut to its first longest
    gap-free run, so downtime holes cannot fake correlation structure.
    Machines whose run is shorter than MIN_PACF_RUN intervals, and
    resources constant over it, are skipped.
    """
    dtype = np.dtype(
        [("machine_id", np.int64), ("resource", np.int8), ("n_effective", np.int64),
         ("pacf", np.float64, (PACF_MAX_LAG,))]
    )
    start, length = _longest_present_runs(series.present)
    rows = []
    for m in np.flatnonzero(length >= MIN_PACF_RUN):
        window = series.avg[m, start[m] : start[m] + length[m]]
        varying = np.flatnonzero(np.ptp(window, axis=0) != 0.0)
        values = _pacf_rows(window[:, varying].T, PACF_MAX_LAG)
        rows.extend((series.machine_ids[m], r, length[m], v) for r, v in zip(varying, values))
    return np.array(rows, dtype=dtype)


def significant_lag_counts(table: np.ndarray) -> np.ndarray:
    """(lags,) counts of the pairs of a ``pacf_by_machine`` table outside
    the significance band 1.96/sqrt(n_effective), per lag."""
    band = SIGNIFICANCE_Z / np.sqrt(table["n_effective"])
    return np.count_nonzero(np.abs(table["pacf"]) > band[:, None], axis=0)


def describe(index: int) -> tuple[str, int, int]:
    """(kind, resource, lag) of the flat feature index ``index``.

    Averages occupy the first half, peaks the second; within a half the
    order is resource-major, then lag 1..LAGS (most recent interval first).
    """
    if not 0 <= index < N_FEATURES:
        raise ValueError(f"feature index {index} out of range")
    half, rest = divmod(index, N_RESOURCES * LAGS)
    resource, lag0 = divmod(rest, LAGS)
    return (KIND_AVG if half == 0 else KIND_PEAK, resource, lag0 + 1)


def layout_json() -> str:
    """The ``layout.json`` of a dataset and of a bundle: every index with its description."""
    entries = []
    for i in range(N_FEATURES):
        kind, resource, lag = describe(i)
        entries.append(
            {
                "index": i,
                "kind": kind,
                "resource": ResourceKind(resource).name,
                "lag": lag,
            }
        )
    return json.dumps({"lags": LAGS, "features": entries}, indent=1)


@dataclass(frozen=True)
class Dataset(FleetArrays):
    """One dataset split, a row per labeled window, in (machine, interval) order.

    Row i is the window of machine ``machine_ids[i]`` that ends just before
    interval ``interval[i]`` (both (n,) int64): ``y`` is the (n,) int64
    FailureType code there and ``x`` the (n, N_FEATURES) float64 features.
    """

    machine_ids: np.ndarray
    interval: np.ndarray
    y: np.ndarray
    x: np.ndarray


@dataclass(frozen=True)
class DatasetConfig:
    normal_sample_count: int = 50_000
    rng_seed: int = 0
    train_fraction: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")
        if self.normal_sample_count < 0:
            raise ConfigError("normal_sample_count must be >= 0")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")


def class_ranks(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(n,) place of each row within its class after one ``rng.permutation`` per class
    present, in class order: the train/test split and the CV folds both read it."""
    rank = np.empty(len(y), dtype=np.int64)
    # the classes present; np.unique would import numpy.ma, 14 ms of start-up
    for cls in np.flatnonzero(np.bincount(y)):
        members = np.flatnonzero(y == cls)
        rank[members[rng.permutation(len(members))]] = np.arange(len(members))
    return rank


def build_dataset(
    series: IntervalSeries,
    tracks: LabelTracks,
    dcfg: DatasetConfig,
) -> tuple[Dataset, Dataset]:
    """Assemble the labeled dataset of the machines in ``tracks`` as (train, test).

    ``series`` may hold more machines than ``tracks``; only the tracked
    ones are used. A cell (machine, tau) is buildable when its LAGS
    preceding intervals are all present and not downtime. Every buildable
    failure instance is kept; normal instances are a seeded uniform
    sample of the requested size. The split is stratified per class and
    fully determined by the seed: a cell goes to train when its ``class_ranks``
    rank is below round(train_fraction * n) for its class's n cells. A
    window needs LAGS intervals before its labeled one, so a series of
    LAGS intervals or fewer raises ConfigError.
    """
    if tracks.y.shape[1:] != series.present.shape[1:] or not np.isin(
        tracks.machine_ids, series.machine_ids
    ).all():
        raise FailcastError("label tracks name machines or intervals the series lacks")
    L, T = LAGS, series.present.shape[1]
    if T <= L:
        raise ConfigError(
            f"a {T}-interval series holds no {L}-interval window before a labeled interval"
        )
    series_row = np.searchsorted(series.machine_ids, tracks.machine_ids)
    rng = np.random.default_rng(dcfg.rng_seed)
    good = series.present[series_row] & ~tracks.downtime
    csum = np.zeros((good.shape[0], good.shape[1] + 1), dtype=np.int32)
    np.cumsum(good, axis=1, out=csum[:, 1:])
    buildable = np.zeros_like(good)
    buildable[:, L:] = (csum[:, L:-1] - csum[:, : -L - 1]) == L

    # flat indices run in row-major, that is (machine, interval), order
    normals = np.flatnonzero(buildable & (tracks.y == 0))
    take = dcfg.normal_sample_count
    if len(normals) < take:
        logger.warning(
            "only %d buildable normal instances available, requested %d; using all",
            len(normals),
            take,
        )
        take = len(normals)
    chosen = rng.choice(len(normals), size=take, replace=False)
    keep = buildable & (tracks.y != 0)
    if not keep.any():
        logger.warning("dataset contains no failure instances")
    keep.flat[normals[chosen]] = True

    rows, taus = np.nonzero(keep)
    y = tracks.y[rows, taus].astype(np.int64)
    in_train = class_ranks(y, rng) < np.rint(dcfg.train_fraction * np.bincount(y))[y]
    splits = []
    # a boolean pick keeps the (machine, interval) order of np.nonzero
    for pick in (in_train, ~in_train):
        src, tau = series_row[rows[pick]], taus[pick]
        # x is the averages then the peaks, each resource-major with lags 1..L
        X = np.empty((len(src), 2, N_RESOURCES, L))
        for lag in range(1, L + 1):
            X[:, 0, :, lag - 1] = series.avg[src, tau - lag]
            X[:, 1, :, lag - 1] = series.peak[src, tau - lag]
        splits.append(
            Dataset(series.machine_ids[src], tau, y[pick], X.reshape(len(src), N_FEATURES))
        )
    return tuple(splits)


IDS_HEADER = "machine_id,interval"
#: the (machine_id, interval) key of a dataset row; arrays of keys sort by machine, then interval
IDS_DTYPE = np.dtype([(name, np.int64) for name in IDS_HEADER.split(",")])


def _dataset_header(dim: int) -> str:
    return "y," + ",".join(f"f{i}" for i in range(dim))


def write_dataset_csv(data: Dataset, out: TextIO) -> None:
    """Write the header, then a ``y,f0,...`` row per row of ``data``.

    Each row is ``%d`` of its class and ``%r``, the shortest round-trip
    repr, of each feature, written a block of rows at a time. A feature v
    that is an exact millionth in [0.0001, 1), m = rint(v * 1e6) with
    m / 1e6 == v and 100 <= m < 1e6, has "0." and m's six digits without
    their trailing zeros as its repr, so rows of such features under a
    one-digit class are spelled from the digit table; the other rows of
    a block are formatted by one ``%``, as ``write_rows`` formats them.
    """
    dim = data.x.shape[1]
    out.write(_dataset_header(dim) + "\n")
    row_format = "%d," + ",".join(["%r"] * dim) + "\n"
    for lo in range(0, len(data.y), WRITE_BLOCK_ROWS):
        y, x = data.y[lo : lo + WRITE_BLOCK_ROWS], data.x[lo : lo + WRITE_BLOCK_ROWS]
        # with m / 1e6 == v, 100 <= m < 1e6 is 0.0001 <= v < 1, so a row's least and
        # greatest features test the range, and no row outside it is scaled
        spelled = (x.min(axis=1) >= 1e-4) & (x.max(axis=1) < 1.0) & (y >= 0) & (y <= 9)
        candidates = x[spelled]
        m = np.rint(candidates * 1e6)
        exact = (m / 1e6 == candidates).all(axis=1)
        spelled[spelled] = exact
        text = spelled_rows(y[spelled] + ord("0"), LEAD, m[exact].astype(np.int32), trim=True)
        if not spelled.all():
            text = "\n".join(merged_rows(spelled, text, row_format, y, x).tolist()) + "\n"
        out.write(text)


def read_dataset_csv(source: TextIO) -> tuple[np.ndarray, np.ndarray]:
    """Read a dataset file into an (n, dim) feature matrix and (n,) labels.

    The header must be ``y,f0,...,f{dim-1}`` with dim >= 1. A row with the
    wrong field count, a non-numeric or non-finite value or an unknown
    class raises ParseError.
    """
    header_no, header = next(nonblank_lines(iter(source.readline, "")), (1, ""))
    dim = header.count(",")
    if not dim or header != _dataset_header(dim):
        raise ParseError(header_no, "expected dataset header 'y,f0,...'")
    dtype = np.dtype([("y", np.int64), ("x", np.float64, (dim,))])
    rows = read_body(source, header_no, dtype, _dataset_rules)
    return np.ascontiguousarray(rows["x"]), rows["y"].copy()


def _dataset_rules(rows: np.ndarray) -> list[Rule]:
    y, x = rows["y"], rows["x"]
    finite = np.isfinite(x)
    return [
        ((y < 0) | (y >= N_CLASSES), lambda i: f"unknown class {y[i]}"),
        (~finite.all(axis=1), lambda i: f"non-finite f{np.argmin(finite[i])}"),
    ]


def write_ids_csv(data: Dataset, out: TextIO) -> None:
    out.write(IDS_HEADER + "\n")
    write_rows(out, "%d,%d\n", data.machine_ids, data.interval)


def read_ids_csv(source: TextIO) -> tuple[np.ndarray, np.ndarray]:
    """Read an ids file into (machine_id, interval) arrays, one entry per dataset row.

    A row whose instance an earlier row has raises ParseError.
    """
    rows = read_table(source, IDS_HEADER, IDS_DTYPE, _ids_rules)
    return rows["machine_id"], rows["interval"]


def _ids_rules(rows: np.ndarray) -> list[Rule]:
    machine_id, interval = rows["machine_id"], rows["interval"]
    return [(repeats(machine_id, interval),
             lambda i: f"duplicate instance ({machine_id[i]}, {interval[i]})")]


def repeats(machine_id: np.ndarray, interval: np.ndarray) -> np.ndarray:
    """(n,) True at each entry whose (machine_id, interval) instance an earlier entry has."""
    order = np.lexsort((interval, machine_id))
    m, t = machine_id[order], interval[order]
    # the sort is stable, so every entry of an instance after its first is a repeat
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:]] = (m[1:] == m[:-1]) & (t[1:] == t[:-1])
    return repeat
