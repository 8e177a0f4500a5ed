"""Lag-window feature construction and partial autocorrelation analysis.

The partial autocorrelation at lag k is defined here as the last
coefficient of the order-k least-squares autoregression (with intercept)
fitted to the series. Each order is fitted on its own: its centred
design matrix of lagged values is built afresh and its k-by-k normal
equations solved, so lags 1..K cost K passes over the series.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, TextIO

import numpy as np

from .errors import InsufficientDataError, ZeroVarianceError
from .ingestion import MachineSeries
from .labeling import LabelTrack
from .trace_model import N_RESOURCES, FailureType, ResourceKind

logger = logging.getLogger(__name__)

#: 95% significance threshold scale for sample partial autocorrelations.
SIGNIFICANCE_Z = 1.96

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
        raise InsufficientDataError(
            f"series length {n} supports at most {n - 2} lags, requested {max_lag}"
        )
    if np.ptp(x) == 0.0:
        raise ZeroVarianceError("series is constant")

    out = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        # regression rows t = k..n-1; column j holds x[t-j]
        y = x[k:]
        design = np.column_stack([x[k - j : n - j] for j in range(1, k + 1)])
        yc = y - y.mean()
        dc = design - design.mean(axis=0)
        gram = dc.T @ dc
        rhs = dc.T @ yc
        try:
            coef = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            coef = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        out[k - 1] = coef[-1]
    return out


@dataclass(frozen=True)
class PacfResult:
    machine_id: int
    resource: ResourceKind
    pacf: np.ndarray
    n_effective: int

    @property
    def significance_band(self) -> float:
        return SIGNIFICANCE_Z / np.sqrt(self.n_effective)

    def significant_lags(self) -> list[int]:
        band = self.significance_band
        return [k + 1 for k, v in enumerate(self.pacf) if abs(v) > band]


def _longest_present_run(present: np.ndarray) -> tuple[int, int]:
    best_start = best_len = 0
    start = None
    for t, p in enumerate(present):
        if p and start is None:
            start = t
        elif not p and start is not None:
            if t - start > best_len:
                best_start, best_len = start, t - start
            start = None
    if start is not None and len(present) - start > best_len:
        best_start, best_len = start, len(present) - start
    return best_start, best_len


def pacf_by_machine(
    series: Mapping[int, MachineSeries],
    max_lag: int = 10,
    min_length: int = 50,
) -> list[PacfResult]:
    """Per-machine, per-resource partial autocorrelations of average usage.

    Uses the longest gap-free run of each machine's series so downtime
    holes cannot fake correlation structure. Machines whose run is too
    short or constant are skipped.
    """
    results: list[PacfResult] = []
    for machine_id in sorted(series):
        s = series[machine_id]
        start, length = _longest_present_run(s.present)
        if length < max(min_length, max_lag + 2):
            continue
        window = s.avg[start : start + length]
        for r in range(N_RESOURCES):
            col = window[:, r]
            if np.ptp(col) == 0.0:
                continue
            results.append(
                PacfResult(
                    machine_id=machine_id,
                    resource=ResourceKind(r),
                    pacf=pacf(col, max_lag),
                    n_effective=length,
                )
            )
    return results


def significant_lag_histogram(results: Iterable[PacfResult]) -> dict[int, int]:
    """Count machine-resource pairs whose pacf exceeds the significance band, per lag."""
    hist: dict[int, int] = {}
    for res in results:
        for lag in res.significant_lags():
            hist[lag] = hist.get(lag, 0) + 1
    return hist


@dataclass(frozen=True)
class FeatureConfig:
    """Feature layout: (avg|peak, resource, lag) -> flat index.

    Averages occupy the first half, peaks the second; within a half the
    order is resource-major, then lag 1..L (most recent interval first).
    """

    lags: int = 6

    @property
    def dim(self) -> int:
        return 2 * N_RESOURCES * self.lags

    def index(self, kind: str, resource: int, lag: int) -> int:
        if kind not in (KIND_AVG, KIND_PEAK):
            raise ValueError(f"kind must be '{KIND_AVG}' or '{KIND_PEAK}'")
        if not 0 <= resource < N_RESOURCES:
            raise ValueError(f"resource index {resource} out of range")
        if not 1 <= lag <= self.lags:
            raise ValueError(f"lag {lag} out of range 1..{self.lags}")
        half = 0 if kind == KIND_AVG else 1
        return half * N_RESOURCES * self.lags + resource * self.lags + (lag - 1)

    def describe(self, index: int) -> tuple[str, int, int]:
        """Inverse of :meth:`index`; returns (kind, resource, lag)."""
        if not 0 <= index < self.dim:
            raise ValueError(f"feature index {index} out of range")
        half, rest = divmod(index, N_RESOURCES * self.lags)
        resource, lag0 = divmod(rest, self.lags)
        return (KIND_AVG if half == 0 else KIND_PEAK, resource, lag0 + 1)

    def layout_json(self) -> str:
        entries = []
        for i in range(self.dim):
            kind, resource, lag = self.describe(i)
            entries.append(
                {
                    "index": i,
                    "kind": kind,
                    "resource": ResourceKind(resource).name,
                    "lag": lag,
                }
            )
        return json.dumps({"lags": self.lags, "features": entries}, indent=1)


@dataclass(frozen=True)
class Instance:
    """One labeled example: the class at interval tau plus the lag-window features."""

    y: FailureType
    x: np.ndarray
    machine_id: int
    interval: int


@dataclass(frozen=True)
class DatasetConfig:
    normal_sample_count: int = 50_000
    rng_seed: int = 0
    train_fraction: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


def buildable_mask(
    series: MachineSeries, track: LabelTrack, lags: int
) -> np.ndarray:
    """Boolean per interval: the L preceding intervals are all present and not downtime."""
    good = series.present & ~track.downtime
    csum = np.concatenate([[0], np.cumsum(good)])
    ok = np.zeros(series.n_intervals, dtype=bool)
    ok[lags:] = (csum[lags:-1] - csum[:-lags-1]) == lags
    return ok


def build_instance(
    series: MachineSeries,
    track: LabelTrack,
    tau: int,
    cfg: FeatureConfig,
) -> Optional[Instance]:
    """Pack the feature window ending at tau-1, or None if the window is unusable."""
    L = cfg.lags
    if tau < L or tau >= series.n_intervals:
        return None
    window = slice(tau - L, tau)
    if not series.present[window].all() or track.downtime[window].any():
        return None
    x = np.empty(cfg.dim)
    half = N_RESOURCES * L
    for lag in range(1, L + 1):
        t = tau - lag
        for r in range(N_RESOURCES):
            x[r * L + (lag - 1)] = series.avg[t, r]
            x[half + r * L + (lag - 1)] = series.peak[t, r]
    return Instance(
        y=FailureType(int(track.y[tau])), x=x, machine_id=series.machine_id, interval=tau
    )


def _windows_for(series: MachineSeries, taus: np.ndarray, lags: int) -> np.ndarray:
    """Vectorized feature packing for many target intervals of one machine."""
    idx = taus[:, None] - np.arange(1, lags + 1)[None, :]
    avg = series.avg[idx]    # (n, L, 6)
    peak = series.peak[idx]
    n = len(taus)
    half = np.transpose(avg, (0, 2, 1)).reshape(n, N_RESOURCES * lags)
    other = np.transpose(peak, (0, 2, 1)).reshape(n, N_RESOURCES * lags)
    return np.concatenate([half, other], axis=1)


def build_dataset(
    series: Mapping[int, MachineSeries],
    tracks: Mapping[int, LabelTrack],
    cfg: FeatureConfig,
    dcfg: DatasetConfig,
) -> tuple[list[Instance], list[Instance]]:
    """Assemble the labeled dataset and split it into train and test.

    Every buildable failure instance is kept; normal instances are a
    seeded uniform sample of the requested size. The split is stratified
    per class and fully determined by the seed. Candidate enumeration is
    ordered by (machine_id, interval) so parallel callers converge on the
    same dataset.
    """
    rng = np.random.default_rng(dcfg.rng_seed)
    machine_ids = sorted(m for m in series if m in tracks)

    instances: list[Instance] = []
    normal_machines: list[np.ndarray] = []   # per machine: candidate taus
    normal_counts: list[int] = []
    for m in machine_ids:
        s, track = series[m], tracks[m]
        ok = buildable_mask(s, track, cfg.lags)
        failure_taus = np.nonzero(ok & (track.y != 0))[0]
        if len(failure_taus):
            xs = _windows_for(s, failure_taus, cfg.lags)
            for tau, x in zip(failure_taus, xs):
                instances.append(
                    Instance(FailureType(int(track.y[tau])), x, m, int(tau))
                )
        normal_taus = np.nonzero(ok & (track.y == 0))[0]
        normal_machines.append(normal_taus)
        normal_counts.append(len(normal_taus))

    total_normals = int(np.sum(normal_counts))
    take = dcfg.normal_sample_count
    if total_normals < take:
        logger.warning(
            "only %d buildable normal instances available, requested %d; using all",
            total_normals,
            take,
        )
        take = total_normals
    chosen = rng.choice(total_normals, size=take, replace=False)
    chosen.sort()

    offsets = np.concatenate([[0], np.cumsum(normal_counts)])
    for mi, m in enumerate(machine_ids):
        lo, hi = offsets[mi], offsets[mi + 1]
        local = chosen[(chosen >= lo) & (chosen < hi)] - lo
        if len(local) == 0:
            continue
        taus = normal_machines[mi][local]
        s, track = series[m], tracks[m]
        xs = _windows_for(s, taus, cfg.lags)
        for tau, x in zip(taus, xs):
            instances.append(Instance(FailureType.NORMAL, x, m, int(tau)))

    if not any(inst.y != FailureType.NORMAL for inst in instances):
        logger.warning("dataset contains no failure instances")

    instances.sort(key=lambda i: (i.machine_id, i.interval))
    return _stratified_split(instances, dcfg.train_fraction, rng)


def _stratified_split(
    instances: list[Instance], train_fraction: float, rng: np.random.Generator
) -> tuple[list[Instance], list[Instance]]:
    train: list[Instance] = []
    test: list[Instance] = []
    for cls in FailureType:
        members = [i for i in instances if i.y == cls]
        if not members:
            continue
        order = rng.permutation(len(members))
        n_train = int(round(train_fraction * len(members)))
        for pos, idx in enumerate(order):
            (train if pos < n_train else test).append(members[idx])
    key = lambda i: (i.machine_id, i.interval)
    train.sort(key=key)
    test.sort(key=key)
    return train, test


def to_arrays(instances: Sequence[Instance]) -> tuple[np.ndarray, np.ndarray]:
    """Stack instances into an (n, dim) feature matrix and an (n,) label vector."""
    if not instances:
        raise ValueError("no instances")
    X = np.stack([inst.x for inst in instances])
    y = np.array([int(inst.y) for inst in instances], dtype=np.int64)
    return X, y


DATASET_HEADER_PREFIX = "y,f0"


def write_dataset_csv(instances: Sequence[Instance], out: TextIO, dim: int) -> None:
    out.write("y," + ",".join(f"f{i}" for i in range(dim)) + "\n")
    for inst in instances:
        out.write(str(int(inst.y)) + "," + ",".join(repr(float(v)) for v in inst.x) + "\n")


def read_dataset_csv(source: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    X_rows, y_rows = [], []
    for i, raw in enumerate(source):
        line = raw.strip()
        if not line:
            continue
        if i == 0:
            if not line.startswith(DATASET_HEADER_PREFIX):
                raise ValueError("unexpected dataset header")
            continue
        parts = line.split(",")
        y_rows.append(int(parts[0]))
        X_rows.append([float(p) for p in parts[1:]])
    return np.array(X_rows), np.array(y_rows, dtype=np.int64)


def write_ids_csv(instances: Sequence[Instance], out: TextIO) -> None:
    out.write("machine_id,interval\n")
    for inst in instances:
        out.write(f"{inst.machine_id},{inst.interval}\n")
