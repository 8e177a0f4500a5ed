"""Seeded synthetic trace generator with the structure of real cluster traces.

Reproduces the structural facts the pipeline depends on: power-law-like
per-machine failure counts, a failure-duration mixture with bumps near
16 minutes and 2 hours plus a never-returning mass, AR(1) resource usage
whose partial autocorrelation dies out within a handful of lags, a few
degenerate all-zero machines that fail constantly, and a pre-failure
usage ramp over the 30 minutes before each removal.

``signature_strength`` scales the ramp amplitude: 0 means failures are
statistically invisible (the null control), 1 means full-strength ramps
before every failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .ingestion import MACHINE_EVENTS_HEADER, USAGE_HEADER, write_usage_rows
from .tables import write_rows
from .trace_model import (
    FAILURE_DTYPE,
    INTERVAL_US,
    LAGS,
    MICROS_PER_SECOND,
    N_RESOURCES,
    MachineEventKind,
    failure_types,
    interval_runs,
)

TRUTH_HEADER = "machine_id,interval,y"

EVENTS_FILE = "machine_events.csv"
USAGE_FILE = "resource_usage.csv"
TRUTH_FILE = "truth_labels.csv"

#: resources carrying the pre-failure ramp (cpu, disk i/o, memory)
RAMP_RESOURCES = (0, 1, 3)

FAILURE_EXPONENT = 1.8  # of the power-law per-machine failure count
DURATION_WEIGHTS = (5894.0, 2783.0, 94.0)  # immediate reboot, slow reboot, never back
IR_MODE_S, SR_MODE_S = 960.0, 7200.0  # duration modes of the two reboot bumps
RAMP_AMPLITUDE = 0.4  # ramp height at full signature strength
# per-resource AR(1) usage: coefficient, mean level, noise scale
AR_COEFFICIENTS = (0.7, 0.6, 0.8, 0.7, 0.65, 0.6)
BASELINES = (0.35, 0.25, 0.45, 0.40, 0.30, 0.20)
AR_NOISE = 0.06
PEAK_OFFSET = 0.06  # scale of the half-normal excess of a peak over its average
DEGENERATE_MACHINES = 2  # the all-zero machines, the last ids of the fleet
DEGENERATE_FAILURES = 120  # failures of each degenerate machine


@dataclass(frozen=True)
class SynthConfig:
    machines: int = 500
    horizon_days: float = 7.0
    failing_fraction: float = 0.4
    max_failures: int = 40
    signature_strength: float = 0.9
    rng_seed: int = 0

    def __post_init__(self):
        if self.machines < 1:
            raise ConfigError("need at least one machine")
        if not np.isfinite(self.horizon_days):
            raise ConfigError(f"horizon_days must be finite, got {self.horizon_days}")
        # in float first: a horizon whose seconds pass float64's range has no int
        too_far = np.iinfo(np.int64).max
        if abs(self.horizon_days) * 86_400 > too_far or abs(self.horizon_us) > too_far:
            raise ConfigError(f"horizon_days {self.horizon_days} overflows int64 microseconds")
        # the float64 usage array is (machines, intervals, resources)
        if self.machines * max(self.n_intervals, 1) * N_RESOURCES > np.iinfo(np.intp).max // 8:
            raise ConfigError(
                f"{self.machines} machines over {self.n_intervals} intervals do not fit in memory"
            )
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if not 0.0 <= self.signature_strength <= 1.0:
            raise ConfigError("signature_strength must be in [0, 1]")
        if not 0.0 <= self.failing_fraction <= 1.0:
            raise ConfigError(f"failing_fraction must be in [0, 1], got {self.failing_fraction}")
        if self.max_failures < 1:
            raise ConfigError(f"max_failures must be >= 1, got {self.max_failures}")

    @property
    def horizon_us(self) -> int:
        n = int(round(self.horizon_days * 86_400)) * MICROS_PER_SECOND // INTERVAL_US
        return n * INTERVAL_US

    @property
    def n_intervals(self) -> int:
        return self.horizon_us // INTERVAL_US


@dataclass
class SynthPaths:
    events: Path
    usage: Path
    truth: Path


def _power_law_counts(rng: np.random.Generator, n: int, cfg: SynthConfig) -> np.ndarray:
    ks = np.arange(1, cfg.max_failures + 1, dtype=float)
    pmf = ks ** (-FAILURE_EXPONENT)
    pmf /= pmf.sum()
    counts = np.zeros(n, dtype=np.int64)
    fails = rng.random(n) < cfg.failing_fraction
    counts[fails] = rng.choice(len(ks), size=int(fails.sum()), p=pmf) + 1
    return counts


def _draw_duration(rng: np.random.Generator, allow_fd: bool) -> int | None:
    """Duration in us from the three-bump mixture, or None for never-returns."""
    w = np.array(DURATION_WEIGHTS)
    if not allow_fd:
        w = w[:2]
    w = w / w.sum()
    comp = rng.choice(len(w), p=w)
    if comp == 2:
        return None
    if comp == 0:
        dur = rng.lognormal(np.log(IR_MODE_S), 0.25)
        dur = min(max(dur, 60.0), 29.0 * 60.0)  # stay strictly under 30 min
    else:
        dur = rng.lognormal(np.log(SR_MODE_S), 0.35)
        dur = min(max(dur, 31.0 * 60.0), 6.0 * 3600.0)  # stay at/above 30 min
    return int(dur * MICROS_PER_SECOND)


def _place_failures(
    rng: np.random.Generator, machine_id: int, k: int, cfg: SynthConfig
) -> list[tuple[int, int, int]]:
    """(machine, remove, add) per failure, keeping a clean feature window before every removal.

    ``add`` is -1 when the machine never returns before the horizon.
    """
    I = INTERVAL_US
    horizon = cfg.horizon_us
    failures = []
    cursor = (LAGS + 1) * I  # leave a full feature window before the first removal
    for i in range(k):
        remaining = horizon - cursor - I
        if remaining <= 0:
            break
        mean_gap = max(remaining / (k - i + 1) / 2.0, float(I))
        gap = min(rng.exponential(mean_gap), float(remaining - 1))
        remove = cursor + int(gap)
        duration = _draw_duration(rng, allow_fd=(i == k - 1))
        add = -1 if duration is None else remove + duration
        if add >= horizon:
            add = -1  # never seen returning inside the trace
        failures.append((machine_id, remove, add))
        if add < 0:
            break
        resume = -(-add // I) * I  # next full interval boundary
        cursor = resume + (LAGS + 1) * I
    return failures


def _down_mask(failures: np.ndarray, n_machines: int, n_intervals: int) -> np.ndarray:
    """(machines, intervals): True where the machine is not up for the interval's full span."""
    add = failures["add_us"]
    stop = np.where(add < 0, n_intervals, np.minimum((add - 1) // INTERVAL_US + 1, n_intervals))
    return interval_runs(
        (n_machines, n_intervals),
        failures["machine_id"],
        failures["remove_us"] // INTERVAL_US,
        stop,
    )


def generate(cfg: SynthConfig, out_dir: Path) -> SynthPaths:
    """Write machine_events.csv, resource_usage.csv, and truth_labels.csv.

    Byte-identical for identical config and seed. Raises ConfigError
    when the horizon cannot host the requested failure structure.
    """
    T = cfg.n_intervals
    I = INTERVAL_US
    if T < LAGS + 3:
        raise ConfigError(
            f"horizon of {T} intervals cannot host any failure with a feature window"
        )
    deg_cycle = 10 * 60 * MICROS_PER_SECOND  # 2 min down + 8 min up
    if (LAGS + 1) * I + DEGENERATE_FAILURES * deg_cycle >= cfg.horizon_us:
        raise ConfigError(
            f"horizon too short for {DEGENERATE_FAILURES} degenerate failures"
        )

    if DEGENERATE_MACHINES >= cfg.machines:
        raise ConfigError("degenerate machines must be fewer than total machines")

    rng = np.random.default_rng(cfg.rng_seed)
    # the last machine ids are the degenerate ones; the total stays `machines`
    n_regular = cfg.machines - DEGENERATE_MACHINES
    degenerate_ids = list(range(n_regular, cfg.machines))

    # failure schedule, machine by machine in id order
    counts = _power_law_counts(rng, n_regular, cfg)
    placed = []
    for m in range(n_regular):
        if counts[m]:
            placed.extend(_place_failures(rng, m, int(counts[m]), cfg))
    for m in degenerate_ids:
        for k in range(DEGENERATE_FAILURES):
            t = (LAGS + 1) * I + k * deg_cycle
            placed.append((m, t, t + 2 * 60 * MICROS_PER_SECOND))
    failures = np.array([(*f, 0) for f in placed], dtype=FAILURE_DTYPE)
    failures["type"] = failure_types(failures["remove_us"], failures["add_us"])

    # AR(1) usage for every regular machine across the full horizon
    phi = np.array(AR_COEFFICIENTS)
    base = np.array(BASELINES)
    sigma = AR_NOISE
    stat_sd = sigma / np.sqrt(1.0 - phi**2)
    avg = np.empty((n_regular, T, N_RESOURCES))
    state = base + stat_sd * rng.standard_normal((n_regular, N_RESOURCES))
    avg[:, 0] = state
    for t in range(1, T):
        state = base + phi * (state - base) + sigma * rng.standard_normal(
            (n_regular, N_RESOURCES)
        )
        avg[:, t] = state
    peak = avg + 0.02 + np.abs(rng.standard_normal(avg.shape)) * PEAK_OFFSET

    # pre-failure ramps on the feature window
    amp = cfg.signature_strength * RAMP_AMPLITUDE
    if amp > 0.0:
        regular = failures[failures["machine_id"] < n_regular]
        lags = np.arange(1, LAGS + 1)
        rows = regular["machine_id"][:, None]
        # placement keeps a clean window before every removal, so no cell gets two bumps
        t = regular["remove_us"][:, None] // I - lags
        bump = amp * (LAGS + 1 - lags) / LAGS
        for r in RAMP_RESOURCES:
            avg[rows, t, r] += bump
            peak[rows, t, r] += bump

    np.clip(avg, 0.0, 1.0, out=avg)
    np.clip(peak, 0.0, 1.0, out=peak)
    np.maximum(peak, avg, out=peak)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = SynthPaths(
        events=out_dir / EVENTS_FILE,
        usage=out_dir / USAGE_FILE,
        truth=out_dir / TRUTH_FILE,
    )

    _write_events(paths.events, failures, cfg.machines, rng)
    _write_usage(paths.usage, avg, peak, _down_mask(failures, cfg.machines, T), T)
    _write_truth(paths.truth, failures)
    return paths


def _write_events(
    path: Path, failures: np.ndarray, n_machines: int, rng: np.random.Generator
) -> None:
    back = failures["add_us"] >= 0
    updated = np.arange(0, n_machines, 10)
    # (time, machine, code): every machine joins at trace start, and UPDATE
    # events are sprinkled in, which parsers must carry and pairing must ignore
    groups = [
        (np.zeros(n_machines, np.int64), np.arange(n_machines), MachineEventKind.ADD),
        (failures["remove_us"], failures["machine_id"], MachineEventKind.REMOVE),
        (failures["add_us"][back], failures["machine_id"][back], MachineEventKind.ADD),
        (rng.integers(1, INTERVAL_US, size=len(updated)), updated, MachineEventKind.UPDATE),
    ]
    time_us, machine = (np.concatenate([g[i] for g in groups]) for i in (0, 1))
    code = np.concatenate([np.full(len(t), c) for t, _, c in groups])
    order = np.lexsort((code, machine, time_us))
    with open(path, "w", newline="\n") as f:
        f.write(MACHINE_EVENTS_HEADER + "\n")
        write_rows(f, "%d,%d,%d\n", time_us[order], machine[order], code[order])


def _write_usage(path: Path, avg: np.ndarray, peak: np.ndarray, down: np.ndarray, T: int) -> None:
    """One row per up interval, machine by machine; machines past the
    regular ones in ``avg`` are the degenerate ones and report all zeros."""
    starts = np.arange(T, dtype=np.int64) * INTERVAL_US
    zeros = np.zeros((T, 2 * N_RESOURCES))
    with open(path, "w", newline="\n") as f:
        f.write(USAGE_HEADER + "\n")
        # machine by machine, so the fleet's rows are never stacked into one table
        for m, up in enumerate(~down):
            usage = np.hstack([avg[m], peak[m]]) if m < len(avg) else zeros
            start = starts[up]
            write_usage_rows(f, start, start + INTERVAL_US, np.full(len(start), m), usage[up])


def _write_truth(path: Path, failures: np.ndarray) -> None:
    machine, interval = failures["machine_id"], failures["remove_us"] // INTERVAL_US
    order = np.lexsort((failures["type"], interval, machine))
    with open(path, "w", newline="\n") as f:
        f.write(TRUTH_HEADER + "\n")
        write_rows(f, "%d,%d,%d\n", machine[order], interval[order], failures["type"][order])
