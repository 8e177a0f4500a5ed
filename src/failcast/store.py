"""On-disk artifact stores passed between CLI stages.

Plain .npy files plus a JSON sidecar: deterministic bytes (no archive
timestamps), loadable with bare numpy. Each array of an interval series
or a label track set is one ``<field>.npy`` file, loaded read-only and
memory-mapped.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .errors import FailcastError
from .trace_model import INTERVAL_US, FleetArrays, IntervalSeries, LabelTracks


def _save(arrays: FleetArrays, out_dir: Path, meta: dict) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for field in dataclasses.fields(arrays):
        np.save(out_dir / f"{field.name}.npy", getattr(arrays, field.name))
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))


def _load(cls, store_dir: Path):
    store_dir = Path(store_dir)
    arrays = cls(*(_read(store_dir / f"{f.name}.npy", lambda p: np.load(p, mmap_mode="r"))
                   for f in dataclasses.fields(cls)))
    return arrays, _read(store_dir / "meta.json", lambda path: json.loads(path.read_text()))


def _read(path: Path, reader):
    """``reader(path)``; a file it cannot read raises FailcastError naming the file."""
    try:
        return reader(path)
    # ValueError: a cut or foreign .npy, bad JSON, or bytes that are not text
    except (ValueError, EOFError) as exc:
        raise FailcastError(f"{path}: unreadable store file: {exc}") from None


def save_interval_store(
    series: IntervalSeries,
    out_dir: Path,
    horizon_us: int,
    extra_meta: dict | None = None,
) -> None:
    meta = {
        "interval_us": INTERVAL_US,
        "horizon_us": horizon_us,
        "n_machines": len(series),
        "n_intervals": series.present.shape[1],
    }
    _save(series, out_dir, {**meta, **(extra_meta or {})})


def load_interval_store(store_dir: Path) -> tuple[IntervalSeries, dict]:
    return _load(IntervalSeries, store_dir)


def save_label_store(
    tracks: LabelTracks,
    out_dir: Path,
    excluded: set[int],
    extra_meta: dict | None = None,
) -> None:
    meta = {"excluded_machines": sorted(int(m) for m in excluded)}
    _save(tracks, out_dir, {**meta, **(extra_meta or {})})


def load_label_store(store_dir: Path) -> tuple[LabelTracks, dict]:
    return _load(LabelTracks, store_dir)
