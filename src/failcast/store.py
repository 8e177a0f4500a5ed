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
    """A store's arrays and meta; FailcastError names a file that does not fit, where
    ``machine_ids.npy`` is (M,) and every other field (M, T, ...) with one T."""
    store_dir = Path(store_dir)
    names = [f.name for f in dataclasses.fields(cls)]
    arrays = [_read(store_dir / f"{name}.npy", lambda p: np.lib.format.open_memmap(p, mode="r"))
              for name in names]
    ids, first = (array.shape for array in arrays[:2])
    for name, array in zip(names[1:], arrays[1:]):
        shape = array.shape
        if shape[:1] != ids or len(shape) < 2 or shape[1] != first[1]:
            raise FailcastError(f"{store_dir / name}.npy: shape {shape}, where machine_ids.npy"
                                f" is {ids} and {names[1]}.npy {first}")
    meta = _read(store_dir / "meta.json", lambda path: json.loads(path.read_text()))
    return cls(*arrays), meta


def _read(path: Path, reader):
    """``reader(path)``; a file it cannot read raises FailcastError naming the file."""
    try:
        return reader(path)
    # ValueError: a cut or foreign .npy, bad JSON, or bytes that are not text
    except (ValueError, EOFError) as exc:
        raise FailcastError(f"{path}: unreadable store file: {exc}") from None


def save_interval_store(series: IntervalSeries, out_dir: Path, extra_meta: dict) -> None:
    meta = {
        "interval_us": INTERVAL_US,
        "horizon_us": series.present.shape[1] * INTERVAL_US,
        "n_machines": len(series),
        "n_intervals": series.present.shape[1],
    }
    _save(series, out_dir, {**meta, **extra_meta})


def load_interval_store(store_dir: Path) -> tuple[IntervalSeries, dict]:
    """The series and meta of an interval store binned at INTERVAL_US; any other is refused."""
    series, meta = _load(IntervalSeries, store_dir)
    interval = meta.get("interval_us") if isinstance(meta, dict) else None
    if interval != INTERVAL_US:
        raise FailcastError(
            f"{Path(store_dir) / 'meta.json'}: interval_us is {interval}, not {INTERVAL_US}"
        )
    return series, meta


def save_label_store(
    tracks: LabelTracks, out_dir: Path, excluded: np.ndarray, extra_meta: dict
) -> None:
    """``excluded`` are the sorted ids of the machines the tracks leave out."""
    _save(tracks, out_dir, {"excluded_machines": excluded.tolist(), **extra_meta})


def load_label_store(store_dir: Path) -> tuple[LabelTracks, dict]:
    return _load(LabelTracks, store_dir)
