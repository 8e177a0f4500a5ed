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
from .trace_model import INTERVAL_US, N_RESOURCES, FleetArrays, IntervalSeries, LabelTracks


def _save(arrays: FleetArrays, out_dir: Path, meta: dict) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for field in dataclasses.fields(arrays):
        np.save(out_dir / f"{field.name}.npy", getattr(arrays, field.name))
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))


#: the dtype and shape of each field of a store, over M machines and T intervals
LAYOUTS = {
    "machine_ids": (np.int64, ("M",)),
    "avg": (np.float64, ("M", "T", N_RESOURCES)),
    "peak": (np.float64, ("M", "T", N_RESOURCES)),
    "present": (np.bool_, ("M", "T")),
    "y": (np.int8, ("M", "T")),
    "downtime": (np.bool_, ("M", "T")),
}


def _load(cls, store_dir: Path):
    """A store's arrays; FailcastError names a file that does not fit its LAYOUTS
    entry, where M and T are read from the first file that has them."""
    store_dir = Path(store_dir)
    arrays, sizes = [], {}  # M and T: each size, and the file it was read from
    for field in dataclasses.fields(cls):
        path = store_dir / f"{field.name}.npy"
        array = _read(path, lambda p: np.lib.format.open_memmap(p, mode="r"))
        dtype, dims = LAYOUTS[field.name]
        if array.ndim == len(dims):
            for dim, n in zip(dims, array.shape):
                if isinstance(dim, str):
                    sizes.setdefault(dim, (n, path.name))
        if array.dtype != dtype or array.shape != tuple(sizes.get(d, (d,))[0] for d in dims):
            read = "".join(f", {d} = {n} from {name}" for d, (n, name) in sizes.items())
            raise FailcastError(f"{path}: {array.dtype} {array.shape}, not"
                                f" {np.dtype(dtype)} ({', '.join(map(str, dims))}){read}")
        arrays.append(array)
    return cls(*arrays)


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


def load_interval_store(store_dir: Path) -> IntervalSeries:
    """The series of an interval store binned at INTERVAL_US; any other is refused."""
    series = _load(IntervalSeries, store_dir)
    path = Path(store_dir) / "meta.json"
    meta = _read(path, lambda p: json.loads(p.read_text()))
    interval = meta.get("interval_us") if isinstance(meta, dict) else None
    if interval != INTERVAL_US:
        raise FailcastError(f"{path}: interval_us is {interval}, not {INTERVAL_US}")
    return series


def save_label_store(
    tracks: LabelTracks, out_dir: Path, excluded: np.ndarray, extra_meta: dict
) -> None:
    """``excluded`` are the sorted ids of the machines the tracks leave out."""
    _save(tracks, out_dir, {"excluded_machines": excluded.tolist(), **extra_meta})


def load_label_store(store_dir: Path) -> LabelTracks:
    return _load(LabelTracks, store_dir)
