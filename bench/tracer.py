"""In-memory spans around the public functions of the failcast modules.

A span is ``[id, parent, name, start, end, work]``. Times come from
``time.perf_counter``, which is the system-wide monotonic clock on Linux,
so spans written by different processes of one run line up. ``work`` is
a dict of counts taken from the call's arguments and result, or null.
Spans stay in memory and are written once, when the process ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

#: modules that are entry points or plain data rather than layers
SKIPPED_MODULES = ("cli", "errors", "trace_model")


class Tracer:
    """Collects spans for one process; span ids are unique across processes."""

    def __init__(self, run_id: str, root_parent: int = 0):
        self.run_id = run_id
        self.root_parent = root_parent
        self.spans: list[list] = []
        self._ids = itertools.count((os.getpid() << 24) + 1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, work, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root_parent
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.spans.append([sid, parent, name, t0, time.perf_counter(), None])
            raise
        finally:
            stack.pop()
        t1 = time.perf_counter()
        self.spans.append(
            [sid, parent, name, t0, t1, work(args, kwargs, result) if work else None]
        )
        return result

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, work, args, kwargs)

        return traced

    @contextmanager
    def span(self, name: str):
        """Span around a block; yields its id so other processes can parent to it."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root_parent
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            stack.pop()
            self.spans.append([sid, parent, name, t0, time.perf_counter(), None])

    def dump(self, path: str, wrapped=()) -> None:
        with open(path, "w") as f:
            json.dump(
                {"run_id": self.run_id, "wrapped": list(wrapped), "spans": self.spans}, f
            )


def layer_modules(package) -> list:
    """Every failcast module that holds layer functions, imported."""
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if info.name not in SKIPPED_MODULES
    ]


def instrument(tracer: Tracer, package) -> list[str]:
    """Replace each public function of each layer module with a traced wrapper.

    Modules that imported a function by name (``from .features import
    to_arrays``) hold their own reference to it, so every reference to an
    original function in any loaded module of the package is swapped, not
    only the attribute of the module that defines it. Returns the names of
    the wrapped functions as ``<module>.<function>``.
    """
    wrappers = {}
    for mod in layer_modules(package):
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            qual = f"{short}.{name}"
            wrappers[obj] = (qual, tracer.wrap(qual, obj, WORK.get(qual)))
    prefix = package.__name__ + "."
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package.__name__ or modname.startswith(prefix)):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj][1])
    return sorted(q for q, _ in wrappers.values())


# ------------------------------------------------------------ work counts


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _rows(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim == 1 else int(x.shape[0])


def _ocsvm_train(args, kwargs, model):
    normals = _arg(args, kwargs, 0, "normals")
    params = _arg(args, kwargs, 1, "params")
    return {
        "rows": len(normals),
        "support_vectors": int(model.support_vectors.shape[0]),
        "fit_key": f"{params.gamma!r}|{params.nu!r}|{params.tol!r}|{_digest(normals)}",
    }


def _forest_train(args, kwargs, model):
    X = _arg(args, kwargs, 0, "X")
    y = _arg(args, kwargs, 1, "y")
    p = _arg(args, kwargs, 2, "params")
    return {
        "rows": len(y),
        "trees": p.n_trees,
        "prefix_key": f"{p.rng_seed}|{p.mtry}|{p.min_leaf}|{p.max_depth}|{_digest(X, y)}",
    }


WORK = {
    "ingestion.parse_usage_records": lambda a, k, r: {"rows": len(r[0])},
    "features.pacf_by_machine": lambda a, k, r: {"pairs": len(r)},
    "features.build_dataset": lambda a, k, r: {"rows": len(r[0]) + len(r[1])},
    "features.write_dataset_csv": lambda a, k, r: {
        "rows": len(_arg(a, k, 0, "instances"))
    },
    "features.read_dataset_csv": lambda a, k, r: {"rows": len(r[1])},
    "ocsvm.train": _ocsvm_train,
    "ocsvm.decision": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "x"))},
    "forest.train": _forest_train,
    "forest.predict_votes_batch": lambda a, k, r: {"rows": len(r)},
    "pipeline.predict_batch": lambda a, k, r: {"rows": len(r[0])},
}
