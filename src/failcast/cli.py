"""Command-line surface: synth -> ingest -> label -> featurize -> train -> predict -> evaluate.

Every stage reads the previous stage's artifacts from disk and is
idempotent for a fixed seed: rerunning with identical inputs rewrites
byte-identical outputs. All randomness flows from --seed. Each command
imports the stage modules it runs when it starts, so one stage's process
never loads the others' modules.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, TextIO

import numpy as np

from .errors import ConfigError, FailcastError, ParseError
from .trace_model import INTERVAL_US, N_CLASSES

if TYPE_CHECKING:
    from .features import Dataset
    from .tables import Rule

logger = logging.getLogger(__name__)

PREDICTIONS_HEADER = "machine_id,interval,predicted_y,score"


def _read_config_file(path: Optional[str]) -> dict[str, str]:
    """The ``key=value`` lines of ``path``; each key must name a flag of some stage."""
    if not path:
        return {}
    cfg = {}
    # a key may name any stage's flag, so that one file can serve a whole chain
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    settings = {a.dest for stage in sub.choices.values() for a in stage._actions}
    for line_no, raw in enumerate(_read(Path(path), lambda f: f.read()).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FailcastError(f"{path}: line {line_no}: config line without '=': {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in settings:
            raise FailcastError(f"{path}: line {line_no}: unknown setting {key!r}")
        cfg[key] = value
    return cfg


def _within_int64(what: str, value):
    """``value``; ConfigError naming ``what`` if it is an integer outside int64."""
    if isinstance(value, int) and not -(2**63) <= value < 2**63:
        raise ConfigError(f"{what}: {value} is outside the int64 range")
    return value


class _Resolver:
    """CLI flag > config-file entry > built-in default."""

    def __init__(self, ns: argparse.Namespace, cfg: dict[str, str]):
        self.ns = ns
        self.cfg = cfg

    def origin(self, name: str) -> str:
        """Where ``name`` is set: its flag, else the config file and key."""
        if getattr(self.ns, name, None) is not None:
            return "--" + name.replace("_", "-")
        return f"{self.ns.config}: config key {name!r}"

    def get(self, name: str, default, cast=None):
        value = getattr(self.ns, name, None)
        if value is not None:
            return _within_int64(self.origin(name), value)
        if name in self.cfg:
            raw = self.cfg[name]
            if cast is None:
                cast = str if default is None else type(default)
            try:
                value = cast(raw)
            except ValueError:
                raise FailcastError(
                    f"{self.origin(name)}: {raw!r} is not a valid {cast.__name__}"
                ) from None
            return _within_int64(self.origin(name), value)
        return default


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read(path: Path, reader):
    """``reader`` over the open UTF-8 text file ``path``; its errors name the file."""
    with open(path, encoding="utf-8") as f:
        return _parse(f, reader)


def _parse(source: TextIO, reader):
    """``reader(source)``; its parse and decoding errors name the file ``source``."""
    try:
        return reader(source)
    except ParseError as exc:
        raise FailcastError(f"{source.name}: {exc}") from None
    except UnicodeDecodeError:
        raise FailcastError(f"{source.name}: not UTF-8 text") from None


# ---------------------------------------------------------------- synth


def _cmd_synth(ns: argparse.Namespace, cfg: dict[str, str]) -> int:
    from . import synth

    r = _Resolver(ns, cfg)
    config = synth.SynthConfig(
        machines=r.get("machines", 500),
        horizon_days=r.get("days", 7.0),
        signature_strength=r.get("signature", 0.9),
        degenerate_machines=r.get("degenerate", 2),
        rng_seed=r.get("seed", 0),
    )
    paths = synth.generate(config, Path(ns.out))
    print(f"wrote {paths.events}")
    print(f"wrote {paths.usage}")
    print(f"wrote {paths.truth}")
    return 0


# ---------------------------------------------------------------- ingest


def _cmd_ingest(ns: argparse.Namespace, cfg: dict[str, str]) -> int:
    from . import ingestion, store

    r = _Resolver(ns, cfg)
    events = _read(Path(ns.events), ingestion.parse_machine_events)
    table, clamps = _read(Path(ns.usage), ingestion.parse_usage_records)
    interval_us = r.get("interval_us", INTERVAL_US)
    if interval_us < 1:
        raise ConfigError(f"interval_us must be >= 1, got {interval_us}")
    horizon = r.get("horizon_us", 0, int)
    if not horizon:
        max_end = int(table["end_us"].max(initial=0))
        max_event = int(events["time_us"].max(initial=-1)) + 1
        horizon = -(-max(max_end, max_event) // interval_us) * interval_us
    series = ingestion.aggregate_intervals(table, horizon, interval_us)
    store.save_interval_store(
        series,
        Path(ns.out),
        interval_us,
        horizon,
        extra_meta={
            "events": len(events),
            "usage_records": len(table),
            "values_clamped": clamps.values_clamped,
            "rows_with_clamps": clamps.rows_affected,
        },
    )
    print(
        f"ingested {len(table)} usage records for {len(series)} machines "
        f"({clamps.values_clamped} values clamped); store at {ns.out}"
    )
    return 0


# ---------------------------------------------------------------- label


def _cmd_label(ns: argparse.Namespace, cfg: dict[str, str]) -> int:
    from . import ingestion, labeling, store

    r = _Resolver(ns, cfg)
    series, meta = store.load_interval_store(Path(ns.store))
    events = _read(Path(ns.events), ingestion.parse_machine_events)
    lcfg = labeling.LabelingConfig(
        ir_max_downtime_us=r.get("ir_max_minutes", 30) * 60 * 1_000_000,
        degenerate_min_failures=r.get("degenerate_min_failures", 100),
    )
    failures, dropped = labeling.pair_failures(events, lcfg)
    excluded = labeling.detect_degenerate_machines(series, failures, lcfg)
    failures = failures[~np.isin(failures["machine_id"], sorted(excluded))]
    tracks = labeling.build_label_tracks(failures, series, lcfg, meta["interval_us"])
    tracks = tracks.select(~np.isin(tracks.machine_ids, sorted(excluded)))
    ir, sr, fd = np.bincount(failures["type"], minlength=N_CLASSES).tolist()[1:]
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    store.save_label_store(
        tracks,
        out_dir,
        excluded,
        extra_meta={
            "failures": len(failures),
            "dropped_removes": dropped,
            "class_counts": {"ir": ir, "sr": sr, "fd": fd},
        },
    )
    with open(out_dir / "failures.csv", "w", newline="\n") as f:
        labeling.write_failures_csv(failures, f)
    print(
        f"labeled {len(failures)} failures over {len(tracks)} machines; "
        f"excluded {len(excluded)} degenerate machine(s)"
    )
    return 0


# ---------------------------------------------------------------- pacf-report


def _cmd_pacf_report(ns: argparse.Namespace, cfg: dict[str, str]) -> int:
    from . import features, store, tables

    r = _Resolver(ns, cfg)
    series, _ = store.load_interval_store(Path(ns.store))
    max_lag = r.get("max_lag", 10)
    table = features.pacf_by_machine(series, max_lag=max_lag)
    counts = features.significant_lag_counts(table)
    out = Path(ns.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="\n") as f:
        f.write("lag,significant_pairs\n")
        tables.write_rows(f, "%d,%d\n", np.arange(1, len(counts) + 1), counts)
    total = int(counts.sum())
    in_window = int(counts[:6].sum())
    share = in_window / total if total else float("nan")
    print(
        f"pacf over {len(table)} machine-resource pairs; "
        f"{total} significant lags, {share:.1%} within lags 1..6; wrote {out}"
    )
    return 0


# ---------------------------------------------------------------- featurize


def _cmd_featurize(ns: argparse.Namespace, cfg: dict[str, str]) -> int:
    from . import features, store

    r = _Resolver(ns, cfg)
    series, _meta = store.load_interval_store(Path(ns.store))
    tracks, label_meta = store.load_label_store(Path(ns.labels))
    fcfg = features.FeatureConfig(lags=r.get("lags", 6))
    dcfg = features.DatasetConfig(
        normal_sample_count=r.get("normal_samples", 50_000),
        rng_seed=r.get("seed", 0),
        train_fraction=r.get("train_fraction", 0.8),
    )
    train_set, test_set = features.build_dataset(series, tracks, fcfg, dcfg)
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in (("train", train_set), ("test", test_set)):
        with open(out_dir / f"{name}.csv", "w", newline="\n") as f:
            features.write_dataset_csv(data, f)
        with open(out_dir / f"{name}_ids.csv", "w", newline="\n") as f:
            features.write_ids_csv(data, f)
    (out_dir / "layout.json").write_text(fcfg.layout_json())
    print(
        f"dataset: {len(train_set)} train / {len(test_set)} test instances "
        f"({fcfg.dim} features); wrote {out_dir}"
    )
    return 0


# ---------------------------------------------------------------- train


def _load_split(data_dir: Path, name: str) -> Dataset:
    """One dataset split: ``<name>.csv`` and its ``<name>_ids.csv`` sidecar."""
    from . import features

    path, ids_path = data_dir / f"{name}.csv", data_dir / f"{name}_ids.csv"
    X, y = _read(path, features.read_dataset_csv)
    machine_id, interval = _read(ids_path, features.read_ids_csv)
    if len(machine_id) != len(y):
        raise FailcastError(f"{ids_path} has {len(machine_id)} rows but {path} has {len(y)}")
    return features.Dataset(machine_id, interval, y, X)


def _grid_axis(r: _Resolver, name: str, scalar: str, default, cast) -> tuple:
    """The comma list ``name``, else the one value ``scalar``, cast to ``cast``."""
    raw = r.get(name, "", str) or str(r.get(scalar, default))
    try:
        values = tuple(cast(v) for v in raw.split(",") if v)
    except ValueError:
        raise FailcastError(
            f"{name}: {raw!r} is not a comma list of {cast.__name__} values"
        ) from None
    return tuple(_within_int64(r.origin(name), v) for v in values)


def _cmd_train(ns: argparse.Namespace, cfg: dict[str, str]) -> int:
    from dataclasses import replace

    from . import pipeline, tables
    from .forest import ForestParams
    from .ocsvm import OcsvmParams

    r = _Resolver(ns, cfg)
    data = _load_split(Path(ns.data), "train")
    seed = r.get("seed", 0)

    gammas = _grid_axis(r, "gammas", "gamma", 1.0 / data.x.shape[1], float)
    nus = _grid_axis(r, "nus", "nu", 0.05, float)
    trees = _grid_axis(r, "trees_grid", "trees", 100, int)
    grid = pipeline.GridSpec(
        gammas=gammas, nus=nus, tree_counts=trees, folds=r.get("folds", 5)
    )
    base_ocsvm = OcsvmParams(tol=r.get("tol", 1e-4))
    base_forest = ForestParams(rng_seed=seed)

    (best_gamma, best_nu, best_trees), f3 = pipeline.grid_search_cv(
        data.x, data.y, grid, seed, base_ocsvm, base_forest
    )
    model = pipeline.train(
        data.x,
        data.y,
        replace(base_ocsvm, nu=best_nu, gamma=best_gamma),
        replace(base_forest, n_trees=best_trees),
    )
    out_dir = Path(ns.out)
    pipeline.save_bundle(model, out_dir)
    with open(out_dir / "cv_table.csv", "w", newline="\n") as f:
        f.write("gamma,nu,trees,mean_f3," + ",".join(
            f"fold{i}_f3" for i in range(grid.folds)) + "\n")
        fold_f3 = f3.reshape(-1, grid.folds)
        tables.write_rows(
            f, "%r,%r,%d," + ",".join(["%.6f"] * (grid.folds + 1)) + "\n",
            np.array(grid.cells(), dtype=object), fold_f3.mean(axis=1), fold_f3,
        )
    with open(out_dir / "split_counts.csv", "w", newline="\n") as f:
        f.write("index,kind,resource,lag,count\n")
        index = np.arange(model.forest.dim)
        layout = map(np.array, zip(*map(model.feature_config.describe, index)))
        counts = model.forest.feature_split_counts
        tables.write_rows(f, "%d,%s,%d,%d,%d\n", index, *layout, counts)
    if ns.archive:
        pipeline.save_archive(model, Path(ns.archive))
    print(
        f"best cell: gamma={best_gamma:g} nu={best_nu:g} trees={best_trees}; "
        f"bundle at {out_dir}"
    )
    return 0


# ---------------------------------------------------------------- predict


def _cmd_predict(ns: argparse.Namespace, cfg: dict[str, str]) -> int:
    from . import pipeline, tables

    model = pipeline.load_bundle(Path(ns.model))
    if ns.stream:
        for line_no, line in enumerate(sys.stdin, 1):
            line = line.strip()
            if not line:
                continue
            try:
                # read as a dataset row's features are read
                x = np.loadtxt([line], delimiter=",", comments=None, ndmin=2)
                preds, scores = pipeline.predict_batch(model, x)
            except (ValueError, FailcastError) as exc:
                raise ParseError(line_no, str(exc).partition(" at row")[0]) from None
            sys.stdout.write(f"{int(preds[0])},{float(scores[0])!r}\n")
            sys.stdout.flush()
        return 0
    if not ns.data or not ns.out:
        raise FailcastError("predict needs --data and --out unless --stream is set")
    data = _load_split(Path(ns.data), ns.split)
    preds, scores = pipeline.predict_batch(model, data.x)
    out = Path(ns.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="\n") as f:
        f.write(PREDICTIONS_HEADER + "\n")
        tables.write_rows(f, "%d,%d,%d,%r\n", data.machine_ids, data.interval, preds, scores)
    print(f"wrote {len(preds)} predictions to {out}")
    return 0


# ---------------------------------------------------------------- evaluate


_PREDICTIONS_DTYPE = np.dtype(
    [(name, np.int64) for name in PREDICTIONS_HEADER.split(",")[:3]] + [("score", np.float64)]
)


def _instances(machine_id: np.ndarray, interval: np.ndarray) -> np.ndarray:
    """The (machine_id, interval) instance keys; arrays of them sort by machine, then interval."""
    from .features import IDS_DTYPE

    instances = np.empty(len(machine_id), IDS_DTYPE)
    instances["machine_id"], instances["interval"] = machine_id, interval
    return instances


def _sorted_instances(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of the predictions ``rows`` by instance, and their instances in it."""
    order = np.lexsort((rows["interval"], rows["machine_id"]))
    return order, _instances(rows["machine_id"][order], rows["interval"][order])


def _read_predictions(source: TextIO) -> np.ndarray:
    """The rows of a predictions file as a structured array, one per instance."""
    from . import tables

    return tables.read_table(source, PREDICTIONS_HEADER, _PREDICTIONS_DTYPE, _prediction_rules)


def _prediction_rules(rows: np.ndarray) -> list[Rule]:
    y, score = rows["predicted_y"], rows["score"]
    machine_id, interval = rows["machine_id"], rows["interval"]
    order, instances = _sorted_instances(rows)
    # the sort is stable, so every row of an instance after its first is a repeat
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[order[1:]] = instances[1:] == instances[:-1]
    return [
        ((y < 0) | (y >= N_CLASSES), lambda i: f"unknown class {y[i]}"),
        (~np.isfinite(score), lambda i: f"non-finite score {score[i]}"),
        (repeat, lambda i: f"duplicate prediction for instance ({machine_id[i]}, {interval[i]})"),
    ]


def _cmd_evaluate(ns: argparse.Namespace, cfg: dict[str, str]) -> int:
    from . import metrics

    r = _Resolver(ns, cfg)
    predictions = Path(ns.predictions)
    rows = _read(predictions, _read_predictions)
    data = _load_split(Path(ns.data), ns.split)
    order, have = _sorted_instances(rows)
    want = _instances(data.machine_ids, data.interval)
    at = np.searchsorted(have, want)
    found = at < len(have)
    found[found] = have[at[found]] == want[found]
    if not found.all():
        missing = want[np.argmin(found)]
        raise FailcastError(
            f"{predictions}: missing prediction for instance"
            f" ({missing['machine_id']}, {missing['interval']})"
        )
    preds, scores = rows["predicted_y"][order[at]], rows["score"][order[at]]

    latency = None
    reps = r.get("latency", 0)
    if reps < 0:
        raise ConfigError(f"latency must be >= 0, got {reps}")
    if reps:
        if not ns.model:
            raise FailcastError("--latency needs --model to time predictions")
        from . import pipeline

        model = pipeline.load_bundle(Path(ns.model))
        latency = metrics.measure_latency(
            lambda x: pipeline.predict_batch(model, x[None, :]), data.x, reps
        )
    report = metrics.build_report(preds, data.y, scores)
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(metrics.render_text(report))
    (out_dir / "report.kv").write_text(metrics.render_kv(report))
    try:
        points = metrics.roc_curve(scores, data.y)
        with open(out_dir / "roc.csv", "w", newline="\n") as f:
            metrics.write_roc_csv(points, f)
    except metrics.UndefinedAucError:
        logger.warning("single-class input; skipping ROC export")
    print(metrics.render_text(report))
    if latency is not None:
        print(
            f"latency: mean={latency.mean_ms:.3f} ms p99={latency.p99_ms:.3f} ms"
            f" over {latency.n_calls} calls"
        )
    return 0


# ---------------------------------------------------------------- adapt-google


def _cmd_adapt_google(ns: argparse.Namespace, cfg: dict[str, str]) -> int:
    from . import adapter

    out_dir = Path(ns.out)
    stats = adapter.AdaptStats()
    # both inputs are open before --out is made; each table streams into a
    # temporary file, and both appear only once both convert
    with (open(Path(ns.machine_events), encoding="utf-8") as events,
          open(Path(ns.task_usage), encoding="utf-8") as usage):
        tables = [(events, "machine_events.csv", adapter.convert_machine_events),
                  (usage, "resource_usage.csv", adapter.convert_task_usage)]
        partial = [(out_dir / f".{name}.partial", out_dir / name) for _, name, _ in tables]
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            for (source, _, convert), (tmp, _) in zip(tables, partial):
                with open(tmp, "w", newline="\n") as out:
                    _parse(source, lambda f: convert(f, out, stats))
            for tmp, final in partial:
                tmp.replace(final)
        finally:
            for tmp, _ in partial:
                tmp.unlink(missing_ok=True)
    print(
        f"converted {stats.events_converted} events "
        f"({stats.events_skipped} skipped), "
        f"{stats.usage_rows_read} task rows into {stats.usage_bins_written} "
        f"machine bins ({stats.values_clamped} clamped); output at {ns.out}"
    )
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, help="master rng seed")
    common.add_argument("--config", help="key=value fallback file")

    p = argparse.ArgumentParser(
        prog="failcast",
        description="Machine-failure forecasting pipeline over cluster traces.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", parents=[common], help="generate a synthetic trace")
    s.add_argument("--out", required=True)
    s.add_argument("--machines", type=int)
    s.add_argument("--days", type=float)
    s.add_argument("--signature", type=float)
    s.add_argument("--degenerate", type=int)
    s.set_defaults(func=_cmd_synth, out_is_dir=True)

    s = sub.add_parser("ingest", parents=[common], help="parse and bin a trace")
    s.add_argument("--events", required=True)
    s.add_argument("--usage", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--interval-us", type=int)
    s.add_argument("--horizon-us", type=int)
    s.set_defaults(func=_cmd_ingest, out_is_dir=True)

    s = sub.add_parser("label", parents=[common], help="pair and categorize failures")
    s.add_argument("--store", required=True)
    s.add_argument("--events", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--ir-max-minutes", type=int)
    s.add_argument("--degenerate-min-failures", type=int)
    s.set_defaults(func=_cmd_label, out_is_dir=True)

    s = sub.add_parser("pacf-report", parents=[common], help="significant-lag histogram")
    s.add_argument("--store", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--max-lag", type=int)
    s.set_defaults(func=_cmd_pacf_report, out_is_dir=False)

    s = sub.add_parser("featurize", parents=[common], help="build the labeled dataset")
    s.add_argument("--store", required=True)
    s.add_argument("--labels", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--lags", type=int)
    s.add_argument("--normal-samples", type=int)
    s.add_argument("--train-fraction", type=float)
    s.set_defaults(func=_cmd_featurize, out_is_dir=True)

    s = sub.add_parser("train", parents=[common], help="grid-search CV, then train")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--gamma", type=float)
    s.add_argument("--nu", type=float)
    s.add_argument("--trees", type=int)
    s.add_argument("--gammas", help="comma list enabling a grid axis")
    s.add_argument("--nus")
    s.add_argument("--trees-grid")
    s.add_argument("--folds", type=int)
    s.add_argument("--tol", type=float)
    s.add_argument("--archive", help="also write a single-file bundle")
    s.set_defaults(func=_cmd_train, out_is_dir=True)

    s = sub.add_parser("predict", parents=[common], help="classify instances")
    s.add_argument("--model", required=True)
    s.add_argument("--data")
    s.add_argument("--split", default="test", choices=("train", "test"))
    s.add_argument("--out")
    s.add_argument(
        "--stream", action="store_true", help="read f0..f71 lines from stdin, write y,score lines"
    )
    s.set_defaults(func=_cmd_predict, out_is_dir=False)

    s = sub.add_parser("evaluate", parents=[common], help="metrics report + ROC csv")
    s.add_argument("--predictions", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--split", default="test", choices=("train", "test"))
    s.add_argument("--out", required=True)
    s.add_argument("--model")
    s.add_argument(
        "--latency",
        type=int,
        help="also time this many predict calls and print the figures (needs --model)",
    )
    s.set_defaults(func=_cmd_evaluate, out_is_dir=True)

    s = sub.add_parser("adapt-google", parents=[common], help="convert clusterdata-2011 tables")
    s.add_argument("--machine-events", required=True)
    s.add_argument("--task-usage", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_adapt_google, out_is_dir=True)

    return p


def _check_out(ns: argparse.Namespace) -> None:
    """Stop before the work at an ``--out`` the stage would fail on once done: a file
    where it makes a directory, or a directory where it writes a file."""
    if not ns.out or getattr(ns, "stream", False):
        return
    out = Path(ns.out)
    if out.exists() and out.is_dir() != ns.out_is_dir:
        code = errno.EEXIST if ns.out_is_dir else errno.EISDIR
        raise OSError(code, os.strerror(code), str(out))


def main(argv: Optional[list[str]] = None) -> int:
    """Run one stage; a FailcastError, OSError or MemoryError ends it in ``error: ...``, exit 2."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _read_config_file(ns.config)
        _check_out(ns)
        return ns.func(ns, cfg)
    except FailcastError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc) if exc.filename is None else f"{exc.filename}: {exc.strerror}")
    except MemoryError as exc:
        return _fail(str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
