"""Command-line surface: synth -> ingest -> label -> featurize -> train -> predict -> evaluate.

Every stage reads the previous stage's artifacts from disk and is
idempotent for a fixed seed: rerunning with identical inputs rewrites
byte-identical outputs. All randomness flows from the --seed of synth,
featurize and train, the stages that draw. Each command imports the
stage modules it runs when it starts, so one stage's process never loads
the others' modules.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import logging
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, TextIO

import numpy as np

from .errors import ConfigError, FailcastError, ParseError
from .trace_model import INTERVAL_US, LAGS, N_CLASSES, N_FEATURES

if TYPE_CHECKING:
    from .features import Dataset
    from .tables import Rule

logger = logging.getLogger(__name__)

PREDICTIONS_HEADER = "machine_id,interval,predicted_y,score"


def _read_config_file(path: Optional[str]) -> dict[str, str]:
    """The ``key=value`` lines of ``path``; each key must name a setting of some stage."""
    if not path:
        return {}
    cfg = {}
    # a key may name any stage's setting, so that one file can serve a chain
    settings = {flag.dest for stage in STAGES.values() for flag in stage.flags if flag.field}
    for line_no, raw in enumerate(_read(Path(path), lambda f: f.read()).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FailcastError(f"{path}: line {line_no}: config line without '=': {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in settings:
            raise FailcastError(f"{path}: line {line_no}: unknown setting {key!r}")
        if key in cfg:
            raise FailcastError(f"{path}: line {line_no}: setting {key!r} given again")
        cfg[key] = value
    return cfg


@dataclasses.dataclass(frozen=True)
class Flag:
    """``--<dest>`` of a stage: an input, an output or a setting; ``cast`` reads its value.

    An output names what the stage makes there, a ``"file"`` or a ``"dir"``.
    A setting gives the config field ``field`` of its stage its value, or the
    tuple of a comma list if ``many``. A setting that no flag or config key
    gives is left out, so its default is the field's own.
    """

    dest: str
    options: dict  # further keywords of ``add_argument``
    cast: Optional[type] = None
    output: Optional[str] = None
    field: Optional[str] = None
    many: bool = False

    @property
    def option(self) -> str:
        return "--" + self.dest.replace("_", "-")

    def value(self, ns: argparse.Namespace, cfg: dict[str, str]):
        """This setting from its flag, else from the config file; None if neither gives it.

        A scalar is read as a comma list of one item. Each item must be non-empty and
        cast, and an integer must lie within int64; a ConfigError names the origin.
        """
        raw, origin = getattr(ns, self.dest), self.option
        if raw is None and self.dest in cfg:
            raw, origin = cfg[self.dest], f"{ns.config}: config key {self.dest!r}"
        if raw is None:
            return None
        items = raw.split(",") if self.many else [raw]
        if not all(items):
            raise ConfigError(f"{origin}: {raw!r} has an empty item")
        values = []
        for item in items:
            try:
                value = self.cast(item)
            except ValueError:
                kind = self.cast.__name__
                raise ConfigError(f"{origin}: {item!r} is not a valid {kind}") from None
            if isinstance(value, int) and not -(2**63) <= value < 2**63:
                raise ConfigError(f"{origin}: {value} is outside the int64 range")
            values.append(value)
        return tuple(values) if self.many else values[0]


def _flag(dest: str, output=None, required: bool = True, **options) -> Flag:
    """An input, or an ``output``; either is required unless ``required`` is False."""
    return Flag(dest, {"required": required, **options}, output=output)


def _setting(dest: str, cast: type, field=None, many=False, **options) -> Flag:
    """The setting ``--<dest>`` of the config field ``field``, by default ``dest``."""
    return Flag(dest, options, cast, field=field or dest, many=many)


@dataclasses.dataclass(frozen=True)
class Stage:
    """One CLI stage: its flags after ``--config``, and the work they feed.

    ``work(ns, given)`` gets the parsed flags and the config field of each
    setting that a flag or the config file gave, with its value.
    """

    help: str
    work: Callable[[argparse.Namespace, dict], int]
    own: tuple[Flag, ...]

    @property
    def flags(self) -> tuple[Flag, ...]:
        return (Flag("config", {"help": "key=value fallback file"}), *self.own)

    def given(self, ns: argparse.Namespace, cfg: dict[str, str]) -> dict:
        values = {flag.field: flag.value(ns, cfg) for flag in self.flags if flag.field}
        return {field: value for field, value in values.items() if value is not None}

    def check_outputs(self, ns: argparse.Namespace) -> None:
        """Stop before the work at an output the stage would fail on once done: a file
        where it makes a directory, or a directory where it writes a file."""
        for flag in self.flags:
            if not (flag.output and getattr(ns, flag.dest)):
                continue
            path = Path(getattr(ns, flag.dest))
            if path.exists() and path.is_dir() != (flag.output == "dir"):
                code = errno.EEXIST if flag.output == "dir" else errno.EISDIR
                raise OSError(code, os.strerror(code), str(path))


def _fields(cls, given: dict) -> dict:
    """The entries of ``given`` that name a field of the dataclass ``cls``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {key: value for key, value in given.items() if key in names}


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


def _cmd_synth(ns: argparse.Namespace, given: dict) -> int:
    from . import synth

    paths = synth.generate(synth.SynthConfig(**given), Path(ns.out))
    print(f"wrote {paths.events}")
    print(f"wrote {paths.usage}")
    print(f"wrote {paths.truth}")
    return 0


# ---------------------------------------------------------------- ingest


def _cmd_ingest(ns: argparse.Namespace, given: dict) -> int:
    from . import ingestion, store

    events = _read(Path(ns.events), ingestion.parse_machine_events)
    table, clamps = _read(Path(ns.usage), ingestion.parse_usage_records)
    max_end = int(table["end_us"].max(initial=0))
    max_event = int(events["time_us"].max(initial=-1)) + 1
    horizon = -(-max(max_end, max_event) // INTERVAL_US) * INTERVAL_US
    series = ingestion.aggregate_intervals(table, horizon)
    store.save_interval_store(series, Path(ns.out), extra_meta={
        "events": len(events),
        "usage_records": len(table),
        "values_clamped": clamps.values_clamped,
        "rows_with_clamps": clamps.rows_affected,
    })
    print(
        f"ingested {len(table)} usage records for {len(series)} machines "
        f"({clamps.values_clamped} values clamped); store at {ns.out}"
    )
    return 0


# ---------------------------------------------------------------- label


def _cmd_label(ns: argparse.Namespace, given: dict) -> int:
    from . import ingestion, labeling, store

    series = store.load_interval_store(Path(ns.store))
    events = _read(Path(ns.events), ingestion.parse_machine_events)
    failures, dropped = labeling.pair_failures(events)
    excluded = labeling.detect_degenerate_machines(series, failures)
    failures = failures[~np.isin(failures["machine_id"], excluded)]
    tracks = labeling.build_label_tracks(failures, series)
    tracks = tracks.select(~np.isin(tracks.machine_ids, excluded))
    ir, sr, fd = np.bincount(failures["type"], minlength=N_CLASSES).tolist()[1:]
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    store.save_label_store(tracks, out_dir, excluded, extra_meta={
        "failures": len(failures),
        "dropped_removes": dropped,
        "class_counts": {"ir": ir, "sr": sr, "fd": fd},
    })
    with open(out_dir / "failures.csv", "w", newline="\n") as f:
        labeling.write_failures_csv(failures, f)
    print(
        f"labeled {len(failures)} failures over {len(tracks)} machines; "
        f"excluded {len(excluded)} degenerate machine(s)"
    )
    return 0


# ---------------------------------------------------------------- pacf-report


def _cmd_pacf_report(ns: argparse.Namespace, given: dict) -> int:
    from . import features, store, tables

    series = store.load_interval_store(Path(ns.store))
    table = features.pacf_by_machine(series)
    counts = features.significant_lag_counts(table)
    out = Path(ns.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="\n") as f:
        f.write("lag,significant_pairs\n")
        tables.write_rows(f, "%d,%d\n", np.arange(1, len(counts) + 1), counts)
    total = int(counts.sum())
    share = f", {counts[:LAGS].sum() / total:.1%} within lags 1..{LAGS}" if total else ""
    print(
        f"pacf over {len(table)} machine-resource pairs; "
        f"{total} significant lags{share}; wrote {out}"
    )
    return 0


# ---------------------------------------------------------------- featurize


def _cmd_featurize(ns: argparse.Namespace, given: dict) -> int:
    from . import features, store

    series = store.load_interval_store(Path(ns.store))
    tracks = store.load_label_store(Path(ns.labels))
    dcfg = features.DatasetConfig(**given)
    train_set, test_set = features.build_dataset(series, tracks, dcfg)
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in (("train", train_set), ("test", test_set)):
        with open(out_dir / f"{name}.csv", "w", newline="\n") as f:
            features.write_dataset_csv(data, f)
        with open(out_dir / f"{name}_ids.csv", "w", newline="\n") as f:
            features.write_ids_csv(data, f)
    (out_dir / "layout.json").write_text(features.layout_json())
    print(
        f"dataset: {len(train_set)} train / {len(test_set)} test instances "
        f"({N_FEATURES} features); wrote {out_dir}"
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


def _cmd_train(ns: argparse.Namespace, given: dict) -> int:
    from . import features, pipeline, tables
    from .forest import ForestParams
    from .ocsvm import OcsvmParams

    # a grid axis is its comma list, or else the one value of its scalar setting
    option = {flag.field: flag.option for flag in STAGES["train"].own if flag.field}
    for one, many in (("gamma", "gammas"), ("nu", "nus"), ("n_trees", "tree_counts")):
        if one in given and many in given:
            raise ConfigError(
                f"{option[one]} and {option[many]} both set one grid axis, by flag or config key;"
                " give one of them"
            )
    data = _load_split(Path(ns.data), "train")
    base_ocsvm = OcsvmParams(**_fields(OcsvmParams, given))
    base_forest = ForestParams(**_fields(ForestParams, given))
    grid = pipeline.GridSpec(**{
        "gammas": (base_ocsvm.gamma,), "nus": (base_ocsvm.nu,),
        "tree_counts": (base_forest.n_trees,), **_fields(pipeline.GridSpec, given),
    })

    (best_gamma, best_nu, best_trees), f3 = pipeline.grid_search_cv(
        data.x, data.y, grid, base_ocsvm, base_forest
    )
    model = pipeline.train(
        data.x,
        data.y,
        dataclasses.replace(base_ocsvm, nu=best_nu, gamma=best_gamma),
        dataclasses.replace(base_forest, n_trees=best_trees),
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
        layout = map(np.array, zip(*map(features.describe, index)))
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


def _cmd_predict(ns: argparse.Namespace, given: dict) -> int:
    from . import pipeline, tables

    if ns.stream and (ns.data or ns.out):
        raise FailcastError("predict --stream reads stdin and writes stdout: no --data or --out")
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
    data = _load_split(Path(ns.data), "test")
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


def _read_predictions(source: TextIO) -> np.ndarray:
    """The rows of a predictions file as a structured array, one per instance."""
    from . import tables

    return tables.read_table(source, PREDICTIONS_HEADER, _PREDICTIONS_DTYPE, _prediction_rules)


def _prediction_rules(rows: np.ndarray) -> list[Rule]:
    from .features import repeats

    y, score = rows["predicted_y"], rows["score"]
    machine_id, interval = rows["machine_id"], rows["interval"]
    repeat = repeats(machine_id, interval)
    return [
        ((y < 0) | (y >= N_CLASSES), lambda i: f"unknown class {y[i]}"),
        (~np.isfinite(score), lambda i: f"non-finite score {score[i]}"),
        (repeat, lambda i: f"duplicate prediction for instance ({machine_id[i]}, {interval[i]})"),
    ]


def _cmd_evaluate(ns: argparse.Namespace, given: dict) -> int:
    from . import metrics

    reps = given.get("latency", 0)
    # the timings are one float64 array, of at most intp-max bytes
    max_reps = np.iinfo(np.intp).max // 8
    if not 0 <= reps <= max_reps:
        raise ConfigError(f"--latency must be in [0, {max_reps}], got {reps}")
    if reps and not ns.model:
        raise FailcastError("--latency needs --model to time predictions")
    predictions = Path(ns.predictions)
    rows = _read(predictions, _read_predictions)
    data = _load_split(Path(ns.data), "test")
    order = np.lexsort((rows["interval"], rows["machine_id"]))
    have = _instances(rows["machine_id"][order], rows["interval"][order])
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
    taken = order[at]  # the row of each instance of the split
    outside = np.ones(len(rows), dtype=bool)
    outside[taken] = False
    if outside.any():
        extra = rows[np.argmax(outside)]
        raise FailcastError(
            f"{predictions}: prediction for instance"
            f" ({extra['machine_id']}, {extra['interval']}) not in the test split"
        )
    preds, scores = rows["predicted_y"][taken], rows["score"][taken]

    latency = None
    if reps:
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


def _cmd_adapt_google(ns: argparse.Namespace, given: dict) -> int:
    from . import adapter

    out_dir = Path(ns.out)
    stats = adapter.AdaptStats()
    # each table streams into a temporary file in --out, or beside it if it does
    # not exist yet; --out is made and both tables appear only once both convert
    beside = next(path for path in (out_dir, *out_dir.parents) if path.is_dir())
    with (open(Path(ns.machine_events), encoding="utf-8") as events,
          open(Path(ns.task_usage), encoding="utf-8") as usage):
        tables = [(events, "machine_events.csv", adapter.convert_machine_events),
                  (usage, "resource_usage.csv", adapter.convert_task_usage)]
        partial = [(beside / f".{out_dir.name}.{name}.partial", out_dir / name)
                   for _, name, _ in tables]
        try:
            for (source, _, convert), (tmp, _) in zip(tables, partial):
                with open(tmp, "w", newline="\n") as out:
                    _parse(source, lambda f: convert(f, out, stats))
            out_dir.mkdir(parents=True, exist_ok=True)
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


#: every stage, in chain order; no declaration imports a stage module
STAGES = {
    "synth": Stage("generate a synthetic trace", _cmd_synth, (
        _setting("seed", int, "rng_seed", help="master rng seed"),
        _flag("out", output="dir"), _setting("machines", int),
        _setting("days", float, "horizon_days"),
        _setting("signature", float, "signature_strength"),
    )),
    "ingest": Stage("parse and bin a trace", _cmd_ingest, (
        _flag("events"), _flag("usage"), _flag("out", output="dir"),
    )),
    "label": Stage("pair and categorize failures", _cmd_label, (
        _flag("store"), _flag("events"), _flag("out", output="dir"),
    )),
    "pacf-report": Stage("significant-lag histogram", _cmd_pacf_report, (
        _flag("store"), _flag("out", output="file"),
    )),
    "featurize": Stage("build the labeled dataset", _cmd_featurize, (
        _setting("seed", int, "rng_seed", help="master rng seed"),
        _flag("store"), _flag("labels"), _flag("out", output="dir"),
        _setting("normal_samples", int, "normal_sample_count"),
        _setting("train_fraction", float),
    )),
    "train": Stage("grid-search CV, then train", _cmd_train, (
        _setting("seed", int, "rng_seed", help="master rng seed"),
        _flag("data"), _flag("out", output="dir"),
        _setting("gamma", float), _setting("nu", float), _setting("trees", int, "n_trees"),
        _setting("gammas", float, many=True, help="comma list enabling a grid axis"),
        _setting("nus", float, many=True),
        _setting("trees_grid", int, "tree_counts", many=True),
        _setting("folds", int),
        _flag("archive", output="file", required=False, help="also write a single-file bundle"),
    )),
    "predict": Stage("classify instances", _cmd_predict, (
        _flag("model"), _flag("data", required=False),
        _flag("out", output="file", required=False),
        _flag("stream", required=False, action="store_true",
              help=f"read f0..f{N_FEATURES - 1} lines from stdin, write y,score lines"),
    )),
    "evaluate": Stage("metrics report + ROC csv", _cmd_evaluate, (
        _flag("predictions"), _flag("data"),
        _flag("out", output="dir"), _flag("model", required=False),
        _setting("latency", int,
                 help="also time this many predict calls and print the figures (needs --model)"),
    )),
    "adapt-google": Stage("convert clusterdata-2011 tables", _cmd_adapt_google, (
        _flag("machine_events"), _flag("task_usage"), _flag("out", output="dir"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="failcast",
        description="Machine-failure forecasting pipeline over cluster traces.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, stage in STAGES.items():
        s = sub.add_parser(name, help=stage.help)
        for flag in stage.flags:
            # a setting stays text, to be read by Flag.value
            s.add_argument(flag.option, **flag.options)
        s.set_defaults(func=stage.work)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    """Run one stage; a FailcastError, OSError or MemoryError ends it in ``error: ...``, exit 2."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    stage = STAGES[ns.command]
    try:
        given = stage.given(ns, _read_config_file(ns.config))
        stage.check_outputs(ns)
        return ns.func(ns, given)
    except FailcastError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc) if exc.filename is None else f"{exc.filename}: {exc.strerror}")
    except MemoryError as exc:
        return _fail(str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
