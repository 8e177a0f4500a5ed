"""The three workloads: what each sets up, times per iteration and checks.

Every CLI stage runs as its own child process from the checkout's
``src``. ``setup`` runs before anything is timed, ``iteration`` is the
repeated timed unit, and ``finish`` runs once after the timed part for
the checks and figures that need not be timed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import Bench, StageRun, StreamServer, parse_reply, read_kv, sha256

#: a stream score may differ from the batch score for the same row by rounding only
SCORE_TOLERANCE = 1e-9
#: share of the dataset used for training; a large held-out split keeps f3 steady across seeds
TRAIN_FRACTION = "0.5"


@dataclass(frozen=True)
class Shape:
    machines: int
    days: float
    normal_samples: int
    traffic_samples: int = 0  # serve: normal rows sampled for the batch split
    stream_chunks: int = 1  # stream chunks per iteration
    chunk_lines: int = 1000  # p99 of 1,000 lines has exactly ten samples beyond it


@dataclass
class Iteration:
    total_s: float  # CPU seconds of the timed processes
    runs: list
    rss_mb: float = 0.0  # largest peak RSS among the timed processes
    hashes: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    chunks: list = field(default_factory=list)  # stream latencies in seconds, per chunk
    cpu_chunks: list = field(default_factory=list)  # server CPU seconds per line, per chunk


def cpu_total(runs) -> float:
    return sum(r.cpu_s for r in runs)


def split_lines(data: Path, split: str) -> list[str]:
    """Feature lines of a dataset split without the label, in file order."""
    rows = (data / f"{split}.csv").read_text().splitlines()[1:]
    return [row.split(",", 1)[1] for row in rows if row]


def batch_answers(predictions: Path) -> list[tuple[int, float]]:
    rows = (r.split(",") for r in predictions.read_text().splitlines()[1:] if r)
    return [(int(r[2]), float(r[3])) for r in rows]


def stream_chunk(bench: Bench, server: StreamServer, lines, answers, start: int,
                 count: int) -> tuple[list[float], list[float]]:
    """Closed loop over ``count`` lines from ``start``, cycling.

    Returns the latency and the server CPU time of each answered line, in
    seconds. A line fails when it gets no reply, a malformed one, or one
    that disagrees with the batch answer for the same row.
    """
    latencies, cpu = [], []
    for i in range(start, start + count):
        row = i % len(lines)
        bench.attempted += 1
        seconds, cpu_s, reply = server.ask(lines[row])
        got = parse_reply(reply)
        if got is None:
            bench.failed += 1
            bench.problem(f"stream line {i}: bad reply {reply!r}")
            if not reply:
                break
            continue
        latencies.append(seconds)
        cpu.append(cpu_s)
        want = answers[row]
        if got[0] != want[0] or abs(got[1] - want[1]) > SCORE_TOLERANCE:
            bench.failed += 1
            bench.problem(f"stream line {i}: {got} but batch gave {want}")
    return latencies, cpu


def model_hashes(model: Path) -> dict:
    return {n: sha256(model / n) for n in ("ocsvm.txt", "forest.txt", "cv_table.csv")}


class Workload:
    name = ""
    #: layer functions, or callee<caller edges, that the traced run must see called
    expect: tuple = ()
    #: set-ups per untimed run; setup_s is the fastest of them
    setups = 3

    def __init__(self, shape: Shape):
        self.shape = shape

    # ------------------------------------------------------------ stages

    def synth(self, bench: Bench, d: Path, traced: bool) -> None:
        s = self.shape
        bench.stage("synth", ["synth-trace", "--out", str(d / "trace"), "--machines",
                              str(s.machines), "--days", repr(s.days), "--seed", str(bench.seed)],
                    d, traced)

    def prepare(self, bench: Bench, trace: Path, d: Path, traced: bool) -> None:
        """ingest, label and pacf-report of ``trace`` into ``d``."""
        events = str(trace / "machine_events.csv")
        bench.stage("ingest", ["ingest", "--events", events, "--usage",
                               str(trace / "resource_usage.csv"), "--out", str(d / "store")],
                    d, traced)
        bench.stage("label", ["label", "--store", str(d / "store"), "--events", events,
                              "--out", str(d / "labels")], d, traced)
        bench.stage("pacf-report", ["pacf-report", "--store", str(d / "store"),
                                    "--out", str(d / "pacf_hist.csv")], d, traced)

    def featurize(self, bench: Bench, d: Path, out: str, samples: int, seed: int,
                  traced: bool, *extra: str) -> None:
        bench.stage("featurize", ["featurize", "--store", str(d / "store"), "--labels",
                                  str(d / "labels"), "--out", str(d / out), "--normal-samples",
                                  str(samples), "--seed", str(seed), *extra], d, traced)

    def train(self, bench: Bench, data: Path, model: Path, cwd: Path, traced: bool,
              *grid: str) -> None:
        bench.stage("train", ["train", "--data", str(data), "--out", str(model),
                              "--seed", str(bench.seed), *grid], cwd, traced)

    def predict(self, bench: Bench, model: Path, data: Path, d: Path, traced: bool) -> Path:
        preds = d / "predictions.csv"
        bench.stage("predict", ["predict", "--model", str(model), "--data", str(data),
                                "--out", str(preds)], d, traced)
        n_rows = len((data / "test.csv").read_text().splitlines()) - 1
        if len(preds.read_text().splitlines()) - 1 != n_rows:
            bench.problem(f"{preds}: prediction count differs from {n_rows} test rows")
        return preds

    def evaluate(self, bench: Bench, preds: Path, data: Path, d: Path, traced: bool):
        bench.stage("evaluate", ["evaluate", "--predictions", str(preds), "--data", str(data),
                                 "--out", str(d / "reports")], d, traced)
        kv = read_kv(d / "reports/report.kv")
        quality = {"f3": float(kv["binary.f3"]), "auc": float(kv["binary.auc"])}
        hashes = {"predictions.csv": sha256(preds), "report.kv": sha256(d / "reports/report.kv")}
        return hashes, quality

    def probe_stream(self, bench: Bench, model: Path, data: Path, preds: Path, d: Path,
                     traced: bool) -> Iteration:
        """Stream the held-out split through a freshly started server for ``model``."""
        start = len(bench.runs)
        lines, answers = split_lines(data, "test"), batch_answers(preds)
        server = StreamServer(bench, model, d, traced)
        n = self.shape.chunk_lines
        try:
            chunks = [stream_chunk(bench, server, lines, answers, k * n, n)
                      for k in range(self.shape.stream_chunks)]
        finally:
            server.close()
        return Iteration(0.0, bench.runs[start:], chunks=[c[0] for c in chunks],
                         cpu_chunks=[c[1] for c in chunks])

    # ------------------------------------------------------------ hooks

    def finish(self, bench: Bench, state, last: Path, traced: bool) -> Iteration:
        """Checks after the timed part; nothing by default."""
        return Iteration(0.0, [])

    def discard(self, state) -> None:
        """Release what a set-up holds when a later set-up replaces it."""

    close = discard


class Chain(Workload):
    name = "chain"
    expect = (
        "synth.generate", "ingestion.parse_machine_events", "ingestion.parse_usage_records",
        "ingestion.aggregate_intervals", "store.save_interval_store",
        "store.load_interval_store", "labeling.pair_failures", "labeling.build_label_tracks",
        "features.pacf_by_machine", "features.build_dataset", "features.write_dataset_csv",
        "features.read_dataset_csv", "features.to_arrays<pipeline.train",
        "features.to_arrays<pipeline.grid_search_cv", "ocsvm.train", "ocsvm.decision",
        "forest.train", "forest.grow_tree", "forest.best_split", "forest.predict_votes_batch",
        "pipeline.train", "pipeline.grid_search_cv", "pipeline.predict_batch",
        "pipeline.save_bundle", "pipeline.load_bundle", "pipeline.predict", "pipeline.score",
        "metrics.build_report", "metrics.roc_curve",
    )
    grid = ("--gamma", "0.125", "--nu", "0.05", "--trees", "100", "--folds", "5")
    setups = 8  # set-up is one short process

    def setup(self, bench: Bench, d: Path, traced: bool) -> Path:
        self.synth(bench, d, traced)
        return d / "trace"

    def iteration(self, bench: Bench, trace: Path, d: Path, traced: bool) -> Iteration:
        start = len(bench.runs)
        self.prepare(bench, trace, d, traced)
        self.featurize(bench, d, "data", self.shape.normal_samples, bench.seed, traced,
                       "--train-fraction", TRAIN_FRACTION)
        self.train(bench, d / "data", d / "model", d, traced, *self.grid)
        preds = self.predict(bench, d / "model", d / "data", d, traced)
        hashes, quality = self.evaluate(bench, preds, d / "data", d, traced)
        runs = bench.runs[start:]
        probe = self.probe_stream(bench, d / "model", d / "data", preds, d, traced)
        return Iteration(cpu_total(runs), runs + probe.runs, max(r.rss_mb for r in runs),
                         {**model_hashes(d / "model"), **hashes}, quality, probe.chunks,
                         probe.cpu_chunks)


class Grid(Workload):
    name = "grid"
    expect = (
        "ocsvm.train", "ocsvm.decision", "forest.train", "forest.grow_tree",
        "forest.best_split", "forest.predict_votes_batch", "pipeline.train",
        "pipeline.grid_search_cv", "pipeline.predict_batch", "pipeline.save_bundle",
        "features.to_arrays<pipeline.grid_search_cv", "features.read_dataset_csv",
    )
    grid = ("--gamma", "0.125", "--nus", "0.05,0.1", "--trees-grid", "25,50,100",
            "--folds", "3")

    def setup(self, bench: Bench, d: Path, traced: bool) -> Path:
        self.synth(bench, d, traced)
        self.prepare(bench, d / "trace", d, traced)
        self.featurize(bench, d, "data", self.shape.normal_samples, bench.seed, traced,
                       "--train-fraction", TRAIN_FRACTION)
        # the grid picks its tree count per seed, so single-row latency is taken on a
        # fixed one-cell model instead, whose size does not depend on that choice
        self.train(bench, d / "data", d / "reference", d, traced, *Serve.grid)
        preds = self.predict(bench, d / "reference", d / "data", d, traced)
        return d

    def iteration(self, bench: Bench, d0: Path, d: Path, traced: bool) -> Iteration:
        start = len(bench.runs)
        data = d0 / "data"
        self.train(bench, data, d / "model", d, traced, *self.grid)
        timed = bench.runs[-1]
        preds = self.predict(bench, d / "model", data, d, traced)
        hashes, quality = self.evaluate(bench, preds, data, d, traced)
        probe = self.probe_stream(bench, d0 / "reference", data, d0 / "predictions.csv", d,
                                  traced)
        return Iteration(timed.cpu_s, bench.runs[start:], timed.rss_mb,
                         {**model_hashes(d / "model"), **hashes}, quality, probe.chunks,
                         probe.cpu_chunks)


@dataclass
class ServeState:
    d: Path
    servers: dict  # traced flag -> StreamServer
    lines: list
    cursor: int = 0


class Serve(Workload):
    name = "serve"
    expect = (
        "ocsvm.decision", "forest.predict_votes", "forest.predict_votes_batch",
        "pipeline.predict", "pipeline.score", "pipeline.predict_batch", "pipeline.load_bundle",
        "features.read_dataset_csv",
    )
    grid = ("--gamma", "0.125", "--nu", "0.05", "--trees", "100", "--folds", "2")
    setups = 5  # the set-up stages are only sampled here

    def setup(self, bench: Bench, d: Path, traced: bool) -> ServeState:
        s = self.shape
        self.synth(bench, d, traced)
        self.prepare(bench, d / "trace", d, traced)
        self.featurize(bench, d, "data", s.normal_samples, bench.seed, traced,
                       "--train-fraction", TRAIN_FRACTION)
        self.featurize(bench, d, "traffic", s.traffic_samples, bench.seed + 1, traced,
                       "--train-fraction", "0.05")
        self.train(bench, d / "data", d / "model", d, traced, *self.grid)
        lines = split_lines(d / "traffic", "test")
        # the trace run also keeps an untraced server, for the untraced iterations
        servers = {t: StreamServer(bench, d / "model", d, t) for t in {traced, False}}
        for server in servers.values():
            if parse_reply(server.ask(lines[0])[2]) is None:
                bench.problem("stream server gave no valid first reply")
            # start-up until the first reply counts as set-up
            bench.runs.append(StageRun("predict-stream-start", time.perf_counter() - server.t0,
                                       0.0, 0, server.cpu_ns() * 1e-9))
        return ServeState(d, servers, lines)

    def iteration(self, bench: Bench, st: ServeState, d: Path, traced: bool) -> Iteration:
        start = len(bench.runs)
        preds = self.predict(bench, st.d / "model", st.d / "traffic", d, traced)
        batch = bench.runs[-1]
        answers = batch_answers(preds)
        n = self.shape.chunk_lines
        chunks = []
        for _ in range(self.shape.stream_chunks):
            chunks.append(stream_chunk(bench, st.servers[traced], st.lines, answers,
                                       st.cursor, n))
            st.cursor += n
        total = batch.cpu_s + sum(sum(cpu) for _, cpu in chunks)
        return Iteration(total, bench.runs[start:], batch.rss_mb,
                         {"traffic_predictions.csv": sha256(preds)},
                         chunks=[c[0] for c in chunks], cpu_chunks=[c[1] for c in chunks])

    def finish(self, bench: Bench, st: ServeState, last: Path, traced: bool) -> Iteration:
        start = len(bench.runs)
        d = last.parent / "held_out"
        d.mkdir()
        preds = self.predict(bench, st.d / "model", st.d / "data", d, traced)
        hashes, quality = self.evaluate(bench, preds, st.d / "data", d, traced)
        self.close(st)
        runs = bench.runs[start:]
        server_rss = max(r.rss_mb for r in runs if r.name == "predict-stream")
        return Iteration(0.0, runs, server_rss, {**model_hashes(st.d / "model"), **hashes},
                         quality)

    def discard(self, st: ServeState) -> None:
        for server in st.servers.values():
            if server.proc.returncode is None:
                server.close()

    close = discard


WORKLOADS = {w.name: w for w in (Chain, Grid, Serve)}
