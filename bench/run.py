"""failcast benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload chain|grid|serve --seed N --seconds S --trace 0|1

Run it from the root of a failcast checkout; the program under test is
the checkout's ``src/failcast``, run through its CLI. Scratch files go
to ``.bench_work/`` in the checkout. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from spans around every public failcast function.
A readable report goes to standard error and the full run record, with
the environment and artifact digests, to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import uuid
from pathlib import Path

import layers
import stats
from harness import (Bench, StageFailed, check_artifacts, cpu_probe_ms, environment,
                     fresh_dir)
from workloads import WORKLOADS, Iteration, Shape, cpu_total

SHAPES = {
    "chain": Shape(machines=80, days=1.0, normal_samples=1500, stream_chunks=3),
    "grid": Shape(machines=80, days=1.0, normal_samples=1000, stream_chunks=3),
    "serve": Shape(machines=80, days=1.0, normal_samples=1000, traffic_samples=12000,
                   stream_chunks=2),
}
MIN_ITERATIONS = 3
#: end-to-end metric -> the CLI stage whose CPU time it is
STAGE_METRICS = {
    "ingest_s": "ingest", "pacf_s": "pacf-report", "featurize_s": "featurize",
    "train_s": "train", "predict_s": "predict",
}
#: every end-to-end figure a run measures, with its unit
UNITS = {"setup_s": "s", "total_s": "s", **{m: "s" for m in STAGE_METRICS},
         "peak_rss_mb": "MB", "stream_cpu_p50_ms": "ms", "stream_cpu_p99_ms": "ms",
         "f3": "ratio", "auc": "ratio"}
#: the end-to-end figures BENCHMARK.json gates. The timed work is not among them: the
#: host runs slow for minutes at a time, so no time taken within one run holds to 25%
#: over ten runs. The times go out with the per-layer figures instead, ungated.
GATED = ("setup_s", "peak_rss_mb", "f3", "auc")
#: per-layer name of each end-to-end time
TIMES = {"total_s": "cli.total.cpu_s",
         **{m: f"cli.{stage}.cpu_s" for m, stage in STAGE_METRICS.items()},
         "stream_cpu_p50_ms": "cli.predict-stream.cpu_p50_ms",
         "stream_cpu_p99_ms": "cli.predict-stream.cpu_p99_ms"}
CLI_STAGES = ("synth", "ingest", "label", "pacf-report", "featurize", "train", "predict",
              "evaluate", "predict-stream")
PER_LAYER = (*layers.layer_metrics({}), *layers.RATIO_METRICS,
             *(f"cli.{stage}.rss_mb" for stage in CLI_STAGES), *TIMES.values(),
             "trace.overhead_s")


def stage_seconds(phases: list[Iteration], stage: str) -> list[float]:
    """Per phase, the summed CPU time of the runs of one stage; phases without it skipped."""
    out = []
    for phase in phases:
        times = [r.cpu_s for r in phase.runs if r.name == stage]
        if times:
            out.append(sum(times))
    return out


def stream_figures(phases: list[Iteration]) -> dict:
    """Percentiles of the stream lines: the lowest of the chunks', and a tail over all lines.

    ``cpu_`` figures are the server's CPU time per line, the others the
    client's round-trip latency.
    """
    figures = {}
    for prefix, field in (("", "chunks"), ("cpu_", "cpu_chunks")):
        chunks = [c for phase in phases for c in getattr(phase, field) if c]
        samples = [s for c in chunks for s in c]
        figures[prefix + "samples"] = len(samples)
        if chunks:
            for p in (5000, 9900):
                figures[f"{prefix}{stats.percentile_name(p)}_ms"] = min(
                    stats.percentile(c, p) for c in chunks) * 1e3
            tail = stats.tail_percentile(len(samples))
            if tail is not None:
                figures[f"{prefix}{stats.percentile_name(tail)}_all_ms"] = (
                    stats.percentile(samples, tail) * 1e3)
    return figures


def measure(workload, bench: Bench, seconds: float):
    """Repeat the timed iteration for ``seconds``, set up ``workload.setups`` times among them.

    The set-ups are spread evenly over the timed part, each replacing the
    state of the one before, so that a short spell in which the host runs
    slow cannot hold every one of them. Their own time does not count
    towards ``seconds``. With tracing on, set up once with every process traced,
    then alternate untraced and traced iterations: the first give the
    overhead baseline, the second the per-layer figures.
    """
    n_setups = 1 if bench.trace else workload.setups
    setups, windows = [], []
    iterations: list[tuple[bool, Iteration]] = []
    state = None
    timed = 0.0  # seconds spent in iterations

    def set_up():
        nonlocal state
        if state is not None:
            workload.discard(state)
        start = len(bench.runs)
        t0 = time.perf_counter()
        state = workload.setup(bench, fresh_dir(bench.work / f"setup{len(setups)}"),
                               bench.trace)
        t1 = time.perf_counter()
        setups.append(Iteration(cpu_total(bench.runs[start:]), bench.runs[start:]))
        windows.append(("setup", t0, t1))

    try:
        while True:
            # set-up k is due once k / n_setups of the time has gone into iterations
            while len(setups) < n_setups and timed >= len(setups) * seconds / n_setups:
                set_up()
            traced = bench.trace and len(iterations) % 2 == 1
            d = fresh_dir(bench.work / f"iter{len(iterations)}")
            t0 = time.perf_counter()
            iterations.append((traced, workload.iteration(bench, state, d, traced)))
            t1 = time.perf_counter()
            windows.append(("traced" if traced else "untraced", t0, t1))
            timed += t1 - t0
            done = len(iterations)
            if done >= (2 if bench.trace else MIN_ITERATIONS) and not (bench.trace and done % 2):
                step = timed / done * (2 if bench.trace else 1)
                if timed + step > seconds:
                    break
        # when iterations run long, the set-ups still owed come after the last one
        while len(setups) < n_setups:
            set_up()
        t0 = time.perf_counter()
        finish = workload.finish(bench, state, d, bench.trace)
        windows.append(("finish", t0, time.perf_counter()))
    finally:
        if state is not None:
            workload.close(state)
    return setups, iterations, finish, windows


def times(it: Iteration) -> dict:
    """An iteration's CPU total and each of its processes as [name, wall s, CPU s]."""
    return {"total_cpu_s": it.total_s, "runs": [[r.name, r.wall_s, r.cpu_s] for r in it.runs]}


def end_to_end(setups, iterations, finish) -> dict[str, float]:
    """The end-to-end figures; each time is the fastest of its repeats.

    The host's other guests only ever slow a repeat down, by up to half
    again, and for seconds at a time; the fastest repeat is the one they
    disturbed least, and it is the steadiest figure from run to run.
    """
    timed = [it for _, it in iterations]
    everything = setups + timed + [finish]
    out = {
        "setup_s": min(s.total_s for s in setups),
        "total_s": min(it.total_s for it in timed),
    }
    for metric, stage in STAGE_METRICS.items():
        for phases in (timed, setups, [finish]):
            values = stage_seconds(phases, stage)
            if values:
                out[metric] = min(values)
                break
    out["peak_rss_mb"] = max(p.rss_mb for p in timed + [finish])
    stream = stream_figures(everything)
    out["stream_cpu_p50_ms"] = stream.get("cpu_p50_ms")
    out["stream_cpu_p99_ms"] = stream.get("cpu_p99_ms")
    quality = [p.quality for p in everything if p.quality]
    out["f3"] = quality[-1]["f3"] if quality else None
    out["auc"] = quality[-1]["auc"] if quality else None
    return out, stream


def per_layer(bench: Bench, iterations, windows, expect, times) -> tuple[dict, list[str]]:
    """Per-layer figures: set-up and finish once, plus the median traced iteration.

    ``times`` are the end-to-end times, already taken from the untraced iterations.
    """
    spans, wrapped = layers.load_spans(bench.span_files)
    spans.extend(bench.tracer.spans)

    def within(kind_filter):
        picked = []
        for kind, t0, t1 in windows:
            if kind_filter(kind):
                picked.append([s for s in spans if t0 <= s[3] <= t1])
        return picked

    once_spans = [s for w in within(lambda k: k in ("setup", "finish")) for s in w]
    traced = within(lambda k: k == "traced")
    once = layers.aggregate(once_spans)
    per_iter = [layers.aggregate(w) for w in traced]
    keys = set(once) | {k for it in per_iter for k in it}
    totals = {k: once.get(k, 0.0) + statistics.median(it.get(k, 0.0) for it in per_iter)
              for k in keys}
    metrics = layers.layer_metrics(totals)
    # ratios of each traced iteration alone, so that repeating an iteration does not read
    # as wasted work; of the set-up and final checks where the iteration makes no such call
    fallback = layers.ratios(once_spans)
    per_ratio = [layers.ratios(w) for w in traced]
    for k in layers.RATIO_METRICS:
        values = [r[k] if r[k] is not None else fallback[k] for r in per_ratio]
        metrics[k] = statistics.median(v or 0.0 for v in values)
    for stage in CLI_STAGES:
        rss = [r.rss_mb for r in bench.runs if r.name == stage]
        metrics[f"cli.{stage}.rss_mb"] = max(rss, default=0.0)
    plain = [it.total_s for was_traced, it in iterations if not was_traced]
    with_spans = [it.total_s for was_traced, it in iterations if was_traced]
    metrics["trace.overhead_s"] = statistics.median(with_spans) - statistics.median(plain)
    metrics.update({name: times[k] for k, name in TIMES.items()})
    return {k: metrics[k] for k in PER_LAYER}, layers.missing_calls(spans, expect, wrapped)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run(Path.cwd(), args.workload, args.seed, args.seconds, bool(args.trace),
               SHAPES[args.workload])


def run(root: Path, name: str, seed: int, seconds: float, trace: bool, shape: Shape) -> int:
    if not (root / "src" / "failcast" / "cli.py").is_file():
        print(f"error: no failcast sources under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[name](shape)
    bench = Bench(root, fresh_dir(root / ".bench_work" / name), seed, trace, uuid.uuid4().hex)
    record = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
              "shape": vars(shape), "environment": environment(root, seed)}
    try:
        setups, iterations, finish, windows = measure(workload, bench, seconds)
    except StageFailed as exc:
        bench.problem(str(exc))
        return report(bench, record, None)
    hashes = [it.hashes for _, it in iterations]
    for k, h in enumerate(hashes[1:], start=1):
        changed = sorted(n for n in h if h[n] != hashes[0].get(n))
        if changed:
            bench.problem(f"iteration {k} changed the bytes of {', '.join(changed)}")
    digests = {**hashes[0], **finish.hashes}
    record["artifacts_sha256"] = digests
    registry = root / ".bench_work" / "artifacts.json"
    env = record["environment"]
    key = f"{name}/seed={seed}/source={env['source_sha256']}/bench={env['bench_sha256']}"
    for changed in check_artifacts(registry, key, digests):
        bench.problem(f"{changed} differs from an earlier run of the same seed and source")
    # in a traced run the times come from the untraced iterations alone
    e2e, stream = end_to_end(setups, [(t, it) for t, it in iterations if not t], finish)
    record["end_to_end"] = e2e
    record["stream"] = stream
    record["iterations"] = len(iterations)
    record["setup_times"] = [times(it) for it in setups]
    record["iteration_times"] = [dict(times(it), traced=traced) for traced, it in iterations]
    for quality in (p.quality for _, p in iterations if p.quality):
        if quality != iterations[0][1].quality:
            bench.problem("f3/auc changed between iterations of the same seed")
    if trace:
        metrics, missing = per_layer(bench, iterations, windows, workload.expect, e2e)
        for entry in missing:
            bench.problem(f"traced run recorded no call of {entry}")
        record["per_layer"] = metrics
        bench.tracer.dump(str(bench.work / "spans-bench.json"))
        return report(bench, record, metrics)
    return report(bench, record, {k: e2e[k] for k in GATED})


def report(bench: Bench, record: dict, metrics) -> int:
    record["environment"]["cpu_probe_ms"].append(cpu_probe_ms())
    for key, value in (metrics or {}).items():
        if value is None:
            bench.problem(f"metric {key} was not measured")
    correct = not bench.problems and bench.failed == 0 and metrics is not None
    record.update(correct=correct, attempted=bench.attempted, failed=bench.failed,
                  error_ratio=bench.failed / max(bench.attempted, 1), problems=bench.problems)
    out_dir = bench.root / ".bench_work" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print_report(record, metrics)
    result = {
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k) or unit_of(k)}
                    for k, v in (metrics or {}).items() if v is not None},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    quantity = name.rsplit(".", 1)[1]
    if quantity.endswith("_ms"):
        return "ms"
    return {"self_s": "s", "cpu_s": "s", "overhead_s": "s", "rss_mb": "MB"}.get(
        quantity, "ratio" if quantity.endswith("ratio") else "count")


def print_report(record: dict, metrics) -> None:
    err = sys.stderr
    env = record["environment"]
    print(f"failcast benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} iterations={record.get('iterations')}", file=err)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()), file=err)
    ungated = {k: v for k, v in record.get("end_to_end", {}).items() if k not in GATED}
    for key, value in {**(metrics or {}), **ungated}.items():
        unit = UNITS.get(key) or unit_of(key)
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {key:52s} {shown:>12s} {unit}", file=err)
    stream = record.get("stream", {})
    if stream:
        print("  stream " + " ".join(f"{k}={v:.6g}" for k, v in stream.items()), file=err)
    print(f"  error_ratio {record['error_ratio']:.6g} ({record['failed']} of "
          f"{record['attempted']} operations failed)", file=err)
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}", file=err)
    for name, digest in sorted(record.get("artifacts_sha256", {}).items()):
        print(f"  sha256 {name} {digest}", file=err)


if __name__ == "__main__":
    sys.exit(main())
