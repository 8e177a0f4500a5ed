"""Running failcast CLI stages as child processes and recording what they cost."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
#: one BLAS thread per process: the serve workload runs two processes on two cores
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: longest wait for a stream server to go back to reading before its CPU time is read
SETTLE_S = 0.01


class StageFailed(Exception):
    pass


@dataclass
class StageRun:
    name: str
    wall_s: float
    rss_mb: float
    returncode: int
    cpu_s: float = 0.0  # user + system time of the process and the children it waited for


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


@dataclass
class Bench:
    """State shared by the stages of one benchmark run."""

    root: Path
    work: Path
    seed: int
    trace: bool
    run_id: str
    env: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    runs: list = field(default_factory=list)
    span_files: list = field(default_factory=list)
    tracer: Tracer = None  # type: ignore[assignment]

    def __post_init__(self):
        src = str(self.root / "src")
        tmp = self.work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            TMPDIR=str(tmp),
            BENCH_RUN_ID=self.run_id,
            **PINNED_THREADS,
        )
        self.tracer = Tracer(self.run_id)

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def command(self, args, traced: bool, tag: str) -> tuple[list[str], dict]:
        """argv and environment for one failcast CLI call, traced or not.

        ``synth-trace`` as the command runs bench/synth_trace.py instead.
        """
        if not traced:
            if args[0] == "synth-trace":
                return [sys.executable, str(BENCH_DIR / "synth_trace.py"), *args[1:]], self.env
            return [sys.executable, "-m", "failcast.cli", *args], self.env
        spans = self.work / f"spans-{len(self.span_files):04d}-{tag}.json"
        self.span_files.append(spans)
        argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), *args]
        return argv, self.env

    def stage(self, name: str, args, cwd: Path, traced: bool = False) -> StageRun:
        """Run one CLI stage to completion; its CPU time and peak RSS come from its own rusage."""
        argv, env = self.command(args, traced, name)
        self.attempted += 1
        with self.tracer.span("stage." + name) as sid:
            env = dict(env, BENCH_PARENT_SPAN=str(sid))
            with open(cwd / f"{name}.out", "w") as out, open(cwd / f"{name}.err", "w") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = StageRun(name, wall, usage.ru_maxrss / 1024.0, proc.returncode, cpu_seconds(usage))
        self.runs.append(run)
        if run.returncode != 0:
            self.failed += 1
            tail = (cwd / f"{name}.err").read_text().strip().splitlines()[-3:]
            raise StageFailed(f"{name} exited {run.returncode}: {' | '.join(tail)}")
        return run


class StreamServer:
    """One long-lived ``failcast predict --stream`` process and its client side."""

    def __init__(self, bench: Bench, model: Path, cwd: Path, traced: bool):
        self.bench = bench
        argv, env = bench.command(["predict", "--model", str(model), "--stream"], traced,
                                  "stream")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, bufsize=1,
        )

    def cpu_ns(self) -> int:
        """CPU time the server has run so far, in nanoseconds, once it waits for input.

        The kernel's per-task run time (``/proc/<pid>/schedstat``) leaves out
        time the host gave to other guests, and is brought up to date when the
        task stops running; so it is read once the server has gone back to
        waiting for its next line, within a bounded wait.
        """
        stat, schedstat = f"/proc/{self.proc.pid}/stat", f"/proc/{self.proc.pid}/schedstat"
        deadline = time.perf_counter() + SETTLE_S
        while time.perf_counter() < deadline:
            with open(stat) as f:
                if f.read().rsplit(")", 1)[1].split()[0] != "R":
                    break
        with open(schedstat) as f:
            return int(f.read().split()[0])

    def ask(self, line: str) -> tuple[float, float, str]:
        """Send one feature line; (seconds until its reply arrived, server CPU seconds, reply)."""
        before = self.cpu_ns()
        t0 = time.perf_counter()
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        wall = time.perf_counter() - t0
        return wall, (self.cpu_ns() - before) * 1e-9, reply

    def close(self) -> StageRun:
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        run = StageRun("predict-stream", time.perf_counter() - self.t0,
                       usage.ru_maxrss / 1024.0, self.proc.returncode, cpu_seconds(usage))
        self.bench.runs.append(run)
        self.bench.attempted += 1
        if run.returncode != 0:
            self.bench.failed += 1
            self.bench.problem(f"stream server exited {run.returncode}")
        return run


def parse_reply(reply: str):
    """(class, score) from a ``y,score`` stream line, or None when malformed."""
    parts = reply.strip().split(",")
    if len(parts) != 2:
        return None
    try:
        y, score = int(parts[0]), float(parts[1])
    except ValueError:
        return None
    if y not in (0, 1, 2, 3) or not 0.0 <= score <= 1.0:
        return None
    return y, score


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_kv(path: Path) -> dict[str, str]:
    pairs = (ln.split("=", 1) for ln in Path(path).read_text().splitlines() if "=" in ln)
    return {k: v for k, v in pairs}


def cpu_probe_ms(repeats: int = 15) -> float:
    """Median time of a fixed pure-Python loop: how fast this machine ran just now.

    Recorded at the start and end of every run, so that a slow run can be
    told apart from a slow program.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def environment(root: Path, seed: int) -> dict:
    """Versions, BLAS and thread settings, cores, revision and seed of a run."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    def tree_digest(top: Path) -> str:
        h = hashlib.sha256()
        for path in sorted(top.rglob("*.py")):
            h.update(path.relative_to(top).as_posix().encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": PINNED_THREADS["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "git_revision": rev,
        "source_sha256": tree_digest(root / "src"),
        "bench_sha256": tree_digest(BENCH_DIR),
        "seed": seed,
        "cpu_probe_ms": [cpu_probe_ms()],
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_artifacts(registry: Path, key: str, hashes: dict[str, str]) -> list[str]:
    """Compare artifact digests with earlier runs of the same workload and seed.

    The registry lives in the checkout's work directory, so it spans the
    runs made in one checkout. Returns the names whose bytes changed.
    """
    seen = json.loads(registry.read_text()) if registry.exists() else {}
    before = seen.get(key, {})
    changed = [n for n, h in hashes.items() if n in before and before[n] != h]
    seen[key] = {**before, **hashes}
    registry.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return changed
