"""The timed loop and the end-to-end figures it yields."""

import time
from types import SimpleNamespace

import run
from harness import StageRun
from workloads import Iteration


class Recorder:
    """A workload that does nothing but note the order of its calls."""

    setups = 4

    def __init__(self, pause=0.0):
        self.log = []
        self.pause = pause  # seconds each iteration takes

    def setup(self, bench, d, traced):
        self.log.append("setup")
        return len(self.log)

    def iteration(self, bench, state, d, traced):
        self.log.append("iteration")
        time.sleep(self.pause)
        return Iteration(0.0, [])

    def finish(self, bench, state, d, traced):
        return Iteration(0.0, [])

    def discard(self, state):
        pass

    close = discard


def test_set_ups_are_spread_among_the_iterations(tmp_path):
    workload = Recorder(pause=0.002)
    bench = SimpleNamespace(trace=False, runs=[], work=tmp_path)
    setups, iterations, _, _ = run.measure(workload, bench, seconds=0.1)
    log = workload.log
    assert log[0] == "setup"
    assert log.count("setup") == len(setups) == Recorder.setups
    # each quarter of the timed part holds several iterations, so no set-up follows another
    assert ("setup", "setup") not in zip(log, log[1:])
    assert len(iterations) >= run.MIN_ITERATIONS


def test_long_iterations_do_not_stretch_the_run_to_fit_the_set_ups(tmp_path):
    workload = Recorder(pause=0.05)
    bench = SimpleNamespace(trace=False, runs=[], work=tmp_path)
    setups, iterations, _, _ = run.measure(workload, bench, seconds=0.1)
    assert len(setups) == Recorder.setups
    assert len(iterations) == run.MIN_ITERATIONS


def stage(name, cpu_s):
    return StageRun(name, wall_s=2 * cpu_s, rss_mb=10.0, returncode=0, cpu_s=cpu_s)


def test_end_to_end_times_are_the_fastest_repeat():
    setups = [Iteration(0.5, [stage("synth", 0.5)]), Iteration(0.3, [stage("synth", 0.3)])]
    timed = [
        Iteration(2.0, [stage(s, 0.4) for s in run.STAGE_METRICS.values()],
                  chunks=[[1e-4, 3e-4]], cpu_chunks=[[2e-5, 6e-5]],
                  quality={"f3": 0.9, "auc": 0.95}),
        Iteration(1.5, [stage(s, 0.3) for s in run.STAGE_METRICS.values()],
                  chunks=[[2e-4, 4e-4]], cpu_chunks=[[4e-5, 8e-5]],
                  quality={"f3": 0.9, "auc": 0.95}),
    ]
    out, stream = run.end_to_end(setups, [(False, it) for it in timed], Iteration(0.0, []))
    assert out["setup_s"] == 0.3
    assert out["total_s"] == 1.5
    assert all(out[m] == 0.3 for m in run.STAGE_METRICS)
    assert out["stream_cpu_p50_ms"] == 2e-5 * 1e3
    assert out["stream_cpu_p99_ms"] == 6e-5 * 1e3
    assert stream["p50_ms"] == 1e-4 * 1e3
    assert (out["f3"], out["auc"]) == (0.9, 0.95)
