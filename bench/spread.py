"""Run one workload over several seeds and print each metric's median and spread.

    python3 bench/spread.py --workload chain --seeds 1-10 --seconds 20 [--trace 0]

The spread is (Q3 - Q1) / median over the seeds, with quartiles from
``statistics.quantiles(values, n=4)``; BENCHMARK.json bounds it for the
gated metrics. The ungated end-to-end figures come from each run's record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    ok = True
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= proc.returncode == 0 and result["correct"]
        print(f"seed {seed}: rc={proc.returncode} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
        record = json.loads((Path.cwd() / ".bench_work" / "results" /
                             f"{args.workload}-seed{seed}-trace{args.trace}.json").read_text())
        figures = {**record.get("end_to_end", {}),
                   **{name: metric["value"] for name, metric in result["metrics"].items()}}
        for name, value in figures.items():
            values.setdefault(name, []).append(value)
    for name, vals in values.items():
        spread = stats.quartile_spread(vals) if len(vals) > 1 else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread <= bound / 3 else "  WIDE")
        print(f"{name:50s} median={statistics.median(vals):<12.6g} spread={spread:.4f}"
              f" bound={bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
