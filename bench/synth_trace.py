"""Write a benchmark trace with failcast's own synthetic generator.

    python3 bench/synth_trace.py --out DIR --machines N --days D --seed S

The generator keeps its defaults except for the failure counts: every
regular machine fails once or twice, drawn from the default power law
cut at two. The default draw (40% of machines failing, up to 40 times)
has a tail that moves the total failure count, and with it the work of
stage 2, by about 20% between seeds at the sizes the benchmark runs.
"""

import argparse
from pathlib import Path

from failcast import synth
from failcast.synth import SynthConfig

FAILING_FRACTION = 1.0
MAX_FAILURES = 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--machines", type=int, required=True)
    p.add_argument("--days", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    config = SynthConfig(machines=args.machines, horizon_days=args.days, rng_seed=args.seed,
                         failing_fraction=FAILING_FRACTION, max_failures=MAX_FAILURES)
    synth.generate(config, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
