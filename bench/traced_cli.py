"""Run one failcast CLI command, or the trace generator, with every layer function traced.

    python3 bench/traced_cli.py <spans.json> <failcast arguments...>
    python3 bench/traced_cli.py <spans.json> synth-trace <synth_trace.py arguments...>

The run id and the parent span come from BENCH_RUN_ID and
BENCH_PARENT_SPAN. Spans are written to <spans.json> when the command
returns, whatever its exit code.
"""

import os
import sys

from tracer import Tracer, instrument


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(
        os.environ.get("BENCH_RUN_ID", ""), int(os.environ.get("BENCH_PARENT_SPAN", "0"))
    )
    import failcast
    from failcast import cli

    wrapped = instrument(tracer, failcast)
    try:
        with tracer.span("cli." + argv[0]):
            if argv[0] == "synth-trace":
                import synth_trace

                return synth_trace.main(argv[1:])
            return cli.main(argv)
    finally:
        tracer.dump(out, wrapped)


if __name__ == "__main__":
    sys.exit(main())
