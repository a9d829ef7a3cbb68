"""One long-lived `vsb` process that runs `vsb bench` on request.

Usage: python3 benchmarks/runner.py SRC_DIR [--trace]

The process imports the CLI once, so the time of each request covers
`vsb bench` alone (reading the config, the benchmark matrix, writing the
results) and not interpreter start-up, which `setup_s` measures apart. The
worker count comes from ``VSB_THREADS`` in the environment, as for `vsb`.

Protocol, one JSON object per line: a request {"config": path, "out": dir}
is answered by {"seconds": s, "summary": <what `vsb bench` printed>} plus
"trace" with --trace; the request {"quit": true} is answered by the peak
resident memory of this process, {"peak_rss_kb": n}, before it exits.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    src = sys.argv[1]
    sys.path.insert(0, os.path.abspath(src))
    import varsortbench
    from varsortbench import cli

    tracer = None
    if "--trace" in sys.argv[2:]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(varsortbench)

    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            reply = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            print(json.dumps(reply), flush=True)
            return 0
        printed = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["bench", "--config", request["config"], "--out", request["out"]])
        seconds = time.perf_counter() - start
        reply = {"seconds": seconds, "code": code, "summary": json.loads(printed.getvalue())}
        if tracer is not None:
            reply["trace"] = tracer.drain()
        print(json.dumps(reply), flush=True)
    return 1  # stdin closed without a quit request


if __name__ == "__main__":
    sys.exit(main())
