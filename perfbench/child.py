"""One CLI run in a fresh interpreter, as a user would pay for it.

Usage: python3 child.py '<json spec>'.  The spec carries the parent's
CLOCK_MONOTONIC reading taken just before this process was started, the
source directory, the CLI argv, and whether to trace.  The last stdout line
is a JSON object with setup_s (interpreter start plus `import kickedtop`),
wall_s (one `cli.main(argv)` call, CSV and meta written), peak_rss_mb and,
when tracing, the per-layer metrics.

Only `sys`, `time` and `json` (which kickedtop imports anyway) are loaded
before the set-up clock stops, so the benchmark's own imports stay out of
setup_s.
"""

import json
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import kickedtop
    import kickedtop.cli

    # time.monotonic is CLOCK_MONOTONIC on Linux, one clock for all processes
    setup_s = time.monotonic() - spec["t0"]

    import contextlib
    import io
    import resource

    report = {"setup_s": setup_s}
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stdout = io.StringIO()
    begin = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        status = kickedtop.cli.main(spec["argv"])
    report["wall_s"] = time.perf_counter() - begin
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["status"] = status
    report["version"] = kickedtop.__version__
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
    if spec.get("provenance"):
        from provenance import runtime_provenance

        report["provenance"] = runtime_provenance()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
