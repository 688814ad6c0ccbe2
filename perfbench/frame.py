"""One benchmark frame in a fresh process: ``beamgat``'s ``cli.main`` on the
given arguments, timed from outside.

Usage: frame.py SPAWN_T RESULT_JSON MODE -- CLI_ARGS...

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process (a system-wide clock on Linux), so ``setup_s`` covers interpreter
start, the numpy/scipy/beamgat imports and config parsing. ``frame_s``,
``cpu_s`` (user+sys over all threads) and ``peak_rss_mb`` cover the
``cli.main`` call. MODE is 0 for a plain frame, 1 to run the call under the
span tracer and write the spans and counts into the result, or ``setup`` to
stop after ``setup_s``.
"""

import sys
import time

if __name__ == "__main__":
    spawn_t = float(sys.argv[1])
    result_path, mode = sys.argv[2], sys.argv[3]
    trace = mode == "1"
    cli_argv = sys.argv[5:]

    import contextlib
    import json
    import os
    import resource

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    from beamgat import cli

    cli.config_from_args(cli.build_parser().parse_args(cli_argv))
    setup_s = time.monotonic() - spawn_t
    if mode == "setup":
        with open(result_path, "w") as fh:
            json.dump({"rc": 0, "setup_s": setup_s}, fh)
        sys.exit(0)

    import spans

    tracer = spans.Tracer()
    with spans.installed(tracer) if trace else contextlib.nullcontext():
        main = tracer.wrap("cli.main", cli.main) if trace else cli.main
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rc = main(cli_argv)
        frame_s = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "frame_s": frame_s,
        "cpu_s": (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
    }
    if trace:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    sys.exit(rc)
