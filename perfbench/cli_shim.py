"""One cli-strengthen op: import the CLI, optionally trace it, run it.

Usage: ``python3 perfbench/cli_shim.py SIDECAR.json TRACE strengthen ...``
(started by run.py once per op).  The time at which ``cgcuts.cli`` has
been imported and the process's peak RSS go to the sidecar file, with
the spans and the unit summary when TRACE is 1; the exit code is the
CLI's.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cgcuts.cli  # noqa: E402

IMPORTED = time.perf_counter()


def main() -> int:
    import json  # after IMPORTED, so that only the CLI's own import is timed

    sys.path.insert(0, HERE)
    from tracer import Tracer, peak_rss_mb

    sidecar, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    record = {"imported": IMPORTED}
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        tracer.begin_unit("op", 0)
    try:
        return cgcuts.cli.main(argv)
    finally:
        if tracer:
            tracer.uninstall()
            record["unit"] = tracer.end_unit(window=True)
            record["spans"] = tracer.spans
            record["missing"] = tracer.missing
        record["peak_rss_mb"] = peak_rss_mb()
        with open(sidecar, "w", encoding="utf-8") as f:
            json.dump(record, f)


if __name__ == "__main__":
    sys.exit(main())
