"""Start one CLI command with the benchmark's wrappers installed.

Used by the traced run in place of ``python -m wfst.cli``:

    python3 bench/launcher.py trace DUMP SPAWN_TIME ARGS...
    python3 bench/launcher.py count DUMP 0 ARGS...

``trace`` records spans around the package's layers and the time from
SPAWN_TIME (the parent's ``time.time()`` just before it started this
process) to entering ``wfst.cli.main``; ``count`` counts semiring
operations.  Either way the result goes to DUMP as JSON for the parent to
merge, and the exit code is the CLI's.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import wfst.cli  # noqa: E402

from tracing import OpCounter, Tracer  # noqa: E402


def main():
    mode, dump, spawned = sys.argv[1:4]
    argv = sys.argv[4:]
    if not os.path.realpath(wfst.cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"imported wfst from {wfst.cli.__file__}, not from {SRC}")
    if mode == "trace":
        tracer = Tracer()
        with tracer.installed():
            entered = time.time()
            tracer.rid = 0
            code = wfst.cli.main(argv)
            tracer.rid = None
        tracer.dump(dump, import_ms=1e3 * (entered - float(spawned)))
    else:
        counter = OpCounter()
        with counter.installed():
            counter.rid = 0
            code = wfst.cli.main(argv)
            counter.rid = None
        with open(dump, "w", encoding="utf-8") as f:
            json.dump({"ops": counter.count}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
