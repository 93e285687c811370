"""Run one normlines CLI command and report where its time went.

Usage: ``PYTHONPATH=src python perfbench/probe.py <subcommand> <args...>``

Behaves like ``python -m normlines.cli <args...>`` (same stdout, same exit
code) and adds one line to stderr, ``perfbench-probe {json}``, with the
time spent importing ``normlines.cli``, the number of modules that import
loaded, and the time spent in ``cli.main``.  Only the traced run of the
``cli_session`` workload uses it.
"""

import contextlib
import io
import json
import os
import sys
import time


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    argv = sys.argv[1:]
    n0, t0 = len(sys.modules), time.perf_counter_ns()
    import normlines.cli as cli

    t1, n1 = time.perf_counter_ns(), len(sys.modules)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    t2 = time.perf_counter_ns()
    sys.stdout.write(buf.getvalue())
    sys.stdout.flush()
    report = {"import_ns": [t0, t1], "main_ns": [t1, t2], "modules": n1 - n0}
    print("perfbench-probe " + json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
