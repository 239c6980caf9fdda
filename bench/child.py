"""Run one loewylab command in a fresh interpreter, as a CLI user would.

Usage: child.py READY_FD TRACE ARGV...

The benchmark spawns this script once per op.  It writes one byte to
READY_FD once the interpreter is up, imports `loewylab.cli`, and writes a
second byte, so the parent can time both stages of set-up.  Then it runs
`loewylab.cli.main(ARGV)` with its real stdout, and writes one JSON line to
stderr: the exit code, the peak RSS and, with TRACE=1, the span summary.
"""

from __future__ import annotations

import os
import resource
import sys
import traceback
from json import dumps


def peak_rss_kb() -> int:
    """This process's peak RSS.  VmHWM belongs to the address space exec
    made; ru_maxrss would also count the parent's RSS when it forked."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    ready_fd, traced, argv = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    os.write(ready_fd, b"I")
    import loewylab.cli

    os.write(ready_fd, b"R")
    os.close(ready_fd)
    tracer = None
    if traced:
        import spans

        tracer = spans.install()
    try:
        loewylab.cli.main(argv)
        code = 0
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
    except Exception:
        traceback.print_exc()
        code = 70
    sys.stdout.flush()
    report = {
        "code": code,
        "maxrss_kb": peak_rss_kb(),
        "optimize": sys.flags.optimize,
        "threads_env": os.environ.get("LOEWY_LAB_THREADS"),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    sys.stderr.write("\n" + dumps(report) + "\n")
    sys.stderr.flush()
    # Both streams are flushed; skip interpreter teardown.
    os._exit(code)


if __name__ == "__main__":
    main()
