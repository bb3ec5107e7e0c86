"""Run one command and report its wall time, peak RSS and exit code.

Usage: ``python3 perfbench/launch.py TIMEOUT_S STDOUT STDERR -- ARGV...``

Prints ``{"seconds": ..., "rss_mb": ..., "exit": ...}`` as one JSON line.
The time runs from just before the child is spawned until ``wait4``
returns; the peak RSS is the child's ``ru_maxrss`` from ``wait4``.

Linux starts a new program's ``ru_maxrss`` at the resident size of the
process that spawned it, so ``run.py``, which holds numpy, scipy and the
CCI oracle, does not spawn commands itself: it starts this small process,
whose own size stays far below any ``netqwalk`` command's.  A command
still running after TIMEOUT_S seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    if len(sys.argv) < 6 or sys.argv[4] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    timeout, stdout, stderr, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[5:]
    with open(stdout, "w") as out, open(stderr, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0,
                      "exit": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
