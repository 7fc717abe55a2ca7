"""Run one command; record its wall time, CPU time and peak RSS.

Usage::

    python3 bench/spawn.py RESULT_JSON -- <program> [arguments...]

Writes ``{"wall_s", "cpu_s", "peak_rss_mb", "exit_code"}`` to RESULT_JSON
and exits with the command's exit code.  The command inherits standard
output and error.

Linux carries a process's peak RSS across fork and exec: a child starts
from its parent's resident set at the fork.  ``run.py`` holds numpy and
the reference arrays, so its children would report at least its size.
This small process forks the command instead.
"""

import json
import os
import subprocess
import sys
import time


def main(argv) -> int:
    result_path = argv[0]
    if argv[1:2] != ["--"] or len(argv) < 3:
        print("usage: spawn.py RESULT_JSON -- <program> [arguments...]", file=sys.stderr)
        return 2
    start = time.perf_counter()
    proc = subprocess.Popen(argv[2:])
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
                "exit_code": proc.returncode,
            },
            fh,
        )
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
