"""Run one command as a child process and measure it on its own.

    python3 bench/spawn.py TIMEOUT_S STDOUT_PATH STDERR_PATH PROGRAM [ARG...]

Prints one JSON object: the child's exit code, its wall time in seconds and
its peak RSS in KiB (``ru_maxrss`` from ``os.wait4``).  The child is killed
after TIMEOUT_S seconds.

Measured children are started from this small process, not from ``run.py``,
because Linux carries the spawning process's RSS high-water mark into the
child's ``ru_maxrss`` across ``exec``: spawned from ``run.py``, a child's peak
would read at least that of ``run.py``, which holds the workload in memory.
"""

import json
import os
import signal
import sys
import threading
import time


def main(timeout: float, stdout: str, stderr: str, argv: list[str]) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    killer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    return {"code": os.waitstatus_to_exitcode(status), "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


if __name__ == "__main__":
    if len(sys.argv) < 5:
        sys.exit(__doc__)
    print(json.dumps(main(float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:])))
