"""Starts the cli-mix child processes from a small process of its own.

The peak resident memory that ``wait4`` reports for a child is at least the
resident memory of the process that forked it, because the child starts as
a copy of that process.  The harness holds numpy and the workload's inputs,
so its children would all report its size.  This process imports nothing
heavy, so the figure it reports is the child's own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path}``,
answered by one line ``{"code": exit code, "rss_kib": peak RSS}``.  The
process exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys

CHILD_TIMEOUT_S = 120


def _timeout(_signum, _frame):
    raise TimeoutError("child process exceeded its time limit")


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "rss_kib": usage.ru_maxrss}


def main() -> None:
    signal.signal(signal.SIGALRM, _timeout)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
