"""Starts the benchmark's child processes on request, from a small process.

A child's ru_maxrss counts the memory of the process it was forked from,
up to the moment it execs, so children started straight from the
benchmark (which holds generated specs and parsed reports) would report
the benchmark's peak instead of their own.  This process stays small: it
reads one JSON request per line on stdin, runs the command with stdout
and stderr sent to the named files, and answers with one JSON line:
{"returncode", "wall", "maxrss_kb"}.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err, env=req["env"],
                                    cwd=req["cwd"])
            timer = threading.Timer(req["limit"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"returncode": proc.returncode, "wall": wall,
                                     "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
