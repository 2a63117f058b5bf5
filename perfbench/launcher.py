"""Start benchmark queries on request and report what each one cost.

    python3 perfbench/launcher.py < requests > results

Each request is one JSON line: ``argv``, ``env``, ``cwd``, the ``stdout`` and
``stderr`` files, and ``limit_s`` (the query's CPU limit; its wall limit is
twice that).  For each request, in order, the launcher runs the command,
reaps it with ``wait4`` and answers with one JSON line: ``wall_s``,
``cpu_s`` (user + system), ``rss_mb`` and ``exit``.  The request
``{"reference": true}`` runs the reference work here instead and answers
with its CPU time as ``cpu_s``.  The launcher ends when its input ends.

Queries are started from this small process, not from ``run.py``, because
Linux carries the high-water RSS of the process that spawns a command over
the ``exec``: a query started by ``run.py``, which parses large answers,
would report ``run.py``'s peak memory as its own.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time


def reference() -> int:
    """A fixed piece of pure-Python work of the kind cychom does: big-integer
    products and remainders, and list indexing.  Its CPU time, taken next to
    each query, is the unit of the benchmark's query costs."""
    modulus = 3**400 + 2
    acc = 1
    row = list(range(64))
    for i in range(1, 30_000):
        acc = acc * (acc + i) % modulus
        row[i & 63] += acc & 0xFFFF
        row[(i * 7) & 63] -= row[i & 63] >> 3
    return acc ^ sum(row)


def launch(req: dict) -> dict:
    if req.get("reference"):
        start = time.process_time()
        reference()
        return {"cpu_s": time.process_time() - start}
    limit = req["limit_s"]
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
        try:
            resource.prlimit(proc.pid, resource.RLIMIT_CPU, (limit, limit + 1))
        except ProcessLookupError:
            pass  # already gone
        timer = threading.Timer(2 * limit, proc.kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)  # ended, not yet reaped
        finally:
            timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, which also gives the cost
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(launch(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
