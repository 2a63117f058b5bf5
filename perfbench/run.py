#!/usr/bin/env python3
"""Closed-loop benchmark of the cychom calculator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One client runs a seeded query list one query after another, each query in
a fresh interpreter, as a ``cychom`` call from a shell would: the memo
caches start cold every time.  A query's cost is the CPU time (user +
system) of its process divided by that of a fixed reference computation
run just before and just after it, so it reads the same on a fast or a
slow moment of a shared host.  The median and the tail of the costs are
Harrell-Davis quantile estimates.  ``--seconds`` sets the length of the
list, which is sized to take about two thirds of that on a 2-core Intel
Xeon.  Run from the root of a source checkout; the program is imported
from ``src``.

The last line of standard output is the result, as JSON.  The line before it
is the environment block.  The full record of the run (environment, query
list, every query's time, memory and outcome, and with ``--trace 1`` every
span) is written under ``perfbench/out/``; ``--replay RECORD`` runs the
query list of such a record again.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import tracing  # noqa: E402
import workloads  # noqa: E402

QUERY_LIMIT_S = 20  # CPU limit of one query; its wall limit is twice that
RUN_LIMIT_S = 120  # no query starts after this; the run must end within 180 s
# Median CPU seconds of the reference work on the reference host (2-core
# Intel Xeon, Python 3.11.7): converts the setup cost from ref to seconds.
REFERENCE_S = 0.08

END_TO_END = {
    "list_cost": "ref",
    "query_p50_cost": "ref",
    "query_tail_cost": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def child_env() -> dict[str, str]:
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONPYCACHEPREFIX": str(OUT / "pycache"),
        "PYTHONHASHSEED": "0",
    }


class Spawner:
    """Runs one command at a time in a fresh process, through
    ``launcher.py``, and reports its cost."""

    def __init__(self, scratch: Path):
        self.env = child_env()
        self.stdout = scratch / "stdout"
        self.stderr = scratch / "stderr"
        # The launcher's own peak RSS is the floor of every query's, so it
        # must not vary: it neither compiles nor writes a bytecode cache.
        launcher_env = {"PATH": self.env["PATH"], "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=launcher_env, cwd=ROOT,
        )

    def run(self, argv: list[str]) -> dict:
        return self.run_request({"argv": argv, "env": self.env, "cwd": str(ROOT), "limit_s": QUERY_LIMIT_S,
                                 "stdout": str(self.stdout), "stderr": str(self.stderr)})

    def run_request(self, req: dict) -> dict:
        self.launcher.stdin.write(json.dumps(req) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise SystemExit(f"the launcher stopped (exit {self.launcher.wait()})")
        return json.loads(line)

    def reference(self) -> float:
        """CPU seconds of the launcher's reference work, run now."""
        return self.run_request({"reference": True})["cpu_s"]

    def close(self) -> None:
        try:
            self.launcher.stdin.close()
        except BrokenPipeError:
            pass  # the launcher has already ended
        try:
            self.launcher.wait(timeout=2 * QUERY_LIMIT_S + 5)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def output(self) -> str:
        return self.stdout.read_text(encoding="utf-8", errors="replace")

    def error_tail(self) -> str:
        lines = self.stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return lines[-1][:300] if lines else ""


def query_argv(q: workloads.Query, spans: Path | None = None, query_id: int = 0) -> list[str]:
    child = [sys.executable, str(HERE / "child.py")]
    if spans is not None:
        return child + ["--spans", str(spans), "--query-id", str(query_id), q.kind, *q.args]
    if q.kind == "cli":
        return [sys.executable, "-m", "cychom", *q.args]
    return child + [q.kind, *q.args]


def attempt(spawner: Spawner, q: workloads.Query, argv: list[str]) -> dict:
    rec = spawner.run(argv)
    out = spawner.output()
    rec["output_bytes"] = len(out.encode())
    if rec["cpu_s"] > QUERY_LIMIT_S or rec["wall_s"] > 2 * QUERY_LIMIT_S:
        rec["failure"] = f"over the {QUERY_LIMIT_S} s query limit"
    elif rec["exit"] != 0:
        rec["failure"] = f"exit {rec['exit']}: {spawner.error_tail()}"
    else:
        rec["failure"] = workloads.check(q, out)
        rec["wrong"] = rec["failure"] is not None
    return rec


SETUP_ARGV = [sys.executable, "-c", "import cychom.cli as c; c.build_parser()"]
WARM_UP = [SETUP_ARGV, [sys.executable, "-m", "cychom", "--help"]]


def setup_spawn(spawner: Spawner) -> float:
    """CPU seconds of one fresh interpreter that imports cychom and builds
    the CLI parser."""
    rec = spawner.run(SETUP_ARGV)
    if rec["exit"] != 0:
        raise SystemExit(f"cychom does not import: {spawner.error_tail()}")
    return rec["cpu_s"]


def quantile(values: list[float], q: float, steps: int = 200) -> float:
    """The Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, with weights from the Beta((n+1)q, (n+1)(1-q))
    distribution.  It moves less with the noise of single values than the
    order statistic at that rank does."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):  # integral of the Beta density over [i/n, (i+1)/n], midpoint rule
        h = 1 / (n * steps)
        ts = (i / n + (k + 0.5) * h for k in range(steps))
        weights.append(h * sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta) for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(values: list[float]) -> float:
    """The highest percentile that still has at least ten values above it:
    the quantile at the level (n - 10) / (n + 1) of the (n - 10)-th smallest
    of n values (the maximum when there are ten values or fewer)."""
    n = len(values)
    return quantile(values, (n - 10) / (n + 1)) if n > 10 else max(values)


def measure(spawner: Spawner, queries, trace: bool, scratch: Path) -> list[dict]:
    """Run the query list once, in order, with a setup spawn before each
    query and the reference work between queries; with ``trace`` each
    query runs a second time under the tracer.

    Returns one record per query.  Its ``ref_cpu_s`` is the mean of the
    reference runs just before and just after the query and its setup spawn.
    """
    records = []
    spans = scratch / "spans.json"
    start = time.perf_counter()
    ref = spawner.reference()
    for qid, q in enumerate(queries):
        rec = {"id": qid, "query": q.to_json()}
        records.append(rec)
        if time.perf_counter() - start > RUN_LIMIT_S:
            # Counted as a timeout: it fails and misses every latency limit.
            rec["run"] = {"cpu_s": float(QUERY_LIMIT_S), "ref_cpu_s": ref, "failure": "not started: run time limit"}
            continue
        setup = setup_spawn(spawner)
        rec["run"] = attempt(spawner, q, query_argv(q))
        rec["run"]["setup_cpu_s"] = setup
        after = spawner.reference()
        rec["run"]["ref_cpu_s"], ref = (ref + after) / 2, after
        if trace:
            traced = attempt(spawner, q, query_argv(q, spans, qid))
            traced["trace"] = json.loads(spans.read_text()) if spans.exists() else {"spans": [], "counts": {}}
            spans.unlink(missing_ok=True)
            rec["traced"] = traced
    return records


def cost(run: dict) -> float:
    """A query attempt's CPU time in units of the reference work's."""
    return run["cpu_s"] / run["ref_cpu_s"]


def end_to_end(records: list[dict]) -> dict[str, float]:
    runs = [r["run"] for r in records]
    costs = [cost(a) for a in runs]
    return {
        "list_cost": sum(costs),
        "query_p50_cost": quantile(costs, 0.5),
        "query_tail_cost": tail(costs),
        "setup_s": REFERENCE_S * statistics.median(a["setup_cpu_s"] / a["ref_cpu_s"] for a in runs if "setup_cpu_s" in a),
        "peak_rss_mb": max(a.get("rss_mb", 0.0) for a in runs),
        "ok_ratio": 1 - sum(1 for a in runs if a["failure"]) / len(runs),
    }


def per_layer(records: list[dict]) -> dict[str, float]:
    traced = [r for r in records if "traced" in r]
    m = tracing.layer_metrics([r["traced"]["trace"] for r in traced])
    m["cli.output_bytes"] = sum(
        r["traced"]["output_bytes"] for r in traced if r["query"]["kind"] == "cli" and r["traced"]["exit"] == 0
    )
    m["gaps.peak_rss_mb"] = max(
        (r["run"].get("rss_mb", 0.0) for r in traced if r["query"]["args"][0] in ("density", "zsets")), default=0.0
    )
    m["trace.overhead_s"] = sum(r["traced"]["cpu_s"] - r["run"]["cpu_s"] for r in traced)
    return m


def environment(args, queries) -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    commit = None
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "cychom").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "start_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "queries": [q.to_json() for q in queries],
    }


def bench(args) -> dict:
    if not (SRC / "cychom" / "__init__.py").is_file():
        raise SystemExit(f"no cychom sources under {SRC}: run from the root of a cychom checkout")
    sys.path.insert(0, str(SRC))
    if args.replay:
        queries = [workloads.Query.from_json(q) for q in json.loads(Path(args.replay).read_text())["env"]["queries"]]
    else:
        queries = workloads.generate(args.workload, args.seed, args.seconds, tiny=args.tiny)
    trace = bool(args.trace)
    env = environment(args, queries)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    spawner = Spawner(scratch)
    try:
        for argv in WARM_UP:  # fill the bytecode cache, as an install would
            spawner.run(argv)
        records = measure(spawner, queries, trace, scratch)
    finally:
        spawner.close()
        shutil.rmtree(scratch, ignore_errors=True)

    attempts = [r[k] for r in records for k in ("run", "traced") if k in r]
    if trace:
        metrics, units = per_layer(records), tracing.PER_LAYER
    else:
        metrics, units = end_to_end(records), END_TO_END
    result = {
        "correct": not any(a.get("wrong") for a in attempts),
        "attempted": len(attempts),
        "failed": sum(1 for a in attempts if a["failure"]),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    traces = [{"query": r["id"], **r["traced"].pop("trace")} for r in records if "traced" in r]
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "result": result, "queries": records}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if trace:
        # One span per row: name, start, end, parent index, extra; times are
        # per-process perf_counter seconds.
        (OUT / f"{tag}.spans.json").write_text(json.dumps(traces))
    env_line = {k: v for k, v in env.items() if k != "queries"}
    env_line["record"] = str((OUT / f"{tag}.json").relative_to(ROOT))
    print(json.dumps({"env": env_line}))
    return result


def smoke() -> int:
    """Run every workload at a tiny size, untraced and traced, and check
    each result line against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "1",
                   "--seconds", "60", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            else:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                want = {m["name"]: m["unit"] for m in wanted}
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(res)}")
                elif res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
                    problems.append(f"correct={res['correct']} failed={res['failed']} attempted={res['attempted']}")
                elif set(res["metrics"]) != set(want):
                    problems.append(f"metric names differ: {sorted(set(res['metrics']) ^ set(want))}")
                else:
                    problems += [
                        f"bad metric {name}: {v}"
                        for name, v in res["metrics"].items()
                        if type(v.get("value")) not in (int, float) or v.get("unit") != want[name]
                    ]
            failures += bool(problems)
            print(f"{w['name']} trace={trace}: " + ("; ".join(problems) if problems else "ok"))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", metavar="RECORD", help="rerun the query list of a record in perfbench/out")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (used by --smoke)")
    parser.add_argument("--smoke", action="store_true", help="run every workload tiny and validate the output")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = bench(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
