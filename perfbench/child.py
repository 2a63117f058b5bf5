"""Run one benchmark query in this fresh interpreter.

    python3 perfbench/child.py closed-form --prime P --degree M
    python3 perfbench/child.py --spans FILE --query-id N cli ARG...
    python3 perfbench/child.py --spans FILE --query-id N closed-form --prime P --degree M

``closed-form`` is the library entry point for the closed-form routes, which the
CLI cannot reach alone: it prints HC_M and HC^-_M by their closed forms as
JSON (``null`` when the degree is not covered).  With ``--spans`` the query
runs under the layer tracer and its spans are written to FILE when it ends.
``cychom`` must be importable (the benchmark puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import sys


def closed_form(argv: list[str]) -> int:
    from cychom import Prime, homology
    from cychom.cli import shape_record

    parser = argparse.ArgumentParser(prog="closed-form")
    parser.add_argument("--prime", type=int, required=True)
    parser.add_argument("--degree", type=int, required=True)
    args = parser.parse_args(argv)
    p, m = Prime(args.prime), args.degree
    hc = homology.hc_closed_form(p, m)
    neg = homology.hc_neg_closed_form(p, m, m + 21)
    out = {
        "prime": args.prime,
        "degree": m,
        "hc": None if hc is None else shape_record(hc),
        "hcneg": None if neg is None else shape_record(neg),
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def run(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "closed-form":
        return closed_form(rest)
    if mode == "cli":
        from cychom import cli

        return cli.main(rest)
    raise SystemExit(f"unknown query kind {mode!r}")


def main(argv: list[str]) -> int:
    if argv[:1] != ["--spans"]:
        return run(argv)
    path, query_id, argv = argv[1], int(argv[3]), argv[4:]
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return run(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(path, query_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
