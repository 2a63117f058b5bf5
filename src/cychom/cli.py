"""Command-line driver.

Every engine operation is exposed through a subcommand with table, json,
or csv output.  Exit codes: 0 success, 1 engine precondition failure,
2 usage error, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from itertools import compress

from . import gaps, homology
from .homology import HomologyResult
from .padic import Prime


def shape_record(res: HomologyResult) -> dict:
    return {
        "theory": res.theory,
        "degree": res.degree,
        "method": res.method,
        "complete_rank": res.shape.complete_rank,
        "free_rank": res.shape.free_rank,
        "torsion_p_exponents": list(res.shape.torsion_exponents),
        "truncated": res.shape.truncated,
        "n_max": res.n_max,
    }


class Members:
    """The members of Z1 or Z2 up to a bound, held as the sieve's odd-index
    mask: byte k is 1 iff 2k+1 is a member.  1 always is, so the mask is
    never all zero."""

    __slots__ = ("mask",)

    def __init__(self, mask: bytearray):
        self.mask = mask

    def chunks(self, sep: str):
        """The text of ``sep.join(map(str, members))``, one chunk per block.

        Block k >= 1 is the 500 mask bytes of the odd numbers 1000k+1 ...
        1000k+999, so each member there is str(k) followed by one of 500
        three-digit suffixes: the block's text is one join over the
        compressed suffix table, with no Python int per member.
        """
        mask = self.mask
        yield sep.join(map(str, compress(range(1, 1000, 2), mask[:500])))
        suffixes = [f"{d:03}" for d in range(1, 1000, 2)]
        for k in range(1, -(-len(mask) // 500)):
            lead = sep + str(k)
            body = lead.join(compress(suffixes, mask[500 * k : 500 * k + 500]))
            # A block without members would leak its bare prefix.
            if body:
                yield lead + body


def _emit(payload: dict, fmt: str, out: str | None, table_lines: list) -> None:
    """Write the payload as JSON or CSV, or the table lines; a ``Members``
    line is written with spaces between its members."""
    if fmt == "json":
        chunks = _json_chunks(payload)
    elif fmt == "csv":
        chunks = _csv_chunks(payload)
    else:
        chunks = _table_chunks(table_lines)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _all_ints(values: list) -> bool:
    """Nonempty, and every item exactly an int (a bool is not)."""
    return {*map(type, values)} == {int}


def _join_ints(values: list[int], sep: str) -> str:
    """``sep.join(map(str, values))`` by the C JSON encoder, which makes one
    short-lived str per int and never holds a list of them all; it needs
    ``_all_ints(values)``."""
    return json.dumps(values, separators=(",", ":"))[1:-1].replace(",", sep)


def _json_chunks(payload: dict):
    """The text of ``json.dumps(payload, indent=2) + "\\n"``, in linear time.

    With ``indent`` set, json.dumps runs its pure-Python encoder, several
    generator steps per list item.  So each top-level value is encoded on
    its own and indented one more level: ``Members`` by its chunks, a flat
    list of ints by ``_join_ints``, anything else by json.dumps(indent=2).
    ensure_ascii escapes every newline inside a string, so each newline of
    the text starts a line.  The keys are str.  The text comes in chunks,
    as it is made, so no copy of the whole is held.
    """
    if not payload:
        yield "{}\n"
        return
    lead = "{"
    for key, value in payload.items():
        yield f"{lead}\n  {json.dumps(key)}: "
        if type(value) is Members:
            yield "[\n    "
            yield from value.chunks(",\n    ")
            yield "\n  ]"
        elif type(value) is list and _all_ints(value):
            yield "[\n    " + _join_ints(value, ",\n    ") + "\n  ]"
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
        lead = ","
    yield "\n}\n"


def _csv_chunks(payload: dict):
    """The text of csv.writer over the payload's rows, in chunks."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    rows = [_flatten(row) for row in payload.get("rows") or [payload]]
    writer.writerow(rows[0].keys())
    for row in rows:
        cells = [_csv_cell(v) for v in row.values()]
        views = [k for k, cell in enumerate(cells) if type(cell) is Members]
        if not views:
            writer.writerow(cells)
            continue
        # A Members cell is digits and ';', which csv never quotes, so its
        # row is the cells before it, its chunks and the cells after it.
        # Each side is written with two empty cells in its place, never
        # one: csv writes a row of one empty cell as "", not as nothing.
        (k,) = views
        writer.writerow(cells[:k] + ["", ""])
        yield buf.getvalue()[: -1 - len(writer.dialect.lineterminator)]
        buf.seek(0)
        buf.truncate()
        yield from cells[k].chunks(";")
        writer.writerow(["", ""] + cells[k + 1 :])
        yield buf.getvalue()[1:]
        buf.seek(0)
        buf.truncate()
    yield buf.getvalue()


def _table_chunks(lines: list):
    for line in lines:
        if type(line) is Members:
            yield from line.chunks(" ")
            yield "\n"
        else:
            yield f"{line}\n"


def _flatten(record: dict, prefix: str = "") -> dict:
    """Nested records become prefixed columns: {"a": {"b": 1}} -> {"a.b": 1}."""
    flat = {}
    for key, value in record.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def _csv_cell(v):
    if isinstance(v, list):
        return ";".join(map(str, v))
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def _shape_line(res: HomologyResult) -> str:
    return f"{res.theory}_{res.degree} = {res.shape}  [{res.method}]"


# Ceilings on the size of each command's work, measured on a 2-core Xeon
# with Python 3.11 (CPU seconds and peak RSS at the ceiling, for p = 3 /
# 101 / 1009).  A larger value is refused with exit 1 before anything is
# allocated.
# - hc --degree 4000: SNF of a 2001-square staircase, 1.0 / 5.0 / 11 s,
#   78 MB; twice the degree costs ~7x the time and ~3.4x the memory.
# - hcneg --truncation 2000: SNF of a 2000- and a 2001-square staircase,
#   1.9 / 9.0 s (p = 3 / 101), 79 MB.
# - verify --hc-max 480: the oracle at every even degree up to it, 2.2 /
#   5.3 / 8.0 s, 17 MB; at 960 it takes 17 / 50 s (p = 3 / 101).
# - coeffs --j/--i 8001: ~j^2 digits, 30 / 58 / 74 MB of JSON in 0.6 /
#   0.8 / 1.0 s, 132 / 187 / 231 MB; at 16001, 130 / 242 MB of JSON
#   (p = 3 / 101) and up to 0.7 GB.
# - zsets --max 10**7: every member, 23-64 MB of text in 0.3-0.4 s, 30 MB
#   (p = 3 to 101, any set and format).
# - verify --hh-max 10**5: one Hochschild check and one line per degree,
#   1.8 / 2.0 s, 38 / 25 MB, 3.6 / 2.9 MB of text (p = 3 / 101); linear,
#   3.6 / 3.9 s at 2*10**5.
# - hp/hcneg --n-max 10**7 + 1 (given, or the default degree + 20 or 21):
#   a torsion exponent per odd multiple of p, 0.5-1.0 s, 113-177 MB, 3.3-11.7
#   MB of text at p = 3; 0.2 s, 21 MB at p = 101; linear in n_max.
HC_MAX_DEGREE = 4000
HCNEG_MAX_TRUNCATION = 2000
VERIFY_MAX_HC = 480
VERIFY_MAX_HH = 10**5
COEFFS_MAX = 8001
ZSETS_MAX = 10**7
PRODUCT_MAX_N = 10**7 + 1


def _cap(flag: str, value: int, ceiling: int, why: str) -> None:
    if value > ceiling:
        raise ValueError(f"{why}, so {flag} is capped at {ceiling}; got {value}")


def cmd_hh(args) -> int:
    p = Prime(args.prime)
    res = homology.hochschild(p, args.degree)
    _emit(shape_record(res), args.format, args.out, [_shape_line(res)])
    return 0


def cmd_hc(args) -> int:
    p = Prime(args.prime)
    _cap("--degree", args.degree, HC_MAX_DEGREE, "hc eliminates a (degree/2+1)-square staircase")
    oracle = homology.hc_oracle(p, args.degree)
    record = shape_record(oracle)
    lines = [_shape_line(oracle)]
    if args.degree % 2 == 0 and args.degree >= 2:
        closed = homology.hc_closed_form(p, args.degree)
        if closed is None:
            record["closed_form"] = None
            lines.append("closed form: not covered (degree in a gap window)")
        else:
            record["closed_form"] = shape_record(closed)
            record["agreement"] = closed.shape == oracle.shape
            lines.append(_shape_line(closed))
            lines.append(f"agreement: {record['agreement']}")
    _emit(record, args.format, args.out, lines)
    return 3 if record.get("agreement") is False else 0


def cmd_hcneg(args) -> int:
    p = Prime(args.prime)
    if args.truncation is not None:
        _cap("--truncation", args.truncation, HCNEG_MAX_TRUNCATION, "the probe eliminates staircases of that size")
    res = homology.hc_neg_closed_form(p, args.degree, _n_max(args))
    if res is None:
        payload = {"theory": "HCneg", "degree": args.degree, "closed_form": None}
        lines = [f"HCneg_{args.degree}: not covered (degree-1 in a gap window)"]
    else:
        payload = shape_record(res)
        lines = [_shape_line(res)]
    if args.truncation is not None:
        probe = homology.hc_neg_truncation_probe(p, args.degree, args.truncation)
        payload["probe"] = {
            "ok": probe.ok,
            "vacuous": probe.vacuous,
            "stable_prefix": list(probe.stable_prefix),
            "covered_up_to": probe.covered_up_to,
            "method": "stabilized",
        }
        lines.append(f"truncation probe: ok={probe.ok} ({probe.details})")
    _emit(payload, args.format, args.out, lines)
    return 0


def _n_max(args) -> int:
    """The display cutoff: --n-max, or by default the first odd number from
    degree + 20 on.  Either is capped."""
    if args.n_max is not None:
        n_max, flag = args.n_max, "--n-max"
    else:
        base = max(args.degree, 1) + 20
        n_max = base if base % 2 == 1 else base + 1
        flag = f"the default --n-max for --degree {args.degree}"
    _cap(flag, n_max, PRODUCT_MAX_N, "the answer lists a torsion exponent per odd multiple of p up to --n-max")
    return n_max


def cmd_hp(args) -> int:
    p = Prime(args.prime)
    res = homology.hp(p, args.degree, _n_max(args))
    _emit(shape_record(res), args.format, args.out, [_shape_line(res)])
    return 0


def cmd_zsets(args) -> int:
    p = Prime(args.prime)
    _cap("--max", args.max, ZSETS_MAX, "zsets lists every member")
    members = Members(gaps.member_mask(p, args.max, symmetric=args.set == "z2"))
    payload = {
        "set": args.set,
        "prime": args.prime,
        "max": args.max,
        "members": members,
        "note": "1 is a member by definition; informal listings often omit it",
    }
    lines = []
    if args.format == "table":
        lines = [
            f"{args.set} up to {args.max} for p={args.prime} ({members.mask.count(1)} elements):",
            members,
        ]
    _emit(payload, args.format, args.out, lines)
    return 0


def cmd_density(args) -> int:
    p = Prime(args.prime)
    rep = gaps.density_bounds(p, args.max)
    payload = {
        "prime": rep.p,
        "max": rep.upper,
        "empirical_z1": str(rep.empirical_z1),
        "empirical_z2": str(rep.empirical_z2),
        "empirical_z1_float": float(rep.empirical_z1),
        "empirical_z2_float": float(rep.empirical_z2),
        "bound_z1": float(rep.bound_z1),
        "bound_z2": float(rep.bound_z2),
        "bound_z1_asymptotic": float(rep.bound_z1_asymptotic),
        "bound_z2_asymptotic": float(rep.bound_z2_asymptotic),
        "bound_z1_geometric": float(rep.bound_z1_geometric),
        "bound_z2_geometric": float(rep.bound_z2_geometric),
        "lambda": str(rep.lam),
    }
    lines = [
        f"densities up to {rep.upper} for p={rep.p}:",
        f"  Z1: empirical {float(rep.empirical_z1):.6f} >= bound {float(rep.bound_z1):.6f}"
        f" (asymptotic {float(rep.bound_z1_asymptotic):.6f})",
        f"  Z2: empirical {float(rep.empirical_z2):.6f} >= bound {float(rep.bound_z2):.6f}"
        f" (asymptotic {float(rep.bound_z2_asymptotic):.6f})",
    ]
    _emit(payload, args.format, args.out, lines)
    return 0


def cmd_coeffs(args) -> int:
    p = Prime(args.prime)
    j, i = args.j, args.i
    _cap("--j", j, COEFFS_MAX, "coeffs prints about j^2 digits")
    _cap("--i", i, COEFFS_MAX, "coeffs prints a row per odd n <= i")
    head, head_valuation, rows = homology.phi_coeff_texts(p, j, i)
    payload = {
        "prime": args.prime,
        "j": j,
        "i": i,
        "head": head,
        "head_valuation": head_valuation,
        "rows": [{"modulus": n, "value": value, "valuation": v} for n, value, v in rows],
    }
    lines = []
    if args.format == "table":
        lines = [f"generator {j} in colimit {i}: head {head} (v={head_valuation})"]
        lines += [f"  R/{n}: {value}" for n, value, _ in rows]
    _emit(payload, args.format, args.out, lines)
    return 0


def cmd_verify(args) -> int:
    p = Prime(args.prime)
    if args.hc_max < 2 or args.hc_max % 2:
        raise ValueError(f"--hc-max must be even and >= 2, got {args.hc_max}")
    _cap("--hc-max", args.hc_max, VERIFY_MAX_HC, "verify runs the oracle at every even degree up to --hc-max")
    if args.hh_max < 0:
        raise ValueError(f"--hh-max must be >= 0, got {args.hh_max}")
    _cap("--hh-max", args.hh_max, VERIFY_MAX_HH, "verify checks and prints every Hochschild degree up to --hh-max")
    failures: list[str] = []
    lines: list[str] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
        if not ok:
            failures.append(f"{name}: {detail}" if detail else name)

    for i in range(0, args.hh_max + 1):
        try:
            homology.hochschild(p, i)
            check(f"hochschild degree {i}", True)
        except ArithmeticError as exc:
            check(f"hochschild degree {i}", False, str(exc))

    for i in range(2, args.hc_max + 1, 2):
        oracle = homology.hc_oracle(p, i)
        closed = homology.hc_closed_form(p, i)
        if closed is None:
            check(f"hc degree {i}", True, "not covered by a closed form")
        else:
            check(
                f"hc degree {i}",
                closed.shape == oracle.shape,
                f"oracle {oracle.shape} vs closed {closed.shape}",
            )

    connes = homology.connes_length_check(p, args.hc_max)
    check("connes length recursion", connes.ok, "; ".join(connes.mismatches))

    stab = homology.hp_stabilization_check(p, args.hc_max)
    check("hp stabilization", stab.ok, "; ".join(stab.mismatches))

    kernel_indices = [i for i in gaps.enumerate_z2(p, 50 * p.p) if i > 1][:3]
    for i in kernel_indices:
        ok = homology.verify_kernel_generators(p, i, upto=8)
        check(f"kernel generators at {i}", ok)

    for i in range(1, min(args.hc_max, 12), 2):
        rep = homology.verify_presentation(p, i)
        check(
            f"colimit presentation {i}",
            rep.ok,
            "" if rep.ok else f"rebuilt {rep.rebuilt} vs oracle {rep.oracle}",
        )

    payload = {"prime": args.prime, "failures": failures, "checks": lines}
    _emit(payload, args.format, args.out, lines + [f"{len(failures)} failure(s)"])
    return 3 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cychom",
        description="Exact homology calculator for the universal dga killing an odd prime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--prime", type=int, required=True, help="odd prime p")
        sp.add_argument("--format", choices=("table", "json", "csv"), default="table")
        sp.add_argument("--out", help="write output to this file instead of stdout")

    sp = sub.add_parser("hh", help="Hochschild homology in one degree")
    common(sp)
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(func=cmd_hh)

    sp = sub.add_parser("hc", help="cyclic homology in one degree (oracle + closed form)")
    common(sp)
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(func=cmd_hc)

    sp = sub.add_parser("hcneg", help="negative cyclic homology closed form")
    common(sp)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--n-max", type=int, help="odd display cutoff for the product factors")
    sp.add_argument("--truncation", type=int, help="also run the truncation probe at this size")
    sp.set_defaults(func=cmd_hcneg)

    sp = sub.add_parser("hp", help="periodic homology closed form")
    common(sp)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--n-max", type=int, help="odd display cutoff for the product factors")
    sp.set_defaults(func=cmd_hp)

    sp = sub.add_parser("zsets", help="enumerate the window-free index sets")
    common(sp)
    sp.add_argument("--max", type=int, required=True)
    sp.add_argument("--set", choices=("z1", "z2"), default="z1")
    sp.set_defaults(func=cmd_zsets)

    sp = sub.add_parser("density", help="empirical densities with proven lower bounds")
    common(sp)
    sp.add_argument("--max", type=int, required=True)
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("coeffs", help="staircase generator coefficients")
    common(sp)
    sp.add_argument("--j", type=int, required=True, help="odd generator index")
    sp.add_argument("--i", type=int, required=True, help="odd colimit top index >= j")
    sp.set_defaults(func=cmd_coeffs)

    sp = sub.add_parser("verify", help="run the full cross-check suite")
    common(sp)
    sp.add_argument("--hc-max", type=int, default=40, help="largest cyclic degree checked")
    sp.add_argument("--hh-max", type=int, default=10, help="largest Hochschild degree checked")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # The engine raises ArithmeticError when its two routes disagree or
        # an exactness guard trips.
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
