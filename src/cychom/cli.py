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

from . import gaps, homology
from .homology import HomologyResult
from .padic import Prime, seq_a, seq_b, a_val


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


def _emit(payload: dict, fmt: str, out: str | None, table_lines: list[str]) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        text = _to_csv(payload)
    else:
        text = "\n".join(table_lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    rows = [_flatten(row) for row in payload.get("rows") or [payload]]
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow(_csv_cell(v) for v in row.values())
    return buf.getvalue()


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


def cmd_hh(args) -> int:
    p = Prime(args.prime)
    res = homology.hochschild(p, args.degree)
    _emit(shape_record(res), args.format, args.out, [_shape_line(res)])
    return 0


def cmd_hc(args) -> int:
    p = Prime(args.prime)
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
    n_max = args.n_max if args.n_max is not None else _default_n_max(args.degree)
    res = homology.hc_neg_closed_form(p, args.degree, n_max)
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


def _default_n_max(degree: int) -> int:
    base = max(degree, 1) + 20
    return base if base % 2 == 1 else base + 1


def cmd_hp(args) -> int:
    p = Prime(args.prime)
    n_max = args.n_max if args.n_max is not None else _default_n_max(args.degree)
    res = homology.hp(p, args.degree, n_max)
    _emit(shape_record(res), args.format, args.out, [_shape_line(res)])
    return 0


def cmd_zsets(args) -> int:
    p = Prime(args.prime)
    members = (gaps.enumerate_z1 if args.set == "z1" else gaps.enumerate_z2)(p, args.max)
    payload = {
        "set": args.set,
        "prime": args.prime,
        "max": args.max,
        "members": members,
        "note": "1 is a member by definition; informal listings often omit it",
    }
    lines = [f"{args.set} up to {args.max} for p={args.prime} ({len(members)} elements):"]
    lines.append(" ".join(map(str, members)))
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
    vec = homology.phi_coeffs(p, args.j, args.i)
    # A_j and B_{j-1} exceed Python's default 4300-digit int->str limit
    # from j ~ 3000.  Lift it only while formatting, so argparse still
    # refuses absurdly long integer arguments.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rows = [
            {
                "modulus": n,
                "value": str(v.value),
                "valuation": (None if v.value == 0 else v.valuation),
            }
            for n, v in vec.components
        ]
        payload = {
            "prime": args.prime,
            "j": args.j,
            "i": args.i,
            "head": str(vec.head.value),
            "head_valuation": vec.head.valuation,
            "rows": rows,
        }
        lines = [f"generator {args.j} in colimit {args.i}: head {vec.head.value} (v={vec.head.valuation})"]
        for row in rows:
            lines.append(f"  R/{row['modulus']}: {row['value']}")
        _emit(payload, args.format, args.out, lines)
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def cmd_verify(args) -> int:
    p = Prime(args.prime)
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
