"""Command-line driver.

Every engine operation is exposed through a subcommand with table, json,
or csv output.  Exit codes: 0 success, 1 engine precondition failure,
output that cannot be written or memory that runs out, 2 usage error, 3
verification mismatch.
A handler ``cmd_*(p, args)`` only computes: it returns the payload, the
table lines and the exit code.  ``main`` alone checks the prime, writes
the answer once in the format asked for, and maps the errors to codes.

The grammar is one table, ``GRAMMAR``, which two parsers read.  A
well-formed command, ``COMMAND --flag value ...`` with each flag one of
its command's, given once and in full, takes ``_fast_parse``, which
imports nothing.  Everything else (help, abbreviations, ``--flag=value``,
refusals) goes to the argparse parser ``build_parser`` makes from the
same table, which owns every help text and usage error.  Neither
argparse nor json is imported at start-up: ``_json_text`` writes the
scalars of a payload itself and imports json only for the rest.

Importing this module loads only ``padic`` and ``gaps``: the commands
that need ``homology`` (and through it ``linalg``) import it when they
run, so ``zsets`` and ``density`` never load either.

``entry`` is the process entry of ``python -m cychom`` and of the
installed ``cychom`` script: it runs ``main`` and freezes the collector
before the interpreter shuts down.  ``main(argv)`` is the entry for a
caller in its own process, and never freezes.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import namedtuple
from itertools import chain, compress
from math import floor, inf, isfinite, isqrt, nextafter
from operator import attrgetter
from types import SimpleNamespace

from . import gaps
from .padic import Prime


def shape_record(res: homology.HomologyResult, exponents=attrgetter("torsion_exponents")) -> dict:
    """The record of a result, its torsion exponents given by
    ``exponents(shape)``: by default the shape's plain list, which the
    benchmark's closed-form query passes to json.dumps; the commands pass
    ``_exponent_view``, which their writers write from the shape's runs."""
    return {
        "theory": res.theory,
        "degree": res.degree,
        "method": res.method,
        "complete_rank": res.shape.complete_rank,
        "free_rank": res.shape.free_rank,
        "torsion_p_exponents": exponents(res.shape),
        "truncated": res.shape.n_max is not None,
        "n_max": res.shape.n_max,
    }


# A view stands for a long list in a payload or a table line, and writes
# its text as it is made.  ``chunks(sep)`` is the text of ``sep.join`` of
# its items' texts, in chunks; in JSON an item's text is its JSON text.


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


class Repeats:
    """A list held as its runs of equal items: (text, count) pairs, in
    order, each the text of an item and how many times it comes in a row.
    It is made from (item, count) pairs, and holds each item's str."""

    __slots__ = ("runs",)

    def __init__(self, runs):
        self.runs = [(str(item), count) for item, count in runs]

    def chunks(self, sep: str):
        """The text of ``sep.join`` of the items, 4096 items a chunk at most."""
        lead = ""
        for text, count in self.runs:
            while count > 0:
                n = min(count, 4096)
                yield lead + text + (sep + text) * (n - 1)
                lead, count = sep, count - n


class Rows:
    """A payload's records, made as they are written: an iterator of
    non-empty dicts of str keys and str, int, bool or None values, or
    parts: a tuple of str whose join is the value's text, digits and "/"
    only, as ``padic.staircase_parts`` makes them.  It is read once; a
    command that gives one has at least one record."""

    __slots__ = ("records",)

    def __init__(self, records):
        self.records = records

    def chunks(self, sep: str):
        """The records as json.dumps(indent=2) writes them in a list whose
        items ``sep`` joins: a comma, then a newline and the items' indent.

        The text of parts needs no escape, so its parts are written as they
        are, between quotes, each its own chunk: a long value is neither
        scanned nor copied.  The rest of a record comes in one chunk."""
        field, close = sep[1:] + "  ", sep[1:] + "}"
        heads = {}  # the text of each key's field up to its value
        text = "{"
        for record in self.records:
            for key, value in record.items():
                head = heads.get(key) or heads.setdefault(key, f"{field}{_json_text(key)}: ")
                if type(value) is tuple:
                    yield f'{text}{head}"'
                    yield from value
                    text = '",'
                else:
                    text = f"{text}{head}{_json_text(value)},"
            yield text[:-1] + close
            text = sep + "{"


def _exponent_view(shape) -> Repeats:
    return Repeats(shape.torsion)


def _emit(payload: dict, fmt: str, out: str | None, table_lines) -> None:
    """Write the payload as JSON or CSV, or the table lines: each line is a
    str, or an iterable of the chunks of its text."""
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
        sys.stdout.flush()


VIEWS = (Members, Repeats, Rows)


def _json_chunks(payload: dict):
    """The text of ``json.dumps(payload, indent=2) + "\\n"``, in linear time.

    With ``indent`` set, json.dumps runs its pure-Python encoder, several
    generator steps per list item, and holds the whole text.  So
    ``_json_value`` writes a non-empty dict key by key, a list of str an
    item a chunk and a view by its chunks, at any depth, and hands
    ``_json_text`` only a scalar, which it writes on one line.  The keys
    are str.  No copy of the whole is held.
    """
    yield from _json_value(payload, "\n")
    yield "\n"


def _json_value(value, newline: str):
    """The chunks of json.dumps(value, indent=2), each of its newlines
    written as ``newline``: a newline and the indent of the value's line.

    The value is a dict, a scalar, a list of str or a view: the only lists
    a command puts in a payload hold str."""
    inner = newline + "  "
    if type(value) is dict and value:
        lead = "{"
        for key, item in value.items():
            yield f"{lead}{inner}{_json_text(key)}: "
            yield from _json_value(item, inner)
            lead = ","
        yield newline + "}"
    elif type(value) is list or type(value) in VIEWS:
        items = _json_strs(value, "," + inner) if type(value) is list else value.chunks("," + inner)
        first = next(items, None)
        if first is None:
            yield "[]"
        else:
            yield "[" + inner + first
            yield from items
            yield newline + "]"
    else:
        yield _json_text(value)


def _json_strs(texts: list[str], sep: str):
    """The chunks of ``sep.join(map(_json_text, texts))``, one item a
    chunk: each is quoted, and escaped where it needs it, by ``_json_text``."""
    lead = ""
    for text in texts:
        yield lead + _json_text(text)
        lead = sep


def _json_text(value) -> str:
    """json.dumps(value), for a scalar of a payload.

    None, a bool, an int, a finite float, and a str of printable ASCII
    with no quote or backslash, which json.dumps writes as it is, are
    written here; json.dumps, and the import of json, is left the str that
    need escapes, the floats nan and +-inf, and any other value.
    A long text that is known to need no escape (``Rows``' parts) never
    comes here: the printable scan alone cost a third of ``coeffs``.
    """
    kind = type(value)
    if kind is str:
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
    elif kind is int:
        return int.__repr__(value)
    elif value is None:
        return "null"
    elif kind is bool:
        return "true" if value else "false"
    elif kind is float:
        if isfinite(value):
            return float.__repr__(value)
    import json

    return json.dumps(value)


def _csv_chunks(payload: dict):
    """The text csv.writer writes of the payload's rows, one chunk per row
    or per view chunk: the records of its ``Rows`` value if it has one,
    which are flat, else the payload itself, flattened."""
    rows = next((value for value in payload.values() if type(value) is Rows), None)
    records = iter([_flatten(payload)] if rows is None else rows.records)
    first = next(records)
    yield from _csv_line(first.keys())
    for row in chain([first], records):
        yield from _csv_line(row.values())


def _csv_line(cells):
    """The chunks of the line csv.writer writes for the cells by default,
    one or more a cell, so a long cell is never copied into its line.

    csv.writer looks at each character of each cell in turn, which made a
    ``coeffs`` row of long digit strings cost about three times its JSON,
    so the cells are written here as it writes them.  Every row a command
    writes has at least two cells, so none is the lone empty cell that
    csv.writer writes as "".  A view is written by its chunks: its text is
    digits and ';', which csv never quotes.
    """
    for k, cell in enumerate(cells):
        if k:
            yield ","
        yield from cell.chunks(";") if type(cell) in VIEWS else _csv_cell(cell)
    yield "\r\n"


def _csv_cell(cell):
    """The chunks of a cell's text: parts (as ``Rows`` holds them) as they
    are, and anything else as its str (None's is empty), quoted, its
    quotes doubled, when it holds one of ``,"\\r\\n``."""
    if type(cell) is tuple:
        return cell
    text = "" if cell is None else str(cell)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return ('"', text.replace('"', '""'), '"')
    return (text,)


def _table_chunks(lines):
    for line in lines:
        if type(line) is str:
            yield line + "\n"
        else:
            yield from line
            yield "\n"


def _flatten(record: dict, prefix: str = "") -> dict:
    """Nested records become prefixed columns: {"a": {"b": 1}} -> {"a.b": 1}."""
    flat = {}
    for key, value in record.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def _shape_line(res: homology.HomologyResult):
    """The chunks of the table line ``f"{theory}_{degree} = {shape}  [{method}]"``,
    written from the runs of the shape's factors."""
    body = Repeats(res.shape.factors()).chunks(" x ")
    yield f"{res.theory}_{res.degree} = {next(body, '0')}"
    yield from body
    yield f"  [{res.method}]"


# Ceilings on the size of each command's work, measured on a 2-core Xeon
# with Python 3.11 (CPU seconds and peak RSS at the ceiling, for p = 3 /
# 101 / 1009).  A larger value is refused with exit 1 before anything is
# allocated.
# - hc --degree 10**6: one walk along the 10**6 + 1 valuations of a
#   500001-square staircase, made as they are read, 0.6-0.9 / 0.8 /
#   0.7-0.8 s, 14 MB; time linear in the degree (0.11-0.13 s at 40000,
#   1.1-1.5 s and 14 MB at 2*10**6 for p = 3).  An odd degree walks
#   nothing: 0.10 s, start-up and exit alone.
# - hcneg --truncation 5*10**5: one walk along a truncation-square
#   staircase, the same work as hc at its ceiling: 0.65-0.8 s and 14 MB in
#   every format, though at p = 3 it prints a stable prefix of 1.7*10**5
#   valuations (written from their runs); time linear in the truncation.
#   Nor with the degree's digits: 0.23-0.30 s at degree 10**3999 + 4 and
#   --truncation 20000, 0.23 s at 10**19999 + 4 and 2000.
# - verify --hc-max 10**4: one walk gives every even degree, read a block
#   at a time, and an ok record names no shape, so time and text are
#   linear in --hc-max (0.42 MB of JSON, 0.12 MB of CSV at p = 3):
#   0.24-0.33 / 0.18-0.25 / 0.17-0.22 s, 16 MB in every format; at 4000
#   0.13-0.16 / 0.11-0.18 / 0.13-0.17 s, 15.5 MB; at 2000 0.09-0.11 s,
#   15 MB.  No degree's shape outlives its hc record, so what bounds it is
#   the check records, about 0.2 KB a degree, and the closed form's 20-27
#   us a degree at p = 3 (12-14 us at p = 101): with this cap lifted,
#   --hc-max 10**5 takes 2.5-3.2 / 1.4-2.2 / 1.3-2.2 s and 25-26 MB.
# - coeffs --j/--i 8001: ~j^2 digits, 30 / 58 / 74 MB of text, 28 / 41 /
#   50 MB in every format (the staircase's Decimals, ~0.42 bytes a digit;
#   the text is written a row at a time); 0.25 / 0.39 / 0.49 s in JSON,
#   0.18-0.31 s as a table.  CSV, its cells written by hand, costs about
#   two thirds of the JSON: 0.24 / 0.34 / 0.42 s against 0.36 / 0.57 /
#   0.72 s in the same runs.  At 16001, 130 / 242 / 307 MB of JSON in
#   0.8 / 1.5 / 1.8 s, 69 / 115 / 153 MB.  The digits also grow with
#   log p, so a p of b > 10 bits caps --j where j^2 b passes 8001^2 * 10,
#   what --j 8001 prints at p = 1009: in JSON 74 MB of text, 0.56 s and
#   49 MB there; 56 MB, 0.45 s and 43 MB at p = 10**9 + 7 (--j 4619; 101 MB
#   and 0.73 s at 8001 without the cap); 51 MB, 0.5 s and 44 MB at
#   p = 3317044064679887385961813, near the top of Prime's range (--j 2793).
# - zsets --max 10**7: every member, 23-64 MB of text in 0.13-0.17 s,
#   19.6 / 19.7 MB in any set and format (p = 3 / 101).
# - hp/hcneg --n-max 10**7 + 1 (given, or the default degree + 20 or 21):
#   a torsion exponent per odd multiple of p, counted per exponent and
#   written from those runs: 0.07-0.09 s and 14 MB for p = 3 / 101 / 1009
#   in every format, for 3.3-11.7 MB of text at p = 3; the text, and its
#   time, are linear in n_max, the memory is not.
# - density --max 10**8: the window sieve holds a byte per odd integer up
#   to --max, and its slices are cleared in 64 KiB pieces:
#   0.19-0.27 / 0.14-0.22 / 0.14-0.19 s, 63 / 63 / 63 MB in every format;
#   linear (0.07-0.11 s and 19.8-20 MB at 10**7 for p = 3 / 101).
HC_MAX_DEGREE = 10**6
HCNEG_MAX_TRUNCATION = 5 * 10**5
VERIFY_MAX_HC = 10**4
COEFFS_MAX = 8001
ZSETS_MAX = 10**7
DENSITY_MAX = 10**8
PRODUCT_MAX_N = 10**7 + 1


def _cap(flag: str, value: int, ceiling: int, why: str) -> None:
    if value > ceiling:
        raise ValueError(f"{why}, so {flag} is capped at {ceiling}; got {value}")


def _shape_answer(res: homology.HomologyResult):
    """The answer of a command whose result is one shape."""
    return shape_record(res, _exponent_view), [_shape_line(res)], 0


def cmd_hh(p: Prime, args):
    from . import homology

    return _shape_answer(homology.hochschild(p, args.degree))


def cmd_hc(p: Prime, args):
    from . import homology

    _cap("--degree", args.degree, HC_MAX_DEGREE, "hc walks a (degree/2+1)-square staircase")
    oracle = homology.hc_oracle(p, args.degree)
    record = shape_record(oracle, _exponent_view)
    lines = [_shape_line(oracle)]
    if args.degree % 2 == 0 and args.degree >= 2:
        closed = homology.hc_closed_form(p, args.degree)
        if closed is None:
            record["closed_form"] = None
            lines.append("closed form: not covered (degree in a gap window)")
        else:
            record["closed_form"] = shape_record(closed, _exponent_view)
            record["agreement"] = closed.shape == oracle.shape
            lines.append(_shape_line(closed))
            lines.append(f"agreement: {record['agreement']}")
    return record, lines, 3 if record.get("agreement") is False else 0


def cmd_hcneg(p: Prime, args):
    from . import homology

    if args.truncation is not None:
        if args.degree < 2 or args.degree % 2:
            raise ValueError(f"--truncation needs an even --degree >= 2, got {args.degree}")
        if args.truncation < 1:
            raise ValueError("truncation must be >= 1")
        _cap("--truncation", args.truncation, HCNEG_MAX_TRUNCATION, "the probe walks a staircase of that size")
    res = homology.hc_neg_closed_form(p, args.degree, _n_max(args))
    if res is None:
        payload = {"theory": "HCneg", "degree": args.degree, "closed_form": None}
        lines = [f"HCneg_{args.degree}: not covered (degree-1 in a gap window)"]
    else:
        payload = shape_record(res, _exponent_view)
        lines = [_shape_line(res)]
    if args.truncation is not None:
        if res is None:
            payload["probe"] = None
            lines.append("truncation probe: not run (no closed form to compare)")
        else:
            probe = homology.hc_neg_truncation_probe(p, args.degree, args.truncation)
            payload["probe"] = {
                "ok": probe.ok,
                "vacuous": probe.vacuous,
                "stable_prefix": Repeats(probe.stable_prefix),
                "covered_up_to": probe.covered_up_to,
                "method": "stabilized",
            }
            lines.append(f"truncation probe: ok={probe.ok} ({probe.details})")
    return payload, lines, 0


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


def cmd_hp(p: Prime, args):
    from . import homology

    return _shape_answer(homology.hp(p, args.degree, _n_max(args)))


def cmd_zsets(p: Prime, args):
    _cap("--max", args.max, ZSETS_MAX, "zsets lists every member")
    members = Members(gaps.member_mask(p, args.max, symmetric=args.set == "z2"))
    payload = {
        "set": args.set,
        "prime": args.prime,
        "max": args.max,
        "members": members,
        "note": "1 is a member by definition; informal listings often omit it",
    }
    return payload, _members_lines(args, members), 0


def _members_lines(args, members: Members):
    """The table of ``zsets``, made only if it is written: its header
    counts the members."""
    yield f"{args.set} up to {args.max} for p={args.prime} ({members.mask.count(1)} elements):"
    yield members.chunks(" ")


def cmd_density(p: Prime, args):
    _cap("--max", args.max, DENSITY_MAX, "density sieves every odd number up to --max")
    rep = gaps.density_bounds(p, args.max)
    payload = {
        "prime": rep.p,
        "max": rep.upper,
        "empirical_z1": str(rep.empirical_z1),
        "empirical_z2": str(rep.empirical_z2),
        "empirical_z1_float": float(rep.empirical_z1),
        "empirical_z2_float": float(rep.empirical_z2),
        "bound_z1": _float_down(rep.bound_z1),
        "bound_z2": _float_down(rep.bound_z2),
        "bound_z1_asymptotic": _float_down(rep.bound_z1_asymptotic),
        "bound_z2_asymptotic": _float_down(rep.bound_z2_asymptotic),
        "bound_z1_geometric": _float_down(rep.bound_z1_geometric),
        "bound_z2_geometric": _float_down(rep.bound_z2_geometric),
        "lambda": str(rep.lam),
    }
    lines = [
        f"densities up to {rep.upper} for p={rep.p}:",
        f"  Z1: empirical {float(rep.empirical_z1):.6f} >= bound {_decimals_down(rep.bound_z1)}"
        f" (asymptotic {_decimals_down(rep.bound_z1_asymptotic)})",
        f"  Z2: empirical {float(rep.empirical_z2):.6f} >= bound {_decimals_down(rep.bound_z2)}"
        f" (asymptotic {_decimals_down(rep.bound_z2_asymptotic)})",
    ]
    return payload, lines, 0


def _float_down(bound) -> float:
    """The largest float <= the rational bound, so a printed lower bound is
    one too: float() rounds to nearest, which may round up."""
    f = float(bound)
    return nextafter(f, -inf) if f > bound else f


def _decimals_down(bound) -> str:
    """The rational bound rounded down to 6 decimals."""
    return f"{floor(bound * 10**6) / 10**6:.6f}"


def cmd_coeffs(p: Prime, args):
    from . import homology

    j, i = args.j, args.i
    _cap("--j", j, COEFFS_MAX, "coeffs prints about j^2 digits")
    # The largest odd j, a valid --j, with j^2 * max(bits of p, 10) <= COEFFS_MAX^2 * 10.
    ceiling = (isqrt(COEFFS_MAX**2 * 10 // max(p.p.bit_length(), 10)) - 1) | 1
    _cap(f"--j at p = {p.p}", j, ceiling, "coeffs prints about j^2 log p digits")
    _cap("--i", i, COEFFS_MAX, "coeffs prints a row per odd n <= i")
    head, head_valuation, rows = homology.phi_coeff_texts(p, j, i)
    # Both are lazy, and only the one the format writes reads the rows.
    payload = {
        "prime": args.prime,
        "j": j,
        "i": i,
        "head": head,
        "head_valuation": head_valuation,
        "rows": Rows({"modulus": n, "value": value, "valuation": v} for n, value, v in rows),
    }
    lines = chain(
        [f"generator {j} in colimit {i}: head {head} (v={head_valuation})"],
        ((f"  R/{n}: ", *value) for n, value, _ in rows),
    )
    return payload, lines, 0


def cmd_verify(p: Prime, args):
    from . import homology

    if args.hc_max < 2 or args.hc_max % 2:
        raise ValueError(f"--hc-max must be even and >= 2, got {args.hc_max}")
    _cap("--hc-max", args.hc_max, VERIFY_MAX_HC, "verify runs the oracle at every even degree up to --hc-max")
    checks = list(homology.verify_checks(p, args.hc_max))
    failures = [check.name for check in checks if not check.ok]
    payload = {"prime": args.prime, "failures": failures, "checks": Rows(map(homology.Check._asdict, checks))}
    lines = (
        ("ok   " if check.ok else "FAIL ") + (f"{check.name}: {check.detail}" if check.detail else check.name)
        for check in checks
    )
    return payload, chain(lines, [f"{len(failures)} failure(s)"]), 3 if failures else 0


Option = namedtuple("Option", "flag type required default choices help", defaults=(str, False, None, None, None))
Option.__doc__ = """One ``--flag value`` of a command: the value's type, whether it must
be given, its default when it is not, the values it may take (None for
any) and its help text."""


_COMMON = (
    Option("--prime", int, required=True, help="odd prime p"),
    Option("--format", choices=("table", "json", "csv"), default="table"),
    Option("--out", help="write output to this file instead of stdout"),
)
_DEGREE = Option("--degree", int, required=True)
_N_MAX = Option("--n-max", int, help="odd display cutoff for the product factors")

# The grammar: command -> (handler, help, options), in the order of the
# help text.  Both parsers read it, and nothing else holds a flag.
GRAMMAR = {
    "hh": (cmd_hh, "Hochschild homology in one degree", (*_COMMON, _DEGREE)),
    "hc": (cmd_hc, "cyclic homology in one degree (oracle + closed form)", (*_COMMON, _DEGREE)),
    "hcneg": (
        cmd_hcneg,
        "negative cyclic homology closed form",
        (*_COMMON, _DEGREE, _N_MAX, Option("--truncation", int, help="also run the truncation probe at this size")),
    ),
    "hp": (cmd_hp, "periodic homology closed form", (*_COMMON, _DEGREE, _N_MAX)),
    "zsets": (
        cmd_zsets,
        "enumerate the window-free index sets",
        (*_COMMON, Option("--max", int, required=True), Option("--set", choices=("z1", "z2"), default="z1")),
    ),
    "density": (
        cmd_density,
        "empirical densities with proven lower bounds",
        (*_COMMON, Option("--max", int, required=True)),
    ),
    "coeffs": (
        cmd_coeffs,
        "staircase generator coefficients",
        (
            *_COMMON,
            Option("--j", int, required=True, help="odd generator index"),
            Option("--i", int, required=True, help="odd colimit top index >= j"),
        ),
    ),
    "verify": (
        cmd_verify,
        "run the full cross-check suite",
        (*_COMMON, Option("--hc-max", int, default=40, help="largest cyclic degree checked")),
    ),
}


def _fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, when argv
    is ``COMMAND --flag value ...`` with each flag one of the command's in
    full, given once, and no value starting with "-"; None for any other
    argv, or a value argparse would refuse.  It never prints or exits."""
    if not argv or argv[0] not in GRAMMAR:
        return None
    func, _, options = GRAMMAR[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) + 1 != len(argv):  # a flag given twice, or without a value
        return None
    args = {"command": argv[0], "func": func}
    for opt in options:
        text = given.pop(opt.flag, None)
        if text is None:
            if opt.required:
                return None
            value = opt.default
        else:
            if text.startswith("-"):
                return None
            try:
                value = opt.type(text)
            except ValueError:
                return None
            if opt.choices is not None and value not in opt.choices:
                return None
        args[opt.flag[2:].replace("-", "_")] = value
    return None if given else SimpleNamespace(**args)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``GRAMMAR``, which writes the help and
    refuses what it cannot parse with exit 2."""
    import argparse

    def int_flag(text: str) -> int:
        # int, but argparse's refusal of a value past Python's int-to-str
        # limit would echo every digit: this one names the limit instead.
        try:
            return int(text)
        except ValueError:
            digits = text.strip().lstrip("+-").replace("_", "")
            limit = sys.get_int_max_str_digits()
            if digits.isdecimal() and len(digits) > limit > 0:
                raise argparse.ArgumentTypeError(
                    f"{len(digits)} digits, past Python's int-to-str limit of {limit}"
                    " (PYTHONINTMAXSTRDIGITS=0 lifts it)"
                ) from None
            raise

    parser = argparse.ArgumentParser(
        prog="cychom",
        description="Exact homology calculator for the universal dga killing an odd prime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, options) in GRAMMAR.items():
        sp = sub.add_parser(command, help=help_text)
        # A usage error still names the type "int", not the function.
        sp.register("type", int, int_flag)
        for opt in options:
            sp.add_argument(
                opt.flag, type=opt.type, required=opt.required, default=opt.default, choices=opt.choices, help=opt.help
            )
        sp.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv) or build_parser().parse_args(argv)
    try:
        payload, lines, code = args.func(Prime(args.prime), args)
        _emit(payload, args.format, args.out, lines)
        return code
    except (ValueError, OSError) as exc:
        # A precondition failed, or the output could not be opened or written;
        # then what stdout still buffers goes to devnull, not to an error at exit.
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OSError) and not args.out:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MemoryError:
        # The answer is too large to make in the memory this process has.
        print("error: out of memory", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # The engine raises ArithmeticError when its two routes disagree or
        # an exactness guard trips.
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> NoReturn:
    """Run ``main`` on ``sys.argv`` as a process, and exit with its code.

    However ``main`` ends, by its return or by argparse's SystemExit for
    help and usage errors, the collector is frozen first: ``gc.freeze``
    moves every tracked object to the permanent generation, which the
    interpreter's shutdown neither collects nor frees, so the OS takes the
    pages back.  The streams are still flushed and atexit handlers still
    run, which ``os._exit`` would skip for about 1 ms more.  What this
    saves grows with what start-up loaded: where ``site`` imports about
    100 modules (a ``.pth`` file importing ``certifi``), a query's
    shutdown fell from 10-14 to 2.5-4 ms of CPU, and a query takes 4-11 ms
    less.  A caller that lives on, such as a test suite calling ``main``,
    keeps collecting.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
