"""Seeded query lists for the two workloads, and the check of every answer.

A query is what one user runs: one ``cychom`` command line, or for closed
forms the library entry point in ``child.py`` (the CLI has no closed-form-only
HC command).  Lists are stratified: each range is cut into equal slices,
the seed draws one value inside each slice but the last, and the last is
the top of the range.  So every seed gets the same mix of small and large
inputs, the largest input (which sets peak memory) is always there, and
the cost of a list barely moves with the seed.

The counts below are for a 60-second run on a 2-core Intel Xeon; ``size``
scales them (``--seconds / 60``), keeping at least one query per group.
Query costs jump with the degree (a covered degree also runs the closed
form), so a list's median can fall into a gap between cost clusters.  The
counts were picked by simulating thousands of seeds on a table of measured
query costs, so that the median and the tail of a list move little with the
seed.

Every check rests on an invariant that does not trust the route under
test, so a wrong answer counts as a failed query.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Query:
    kind: str  # "cli": ``python3 -m cychom ARGS``; "closed-form": ``child.py closed-form ARGS``
    args: tuple[str, ...]

    def to_json(self) -> dict:
        return {"kind": self.kind, "args": list(self.args)}

    @classmethod
    def from_json(cls, obj: dict) -> "Query":
        return cls(obj["kind"], tuple(obj["args"]))


def _strata(rng: random.Random, lo: int, hi: int, k: int, parity: int | None = None) -> list[int]:
    """One value per slice of k equal slices of [lo, hi], with the given
    parity; the last value is hi itself."""
    out = []
    for s in range(k):
        a = lo + (hi - lo) * s // k
        b = lo + (hi - lo) * (s + 1) // k
        v = rng.randint(a, b) if s < k - 1 else b
        if parity is not None and v % 2 != parity:
            v = v + 1 if v + 1 <= b else v - 1
        out.append(v)
    return out


def _cli(*args) -> Query:
    return Query("cli", tuple(str(a) for a in args))


def _spread(rng: random.Random, lo: int, hi: int, labels: list, count: int, parity: int | None = None) -> list[tuple]:
    """Pair ``count`` labels, cycling, with one value each from its own
    slice of [lo, hi].

    The labels are primes, so every prime spans the whole range and the
    slices stay narrow.
    """
    cycled = [labels[i % len(labels)] for i in range(count)]
    return list(zip(cycled, _strata(rng, lo, hi, count, parity)))


def _scaled(count: int, size: float) -> int:
    return max(1, round(count * size))


def oracle(rng: random.Random, size: float, tiny: bool) -> list[Query]:
    """The SNF oracle: ``hc`` at the degrees where it hits its wall, and
    ``verify``, which runs hundreds of small SNFs."""
    lo, hi = (20, 40) if tiny else (200, 400)
    pairs = _spread(rng, lo, hi, [3, 5, 7], _scaled(14, size), 0)
    # Odd degrees take the rank-only path.
    pairs += _spread(rng, lo, hi - 1, [3, 5, 7], _scaled(4, size), 1)
    # p = 101 gives large matrix entries.
    pairs += _spread(rng, *((10, 20) if tiny else (100, 200)), [101], _scaled(3, size), 0)
    qs = [_cli("hc", "--prime", p, "--degree", d, "--format", "json") for p, d in pairs]
    # connes_length_check needs an even --hc-max.
    lo, hi = (10, 20) if tiny else (80, 120)
    pairs = _spread(rng, lo, hi, [3, 11, 5, 7], _scaled(8, size), 0)
    qs += [_cli("verify", "--prime", p, "--hc-max", h, "--format", "json") for p, h in pairs]
    rng.shuffle(qs)
    return qs


def sieve_valuations(rng: random.Random, size: float, tiny: bool) -> list[Query]:
    """The gap sieve (``density``, ``zsets``) and the p-adic valuations
    (closed forms at huge degrees, ``coeffs``): no SNF call at all."""
    scale = 100 if tiny else 1
    pairs = _spread(rng, 1_500_000 // scale, 2_500_000 // scale, [5, 3], _scaled(11, size))
    qs = [_cli("density", "--prime", p, "--max", n, "--format", "json") for p, n in pairs]
    kinds = [(3, "z1"), (5, "z2"), (5, "z1"), (3, "z2")]
    qs += [
        _cli("zsets", "--prime", p, "--max", n, "--set", which, "--format", "json")
        for (p, which), n in _spread(rng, 900_000 // scale, 1_100_000 // scale, kinds, _scaled(8, size))
    ]
    scale = 1000 if tiny else 1
    pairs = _spread(rng, 200_000 // scale, 2_000_000 // scale, [5, 11, 7], _scaled(10, size), 0)
    qs += [Query("closed-form", ("--prime", str(p), "--degree", str(d))) for p, d in pairs]
    # Python refuses to print an integer of more than 4300 digits, and coeffs
    # prints A_J and B_{J-1} exactly, so it exits 1 from J = 2999 at p = 5
    # and from J = 3057 at p = 3.  Six slices of 500 from 1001 with the
    # primes taking turns 5, 3, 5, 3, 5, 3 put the threshold of each prime
    # on a slice edge: the p = 5 query in [3001, 3501] and the p = 3 query
    # at J = 4001 fail in every list, and no other query does.  So the
    # count stays six whatever the size.
    lo, hi = (11, 41) if tiny else (1001, 4001)
    pairs = _spread(rng, lo, hi, [5, 3], 2 if tiny else 6, 1)
    qs += [_cli("coeffs", "--prime", p, "--j", j, "--i", j, "--format", "json") for p, j in pairs]
    rng.shuffle(qs)
    return qs


GENERATORS = {
    "oracle": oracle,
    "sieve-valuations": sieve_valuations,
}


def generate(workload: str, seed: int, seconds: float, tiny: bool = False) -> list[Query]:
    return GENERATORS[workload](random.Random(seed), seconds / 60, tiny)


# ---- answer checks ---------------------------------------------------------
#
# check(query, stdout) returns None when the answer holds, else the reason.
# Only answers from exit code 0 reach a check.


def _vp(p: int, n: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _legendre(p: int, m: int) -> int:
    """v_p(m!) = sum of floor(m / p^k)."""
    total, q = 0, p
    while q <= m:
        total += m // q
        q *= p
    return total


def _opt(args: tuple[str, ...], flag: str) -> str:
    return args[args.index(flag) + 1]


def _check_hc_shape(rec: dict, degree: int) -> str | None:
    if degree % 2:
        if rec["torsion_p_exponents"] or rec["free_rank"] or rec["complete_rank"]:
            return f"odd degree {degree} not trivial"
        return None
    # Connes: the total p-length of HC in even degree i is i + 1.
    length = sum(rec["torsion_p_exponents"])
    if rec["free_rank"] or rec["complete_rank"] or length != degree + 1:
        return f"degree {degree}: p-length {length} != {degree + 1}"
    return None


def _check_hc(args, out) -> str | None:
    rec = json.loads(out)
    if "agreement" in rec and rec["agreement"] is not True:
        return "oracle and closed form disagree"
    return _check_hc_shape(rec, int(_opt(args, "--degree")))


def _check_verify(args, out) -> str | None:
    failures = json.loads(out)["failures"]
    return f"{len(failures)} verify failure(s)" if failures else None


def _check_density(args, out) -> str | None:
    rec = json.loads(out)
    e1, e2 = Fraction(rec["empirical_z1"]), Fraction(rec["empirical_z2"])
    if not e2 <= e1 <= 1:
        return "Z2 density above Z1 density or above 1"
    if e1 < Fraction(rec["bound_z1"]) or e2 < Fraction(rec["bound_z2"]):
        return "empirical density below the proven bound"
    return None


def _check_zsets(args, out) -> str | None:
    from cychom import Prime, in_z1, in_z2

    rec = json.loads(out)
    p, top, which = int(_opt(args, "--prime")), int(_opt(args, "--max")), _opt(args, "--set")
    member = in_z1 if which == "z1" else in_z2
    members = rec["members"]
    listed = set(members)
    # Re-decide a seeded sample of listed and unlisted odd numbers with the
    # per-element window scan, which shares no code with the sieve.
    rng = random.Random(" ".join(args))
    sample = rng.sample(members, min(40, len(members)))
    sample += [rng.randrange(1, top + 1, 2) for _ in range(40)]
    prime = Prime(p)
    for i in sample:
        if member(prime, i) != (i in listed):
            return f"{i}: sieve and membership test disagree"
    return None


def _check_coeffs(args, out) -> str | None:
    rec = json.loads(out)
    p, j = int(_opt(args, "--prime")), int(_opt(args, "--j"))
    # A_j = p^j / j!! and v_p(j!!) = v_p(j!) - v_p(((j-1)/2)!), since the even
    # factors of j! are 2^((j-1)/2) ((j-1)/2)!.
    want = j - (_legendre(p, j) - _legendre(p, (j - 1) // 2))
    if rec["head_valuation"] != want:
        return f"head valuation {rec['head_valuation']} != Legendre {want}"
    return None


def _check_closed_form(args, out) -> str | None:
    rec = json.loads(out)
    p, m = int(_opt(args, "--prime")), int(_opt(args, "--degree"))
    if rec["hc"] is not None:
        bad = _check_hc_shape(rec["hc"], m)
        if bad:
            return bad
    neg = rec["hcneg"]
    if neg is not None:
        want = sorted((e for e in (_vp(p, n) for n in range(m - 1, neg["n_max"] + 1, 2)) if e), reverse=True)
        if neg["torsion_p_exponents"] != want or neg["complete_rank"] != 1:
            return "HC- closed form does not match R^ x R/(m-1) x R/(m+1) x ..."
    return None


CHECKS = {
    "hc": _check_hc,
    "verify": _check_verify,
    "density": _check_density,
    "zsets": _check_zsets,
    "coeffs": _check_coeffs,
    "closed-form": _check_closed_form,
}


def check(query: Query, out: str) -> str | None:
    name = query.args[0] if query.kind == "cli" else query.kind
    try:
        return CHECKS[name](query.args, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable answer: {exc!r}"
