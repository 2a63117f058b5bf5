"""Gap windows around multiples of p, the index sets Z1/Z2, and density bounds.

For an odd n divisible by p, the gap g(n) is the largest even j with
b_j < v_p(n); it depends only on v_p(n).  Around every odd positive
multiple n of p sits an exclusion window: [n, n+g(n)] one-sided, or
[n-g(n), n+g(n)] symmetric.  Z1 (resp. Z2) is the set of odd positive
integers hit by no one-sided (resp. symmetric) window; these are exactly
the degrees where the cyclic (resp. negative cyclic) homology of the
universal dga admits a closed-form decomposition.

The level bound: g(p^v) < v(2p-2)/(2p-3) <= 4v/3 < 2v.  For even j,
j!! = 2^(j/2) (j/2)!, so b_j = j - v_p((j/2)!).  Legendre's formula
v_p(m!) = (m - s_p(m))/(p-1), s_p(m) >= 1 the base-p digit sum of m >= 1,
gives v_p(m!) < m/(p-1), so b_j > j(2p-3)/(2p-2) for every even j >= 2.
So b_j < v forces j < v(2p-2)/(2p-3), and the factor (2p-2)/(2p-3) is
at most 4/3, its value at p = 3.  So a window of level v has radius
below 2v, and the sieve stops on it.

Note on 1: no window can reach down to 1 (windows have radius
g(n) < 2v_p(n) <= p^{v_p(n)} - 1), so 1 belongs to both sets even though
informal listings of Z1/Z2 often start at the first element above p.

Membership goes level by level, as the sieve clears.  g(n) = g(p^{v_p(n)})
and g(p^v) is nondecreasing in v, so a window holds i exactly when, at
some level v >= 1, the odd multiple of p^v nearest to i (below; for Z2
also above) lies within g(p^v) of i: a window's n is such a multiple at
v = v_p(n), and the nearest one is no farther and has no smaller gap.
The point rule stops at the reach: the first level whose nearest odd
multiple lies 2L or more from i, L = bit_length(i).  That distance never
shrinks with v (odd multiples of p^(v+1) are odd multiples of p^v), and a
level that hits has its multiple within 2v < p^v of i, so positive, and
p^v < i + 2v: so v <= L (past L, p^v >= 3^v > 2^L + 2v), and it hits
within 2v <= 2L.
Enumeration and the density counts start from a byte per odd integer,
all members, and clear each offset |d| <= g(p^v) of each level by one
strided slice, written in bounded pieces: what stays set is the set.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import floor

from .padic import Prime, b_val, vp


def _gap_for_valuation(p: Prime, v: int) -> int:
    """g(p^v), which is g(n) for every n with v_p(n) = v."""
    # Past the level bound (module docstring) no b_j is below v.
    limit = v * (2 * p.p - 2) // (2 * p.p - 3) + 2
    best = 0
    for j in range(0, limit + 1, 2):
        if b_val(p, j) < v:
            best = j
    return best


def gap(p: Prime, n: int) -> int:
    """g(n): the largest even j with b_j < v_p(n), for n a multiple of p.

    >>> gap(Prime(3), 729)
    6
    """
    if n < 1 or n % p.p != 0:
        raise ValueError("g defined only for positive multiples of p")
    return _gap_for_valuation(p, vp(p, n))


def _hit(p: Prime, i: int, symmetric: bool) -> bool:
    """Whether some window holds the odd integer i (symmetric: Z2's
    windows), by the module's level rule, stopped at its reach 2L."""
    if i < 1 or i % 2 == 0:
        raise ValueError(f"Z{2 if symmetric else 1} contains only odd positive integers, got {i}")
    q, v, d, reach = p.p, 1, 0, 2 * i.bit_length()
    while d < reach:
        # Odd multiples of q are = q mod 2q (d = i + q: none below i).
        d = (i - q) % (2 * q)
        if symmetric:
            d = min(d, (q - i) % (2 * q))
        if d < 2 * v and d <= _gap_for_valuation(p, v):
            return True
        q, v = q * p.p, v + 1
    return False


def in_z1(p: Prime, i: int) -> bool:
    """True iff no window [n, n+g(n)] contains the odd integer i."""
    return not _hit(p, i, symmetric=False)


def in_z2(p: Prime, i: int) -> bool:
    """True iff no window [n-g(n), n+g(n)] contains the odd integer i."""
    return not _hit(p, i, symmetric=True)


_ZEROS = bytes(1 << 16)


def _mark(members: bytearray, p: Prime, upper: int, signs: tuple[int, ...]) -> bytearray:
    """Clear in ``members``, a byte per odd i <= upper (byte k for 2k+1),
    every odd multiple n of p^v shifted by s*d, for each s in signs (+1:
    n + d; -1: n - d, d > 0) and each offset d of each level v: the
    one-sided windows with signs (1,), the symmetric ones with (1, -1).

    A window of an odd multiple n of p^v holds n + d for every even
    |d| <= g(p^v) (d >= 0 one-sided), because g(n) = g(p^{v_p(n)}) >= g(p^v).
    So level v clears each offset d once, over all odd multiples of p^v
    at once, by one slice (odd integers 2p^v apart are p^v bytes apart),
    written in pieces from ``_ZEROS``: no zero buffer a p-th the mask's size.
    Offsets |d| <= g(p^{v-1}) were cleared at level v-1 over a superset,
    so each level adds only its new offsets.  Levels with p^v > upper
    clear nothing above their multiples, and nothing below once
    p^v > upper + 2v, by the level bound g(p^v) < 2v.
    """
    q, v, done = p.p, 1, -2
    while q <= upper + (2 * v if -1 in signs else 0):
        g = _gap_for_valuation(p, v)
        for d in range(done + 2, g + 1, 2):
            for s in signs:
                if s > 0 or d:
                    k = (q + s * d) // 2
                    for at in range(k, len(members), q * len(_ZEROS)):
                        n = min(len(_ZEROS), len(range(at, len(members), q)))
                        members[at : at + q * n : q] = _ZEROS[:n]
        done = g
        q, v = q * p.p, v + 1
    return members


def member_mask(p: Prime, upper: int, symmetric: bool) -> bytearray:
    """The odd-index mask of Z1 (symmetric=False) or Z2 (symmetric=True)
    up to upper: byte k is 1 iff 2k+1 is a member.  It is the sieve
    itself: every byte set, then each window's offsets cleared.

    >>> list(member_mask(Prime(3), 11, symmetric=False))
    [1, 0, 1, 1, 0, 1]
    """
    if upper < 1:
        raise ValueError("upper bound must be >= 1")
    return _mark(bytearray(b"\x01") * ((upper + 1) // 2), p, upper, (1, -1) if symmetric else (1,))


def enumerate_z1(p: Prime, upper: int) -> list[int]:
    """All elements of Z1 up to upper, ascending."""
    return list(compress(range(1, upper + 1, 2), member_mask(p, upper, symmetric=False)))


def enumerate_z2(p: Prime, upper: int) -> list[int]:
    """All elements of Z2 up to upper, ascending."""
    return list(compress(range(1, upper + 1, 2), member_mask(p, upper, symmetric=True)))


DensityReport = namedtuple(
    "DensityReport",
    "p upper empirical_z1 empirical_z2 bound_z1 bound_z2 bound_z1_asymptotic"
    " bound_z2_asymptotic bound_z1_geometric bound_z2_geometric lam",
)
DensityReport.__doc__ = """Empirical Z1/Z2 densities up to N against rigorous lower bounds.

p and upper are integers; every other field is an exact rational.
``bound_*`` use the exact minimal exponents e_k (the least e with
g(p^e) >= k) for every window size k; ``bound_*_geometric`` take the
k >= 6 terms at the level bound e_k >= floor(lam*k) + 2 instead, which
needs no e_k but is weaker.  The ``*_asymptotic`` variants drop the
finite-N correction, giving the N -> infinity limit of each bound.
"""


def _tail_sums(p: Prime, lam: Fraction) -> tuple[Fraction, Fraction]:
    """Upper bounds for the sum over even k >= 6 of p^{-e_k}: with the
    true exponents e_k, the first level v with g(p^v) >= k (gaps never
    fall as v rises), and with their level bound floor(lam*k) + 2.

    Each is an exact rational >= its series, so subtracting it preserves
    the lower-bound direction.  By the level bound (module docstring),
    b_j > lam*j >= lam*k for even j >= k, so e_k = 1 + min b_j >=
    floor(lam*k) + 2; and 2 lam >= 3/2, so that floor grows by at least
    1 with each step of 2 in k.  Both take the same remainder: the terms
    from k = 60 on are at most p^-f, p^-(f+1), ..., f = floor(60 lam) + 2,
    which sum to 1/(p^(f-1) (p-1)).
    """
    from fractions import Fraction

    q, v, sharp = p.p, 1, Fraction(0)
    for k in range(6, 60, 2):
        while _gap_for_valuation(p, v) < k:
            v += 1
        sharp += Fraction(1, q**v)
    level = sum(Fraction(1, q ** (floor(lam * k) + 2)) for k in range(6, 60, 2))
    rest = Fraction(1, q ** (floor(lam * 60) + 1) * (q - 1))
    return sharp + rest, level + rest


def density_bounds(p: Prime, upper: int) -> DensityReport:
    """Empirical densities of Z1 and Z2 up to upper, with proven bounds.

    The empirical counts are the members left set in one window sieve,
    counted without building the member lists.  A symmetric window
    [n-g(n), n+g(n)] holds the one-sided [n, n+g(n)], so Z2's members are
    a subset of Z1's: the sieve clears the one-sided windows and counts
    Z1, then clears the offsets n - d below each multiple, and the levels
    whose multiples lie past upper but reach below it, and counts Z2.  Every
    bound field is a certified lower bound for the corresponding density
    (the series tails are bounded above by exact rationals, log_p rounded up).
    """
    from fractions import Fraction

    members = member_mask(p, upper, symmetric=False)
    pk = p.p
    lam = Fraction(2 * pk - 3, 2 * pk - 2)
    x_count = (upper + 1) // 2
    emp1 = Fraction(members.count(1), x_count)
    emp2 = Fraction(_mark(members, p, upper, (-1,)).count(1), x_count)
    # ceil(log_p upper) <= L, rounding up keeps the bound valid.
    log_up = 0
    q = 1
    while q < upper:
        q *= pk
        log_up += 1
    correction = (log_up + 1) / (lam * x_count)
    # Z1 (weight 1) and Z2 (weight 2) lose the same series, weighted:
    # 1 - 1/p - w (p^-3 + p^-5 + tail + correction).
    base = 1 - Fraction(1, pk)
    sharp, geometric = (Fraction(1, pk**3) + Fraction(1, pk**5) + tail for tail in _tail_sums(p, lam))
    return DensityReport(
        p=pk,
        upper=upper,
        empirical_z1=emp1,
        empirical_z2=emp2,
        bound_z1=base - (sharp + correction),
        bound_z2=base - 2 * (sharp + correction),
        bound_z1_asymptotic=base - sharp,
        bound_z2_asymptotic=base - 2 * sharp,
        bound_z1_geometric=base - (geometric + correction),
        bound_z2_geometric=base - 2 * (geometric + correction),
        lam=lam,
    )
