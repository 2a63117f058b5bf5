"""Exact p-adic valuations and the two coefficient recursions.

Everything here is exact integer/rational arithmetic.  The two rational
sequences

    A(1) = p,  A(j) = p^2 * A(j-2) / j   for odd  j >= 3,
    B(0) = 1,  B(j) = p^2 * B(j-2) / j   for even j >= 2,

are the multipliers that appear when the staircase presentations of the
cyclic complexes are reduced; their p-adic valuations a_j = v_p(A_j) and
b_j = v_p(B_j) control every closed-form decomposition downstream.

In closed form A_j = p^j / j!! and B_j = p^j / j!!.  ``seq_a`` and
``seq_b`` return these Fractions themselves.  They are p-local by
construction, since v_p(j!!) <= v_p(j!) <= j, so each has an image in
every Z/p^e.  Their valuations a_j and b_j follow from Legendre's formula
in O(log j) (``a_val``, ``b_val``); ``vp`` strips p^e from an
integer in O(log e) big-int divisions; ``odd_valuations`` gives the
multiset {v_p(n) : n odd in [lo, hi]}, as a count per valuation, by
counting odd multiples of each p^e, without visiting the n;
``staircase_parts`` writes p^k / k!! in decimal, for k = j and every
k < j of the other parity, from one exact pass, each text made in parts
as it is read (its Decimal context ``_EXACT``, which raises rather than
round, is None until the first call builds it, so only a process that
prints coefficients imports decimal); and ``staircase_residue`` reduces
p^k / k!! modulo a power of p from integers.  Primality of ``Prime`` is
decided by deterministic Miller-Rabin.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import prod


class Prime:
    """An odd prime, validated on construction.

    p = 2 is rejected: the staircase reductions divide by 2, so the whole
    calculator assumes 2 is a unit.

    >>> Prime(3).p
    3
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 3 or not _is_prime(p):
            raise ValueError(f"p must be an odd prime >= 3, got {p!r}")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Prime is immutable")

    def __eq__(self, other):
        return isinstance(other, Prime) and self.p == other.p

    def __hash__(self):
        return hash(("Prime", self.p))

    def __repr__(self):
        return f"Prime({self.p})"


# Miller-Rabin with the prime bases up to 41 has no strong pseudoprime
# below _MR_LIMIT (Sorenson and Webster), so it is exact there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n it cannot decide exactly."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is certified only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def vp(p: Prime, n: int) -> int:
    """Largest e with p^e dividing n.

    An n prime to p costs one remainder, and valuations 1 and 2 one plain
    division by p each.  Past p^2 it divides by p, p^2, p^4, ... while
    they divide, then by the same powers in reverse where they still
    divide: O(log e) big-int divisions.

    The plain divisions serve the oracle's walk, whose staircases' odd
    subdiagonal entries come here one by one: of the odd multiples of p,
    all but 1/p^2 have valuation 1 or 2.  ``hc_oracle(Prime(3), 10**6)``
    takes 0.29 s of CPU with them and 0.33 s without (0.28 and 0.31 s at
    p = 5, the same at p = 101; 2-core Xeon, Python 3.11).

    >>> vp(Prime(3), 54)
    3
    """
    if n == 0:
        raise ValueError("valuation of zero undefined")
    q = p.p
    if n % q:
        return 0
    # Exact floor division keeps the sign, which does not matter here.
    n //= q
    if n % q:
        return 1
    n //= q
    if n % q:
        return 2
    e, w, powers = 2, 1, []
    while n % q == 0:
        n //= q
        e += w
        powers.append((q, w))
        q, w = q * q, 2 * w
    for q, w in reversed(powers):
        if n % q == 0:
            n //= q
            e += w
    return e


def factorial_vp(p: Prime, m: int) -> int:
    """v_p(m!) by Legendre's formula, without forming m!."""
    if m < 0:
        raise ValueError("factorial valuation needs m >= 0")
    total = 0
    q = p.p
    while q <= m:
        total += m // q
        q *= p.p
    return total


def odd_valuations(p: Prime, lo: int, hi: int) -> dict[int, int]:
    """{e: count of the odd n in [lo, hi] with v_p(n) = e} for e >= 1,
    e descending, zero counts dropped.

    The odd multiples of p^e in [lo, hi] are p^e * c for odd c in
    [ceil(lo/p^e), floor(hi/p^e)], so exactly k - k' of the n have
    valuation e, where k and k' count the odd multiples of p^e and
    p^(e+1).  No n is visited; the cost is the number of levels.

    >>> odd_valuations(Prime(3), 1, 27)
    {3: 1, 2: 1, 1: 3}
    >>> odd_valuations(Prime(5), 7, 3)
    {}
    """

    def odd_multiples(q: int) -> int:
        a, b = -(-lo // q), hi // q  # c ranges over [a, b]
        return max(0, (b + 1) // 2 - a // 2)

    counts = []
    q = p.p
    while q <= max(-lo, hi):
        counts.append(odd_multiples(q))
        q *= p.p
    out: dict[int, int] = {}
    above = 0
    for e in range(len(counts), 0, -1):
        if counts[e - 1] > above:
            out[e] = counts[e - 1] - above
        above = counts[e - 1]
    return out


def seq_a(p: Prime, j: int) -> Fraction:
    """The odd-index coefficient A_j = p^j / j!!; always p-local.

    >>> seq_a(Prime(3), 5)
    Fraction(81, 5)
    """
    from fractions import Fraction

    if j < 1 or j % 2 == 0:
        raise ValueError(f"A defined on odd positive indices, got {j}")
    return Fraction(p.p**j, prod(range(j, 0, -2)))


def seq_b(p: Prime, j: int) -> Fraction:
    """The even-index coefficient B_j = p^j / j!!; always p-local.

    >>> seq_b(Prime(3), 2)
    Fraction(9, 2)
    """
    from fractions import Fraction

    if j < 0 or j % 2 == 1:
        raise ValueError(f"B defined on even nonnegative indices, got {j}")
    return Fraction(p.p**j, prod(range(j, 0, -2)))


_EXACT = None  # the exact Decimal context, built by the first staircase_parts


def staircase_parts(p: Prime, j: int) -> Iterator[tuple[str, ...]]:
    """The texts ``str(Fraction(p**k, k!!))`` of X_j, X_{j-1}, X_{j-3}, ...
    in parts: (numerator,) for an integer X_k, else (numerator, "/",
    denominator), so a writer passes the digits on without copying them
    into one text.

    That is X_j, then X_k for every k < j of the other parity, from the
    top down: what column j of the staircase prints (the head, then the
    component at each odd n <= j).

    X_k = p^k / k!! satisfies X_k = p^2 X_{k-2} / k with X_0 = 1 and
    X_1 = p, so X_k = A_k for odd k and B_k for even k.  In lowest terms
    X_k = p^e / d: each step strips the p-part p^w of k, multiplies d by
    k / p^w and adds 2 - w to e.  Numerator and denominator are Decimal
    integers: a product by a small factor and the decimal text take time
    linear in the digits, where CPython's int->str is quadratic.  The chain
    of j's parity is carried along but kept only at k = j.

    Every product is made before this returns, so an inexact one raises
    here.  What is kept is each printed X_k as its Decimal numerator and
    denominator, about 0.42 bytes a digit; the parts come one X_k at a
    time, as they are read, and each X_k is let go once its parts are made.

    >>> list(staircase_parts(Prime(3), 3))
    [('9',), ('9', '/', '2'), ('1',)]
    >>> list(staircase_parts(Prime(3), 4))
    [('81', '/', '8'), ('9',), ('3',)]
    """
    global _EXACT
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded

    if j < 0:
        raise ValueError(f"X defined on nonnegative indices, got {j}")
    if _EXACT is None:
        _EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
    exact = _EXACT
    q = p.p
    # Per parity of k: [e, p^e, d] for the last X_k of that parity.
    chains = [[0, Decimal(1), Decimal(1)], [1, Decimal(q), Decimal(1)]]
    kept = []  # (p^e, d) of each printed X_k, bottom up
    for k in range(j + 1):
        chain = chains[k & 1]
        if k >= 2:
            u, step = k, 2
            while u % q == 0:
                u //= q
                step -= 1
            chain[0] += step
            if step >= 0:
                chain[1] = exact.multiply(chain[1], q**step)
            else:  # p^3 | k; a Decimal division at MAX_PREC would exhaust memory
                chain[1] = exact.power(q, chain[0])
            chain[2] = exact.multiply(chain[2], u)
        if (j - k) & 1 or k == j:
            kept.append((chain[1], chain[2]))
    return (_fraction_parts(*kept.pop()) for _ in range(len(kept)))


def _fraction_parts(numerator: Decimal, denominator: Decimal) -> tuple[str, ...]:
    return (str(numerator),) if denominator == 1 else (str(numerator), "/", str(denominator))


def staircase_residue(p: Prime, k: int, modulus: int) -> int:
    """The image of X_k = p^k / k!! in Z/modulus, for modulus a power of
    p, from integers: k!! = p^e * u with u prime to p, so X_k is p^(k-e)
    times the inverse of u.  It is the image of ``seq_a(p, k)`` or
    ``seq_b(p, k)``, with no Fraction built.

    >>> staircase_residue(Prime(3), 5, 3**6)
    162
    """
    if k < 0:
        raise ValueError(f"X defined on nonnegative indices, got {k}")
    q, e, unit = p.p, 0, 1
    for f in range(k, 0, -2):
        while f % q == 0:
            f //= q
            e += 1
        unit = unit * f % modulus
    return pow(q, k - e, modulus) * pow(unit, -1, modulus) % modulus


def a_val(p: Prime, j: int) -> int:
    """a_j = v_p(A_j) = j - v_p(j!) + v_p(((j-1)/2)!).

    A_j = p^j / j!!, and the even factors of j! are 2^((j-1)/2) ((j-1)/2)!,
    so Legendre's formula gives a_j in O(log j) without forming A_j.

    >>> a_val(Prime(3), 7)
    6
    """
    if j < 1 or j % 2 == 0:
        raise ValueError(f"a defined on odd positive indices, got {j}")
    return j - factorial_vp(p, j) + factorial_vp(p, (j - 1) // 2)


def b_val(p: Prime, j: int) -> int:
    """b_j = v_p(B_j) = j - v_p((j/2)!)."""
    if j < 0 or j % 2 == 1:
        raise ValueError(f"b defined on even nonnegative indices, got {j}")
    return j - factorial_vp(p, j // 2)
