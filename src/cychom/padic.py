"""Exact p-adic valuations and the two coefficient recursions.

Everything here is exact integer/rational arithmetic.  The two rational
sequences

    A(1) = p,  A(j) = p^2 * A(j-2) / j   for odd  j >= 3,
    B(0) = 1,  B(j) = p^2 * B(j-2) / j   for even j >= 2,

are the multipliers that appear when the staircase presentations of the
cyclic complexes are reduced; their p-adic valuations a_j = v_p(A_j) and
b_j = v_p(B_j) control every closed-form decomposition downstream.  Both
sequences are p-local (denominators prime to p), which is re-checked on
construction.

The valuations never walk the index: A_j = p^j / j!! and B_j = p^j / j!!,
so a_j and b_j follow from Legendre's formula in O(log j); ``vp`` strips
p^e from an integer in O(log e) big-int divisions; and
``odd_valuations`` gives the multiset {v_p(n) : n odd in [lo, hi]} by
counting odd multiples of each p^e, without visiting the n.  Primality of
``Prime`` is decided by deterministic Miller-Rabin.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf


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

    def __int__(self):
        return self.p


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

    Divides by p, p^2, p^4, ... while they divide, then by the same powers
    in reverse where they still divide: O(log e) big-int divisions.

    >>> vp(Prime(3), 54)
    3
    """
    if n == 0:
        raise ValueError("valuation of zero undefined")
    q = p.p
    if n % q:
        return 0
    # Exact floor division keeps the sign, which does not matter here.
    e, w, powers = 0, 1, []
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


def odd_valuations(p: Prime, lo: int, hi: int) -> list[int]:
    """v_p(n) for the odd n in [lo, hi], descending, zeros dropped.

    The odd multiples of p^e in [lo, hi] are p^e * c for odd c in
    [ceil(lo/p^e), floor(hi/p^e)], so exactly k - k' of the n have
    valuation e, where k and k' count the odd multiples of p^e and
    p^(e+1).  No n is visited; the cost is the length of the answer.

    >>> odd_valuations(Prime(3), 1, 27)
    [3, 2, 1, 1, 1]
    >>> odd_valuations(Prime(5), 7, 3)
    []
    """

    def odd_multiples(q: int) -> int:
        a, b = -(-lo // q), hi // q  # c ranges over [a, b]
        return max(0, (b + 1) // 2 - a // 2)

    counts = []
    q = p.p
    while q <= max(-lo, hi):
        counts.append(odd_multiples(q))
        q *= p.p
    out: list[int] = []
    above = 0
    for e in range(len(counts), 0, -1):
        out += [e] * (counts[e - 1] - above)
        above = counts[e - 1]
    return out


class PadicRational:
    """A reduced fraction with its p-adic valuation cached.

    The zero element carries valuation +infinity (``math.inf``) so that
    comparisons like ``x.valuation >= e`` behave as expected.
    """

    __slots__ = ("prime", "value", "valuation")

    def __init__(self, prime: Prime, value: Fraction | int):
        frac = Fraction(value)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "value", frac)
        if frac == 0:
            val = inf
        else:
            val = vp(prime, frac.numerator) - vp(prime, frac.denominator)
        object.__setattr__(self, "valuation", val)

    def __setattr__(self, name, value):
        raise AttributeError("PadicRational is immutable")

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def is_p_local(self) -> bool:
        """True iff the denominator is prime to p (the element lies in Z_(p))."""
        return self.value == 0 or vp(self.prime, self.value.denominator) == 0

    def residue(self, modulus: int) -> int:
        """The image in Z/modulus for a p-power modulus.

        Requires the element to be p-local; the denominator is inverted
        mod the modulus.
        """
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        if not self.is_p_local():
            raise ValueError("element is not p-local, no residue exists")
        if self.value == 0:
            return 0
        den = self.value.denominator % modulus
        if gcd(den, modulus) != 1:
            raise ValueError("denominator not invertible mod modulus")
        return (self.value.numerator * pow(den, -1, modulus)) % modulus

    def __eq__(self, other):
        if isinstance(other, PadicRational):
            return self.prime == other.prime and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash((self.prime, self.value))

    def __repr__(self):
        return f"PadicRational(p={self.prime.p}, {self.value})"


# Memo tables keyed by (p, index).  Entries are immutable once written, so
# concurrent duplicated inserts are benign.
_A_CACHE: dict[tuple[int, int], Fraction] = {}
_B_CACHE: dict[tuple[int, int], Fraction] = {}


def seq_a(p: Prime, j: int) -> PadicRational:
    """The odd-index coefficient A_j; always p-local.

    >>> seq_a(Prime(3), 5).value
    Fraction(81, 5)
    """
    if j < 1 or j % 2 == 0:
        raise ValueError(f"A defined on odd positive indices, got {j}")
    key = (p.p, j)
    if key not in _A_CACHE:
        # Fill iteratively from the largest cached index below j.
        k = j
        while k > 1 and (p.p, k) not in _A_CACHE:
            k -= 2
        acc = _A_CACHE.get((p.p, k), Fraction(p.p))
        _A_CACHE[(p.p, 1)] = Fraction(p.p)
        while k < j:
            k += 2
            acc = acc * p.p * p.p / k
            _A_CACHE[(p.p, k)] = acc
    return PadicRational(p, _A_CACHE[key])


def seq_b(p: Prime, j: int) -> PadicRational:
    """The even-index coefficient B_j; always p-local.

    >>> seq_b(Prime(3), 2).value
    Fraction(9, 2)
    """
    if j < 0 or j % 2 == 1:
        raise ValueError(f"B defined on even nonnegative indices, got {j}")
    key = (p.p, j)
    if key not in _B_CACHE:
        k = j
        while k > 0 and (p.p, k) not in _B_CACHE:
            k -= 2
        acc = _B_CACHE.get((p.p, k), Fraction(1))
        _B_CACHE[(p.p, 0)] = Fraction(1)
        while k < j:
            k += 2
            acc = acc * p.p * p.p / k
            _B_CACHE[(p.p, k)] = acc
    return PadicRational(p, _B_CACHE[key])


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
