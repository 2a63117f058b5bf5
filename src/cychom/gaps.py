"""Gap windows around multiples of p, the index sets Z1/Z2, and density bounds.

For an odd n divisible by p, the gap g(n) is the largest even j with
b_j < v_p(n); it depends only on v_p(n).  Around every odd positive
multiple n of p sits an exclusion window: [n, n+g(n)] one-sided, or
[n-g(n), n+g(n)] symmetric.  Z1 (resp. Z2) is the set of odd positive
integers hit by no one-sided (resp. symmetric) window; these are exactly
the degrees where the cyclic (resp. negative cyclic) homology of the
universal dga admits a closed-form decomposition.

Note on 1: no window can reach down to 1 (windows have radius
g(n) < (p^{v_p(n)}-1)/2), so 1 belongs to both sets even though informal
listings of Z1/Z2 often start at the first element above p.

Membership of one i is a scan of the windows near i.  Enumeration and
the density counts use a sieve instead: g is nondecreasing in v_p(n), so
every odd multiple of p^v carries at least the offsets |d| <= g(p^v), and
each such offset is one stride-2p^v slice assignment over the whole range.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import compress

from .padic import Prime, b_val, vp

# g(p^a) keyed by (p, a); g(n) = g(p^{v_p(n)}).
_GAP_CACHE: dict[tuple[int, int], int] = {}


def _gap_for_valuation(p: Prime, v: int) -> int:
    key = (p.p, v)
    if key not in _GAP_CACHE:
        # b_j > j(2p-3)/(2p-2) for even j >= 2, so b_j < v forces
        # j < v(2p-2)/(2p-3); scanning to that point is exhaustive.
        limit = v * (2 * p.p - 2) // (2 * p.p - 3) + 2
        best = 0
        for j in range(0, limit + 1, 2):
            if b_val(p, j) < v:
                best = j
        _GAP_CACHE[key] = best
    return _GAP_CACHE[key]


def gap(p: Prime, n: int) -> int:
    """g(n): the largest even j with b_j < v_p(n), for n a multiple of p.

    >>> gap(Prime(3), 729)
    6
    """
    if n < 1 or n % p.p != 0:
        raise ValueError("g defined only for positive multiples of p")
    return _gap_for_valuation(p, vp(p, n))


class GapWindow(namedtuple("GapWindow", "n g")):
    """The exclusion window attached to one odd multiple of p."""

    __slots__ = ()

    @property
    def z1_interval(self) -> tuple[int, int]:
        return (self.n, self.n + self.g)

    @property
    def z2_interval(self) -> tuple[int, int]:
        return (self.n - self.g, self.n + self.g)


def gap_window(p: Prime, n: int) -> GapWindow:
    if n % 2 == 0:
        raise ValueError("windows are attached to odd multiples of p")
    return GapWindow(n, gap(p, n))


def _max_gap_below(p: Prime, i: int) -> int:
    # Largest g(n) possible for odd multiples n <= i.
    best = 0
    a = 1
    q = p.p
    while q <= i:
        best = max(best, _gap_for_valuation(p, a))
        a += 1
        q *= p.p
    return best


def _upper_scan_radius(p: Prime, i: int) -> int:
    # A window centered at n > i reaches i only if n - i <= g(n).  Since
    # g(p^a) < a(2p-2)/(2p-3) <= 2a and p^{v_p(n)} <= n, any such n has
    # p^{v_p(n)} <= i + 2*v_p(n); the smallest k with p^k > i + 2k caps
    # v_p(n), hence the reach.
    k = 1
    while p.p**k <= i + 2 * k:
        k += 1
    return 2 * k


def _largest_odd_multiple_leq(p: Prime, i: int) -> int:
    m = i - (i % p.p)
    if m % 2 == 0:
        m -= p.p
    return m


def _hit_from_below(p: Prime, i: int) -> bool:
    # Any window starting at n <= i that reaches i has g(n) >= i - n, and
    # g(n) <= _max_gap_below(p, i), so the scan below is exhaustive.
    n = _largest_odd_multiple_leq(p, i)
    floor = max(p.p, i - _max_gap_below(p, i))
    while n >= floor:
        if i - n <= gap(p, n):
            return True
        n -= 2 * p.p
    return False


def in_z1(p: Prime, i: int) -> bool:
    """True iff no window [n, n+g(n)] contains the odd integer i."""
    if i < 1 or i % 2 == 0:
        raise ValueError(f"Z1 contains only odd positive integers, got {i}")
    if i % p.p == 0:
        return False
    return not _hit_from_below(p, i)


def in_z2(p: Prime, i: int) -> bool:
    """True iff no window [n-g(n), n+g(n)] contains the odd integer i."""
    if i < 1 or i % 2 == 0:
        raise ValueError(f"Z2 contains only odd positive integers, got {i}")
    if i % p.p == 0:
        return False
    if _hit_from_below(p, i):
        return False
    # Windows centered above i.
    n = _largest_odd_multiple_leq(p, i) + 2 * p.p
    top = i + _upper_scan_radius(p, i)
    while n <= top:
        if n - i <= gap(p, n):
            return False
        n += 2 * p.p
    return True


def _excluded_sieve(p: Prime, upper: int, symmetric: bool) -> bytearray:
    """Mark every odd i <= upper lying in some window; index i -> flag.

    A window of an odd multiple n of p^v holds n + d for every even
    |d| <= g(p^v) (d >= 0 one-sided), because g(n) = g(p^{v_p(n)}) >= g(p^v).
    So level v marks each offset d once, over all odd multiples of p^v at
    once, by one slice of stride 2p^v.  Offsets |d| <= g(p^{v-1}) were
    marked at level v-1 over a superset, so each level adds only its new
    offsets.
    """
    marked = bytearray(upper + 1)
    n_top = upper if not symmetric else upper + _upper_scan_radius(p, upper)
    q, v, done = p.p, 1, -2
    while q <= n_top:
        g = _gap_for_valuation(p, v)
        for d in range(done + 2, g + 1, 2):
            for start in (q + d, q - d) if symmetric and d else (q + d,):
                marked[start :: 2 * q] = b"\x01" * len(range(start, upper + 1, 2 * q))
        done = g
        q, v = q * p.p, v + 1
    return marked


# Maps a sieve byte to "unmarked": 0 -> 1, 1 -> 0.
_UNMARKED = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def member_mask(p: Prime, upper: int, symmetric: bool) -> bytearray:
    """The odd-index mask of Z1 (symmetric=False) or Z2 (symmetric=True)
    up to upper: byte k is 1 iff 2k+1 is a member.

    >>> list(member_mask(Prime(3), 11, symmetric=False))
    [1, 0, 1, 1, 0, 1]
    """
    if upper < 1:
        raise ValueError("upper bound must be >= 1")
    return _excluded_sieve(p, upper, symmetric)[1::2].translate(_UNMARKED)


def enumerate_z1(p: Prime, upper: int) -> list[int]:
    """All elements of Z1 up to upper, ascending."""
    return list(compress(range(1, upper + 1, 2), member_mask(p, upper, symmetric=False)))


def enumerate_z2(p: Prime, upper: int) -> list[int]:
    """All elements of Z2 up to upper, ascending."""
    return list(compress(range(1, upper + 1, 2), member_mask(p, upper, symmetric=True)))


class DensityReport(
    namedtuple(
        "DensityReport",
        "p upper empirical_z1 empirical_z2 bound_z1 bound_z2 bound_z1_asymptotic"
        " bound_z2_asymptotic bound_z1_geometric bound_z2_geometric lam",
    )
):
    """Empirical Z1/Z2 densities up to N against rigorous lower bounds.

    p and upper are integers; every other field is an exact rational.
    ``bound_*`` use the exact minimal exponents e_k (the least e with
    g(p^e) >= k) for every window size k; ``bound_*_geometric`` replace
    the k >= 6 terms by the geometric overestimate p^{-lam*k}, which is
    simpler but strictly weaker.  The ``*_asymptotic`` variants drop the
    finite-N correction, giving the N -> infinity limit of each bound.
    """

    __slots__ = ()


def _iroot_floor(n: int, d: int) -> int:
    """floor(n ** (1/d)) for nonnegative integers, exactly.

    Integer Newton reaches the floor root from any seed above it, but
    while x^d is far above n each step shrinks x only by a factor
    (1 - 1/d).  So the seed is r + 1 shifted left by s, with r the root
    of the top bits n >> ds: it exceeds the root by a relative 1/r, below
    1/d, and from there Newton converges quadratically.  Short roots, of
    at most 2 bitlen(d) + 2 bits, are found by bisection.
    """
    if n < 0 or d < 1:
        raise ValueError("iroot needs n >= 0, d >= 1")
    k = -(-n.bit_length() // d)  # the root is below 2^k
    if k <= 2 * d.bit_length() + 2:
        lo, hi = 0, 1 << k  # lo^d <= n < hi^d
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mid**d <= n:
                lo = mid
            else:
                hi = mid
        return lo
    s = k // 2
    # (r+1)^d > n >> ds for r the root of the top bits, so x^d > n.
    x = (_iroot_floor(n >> (d * s), d) + 1) << s
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            break
        x = y
    return x


def _pow_upper(p: int, exponent: Fraction) -> Fraction:
    """A rational upper bound for p^(-exponent), exponent > 0."""
    m, d = exponent.numerator, exponent.denominator
    root = _iroot_floor(p**m, d)  # root <= p^(m/d)
    return Fraction(1, root)


def _exact_exponent(p: Prime, k: int) -> int:
    """The least e with g(p^e) >= k, i.e. 1 + min over even j >= k of b_j."""
    lam = Fraction(2 * p.p - 3, 2 * p.p - 2)
    best = b_val(p, k)
    j = k + 2
    # b_j > lam*j, so once lam*j >= best no later j can improve the minimum.
    while lam * j < best:
        best = min(best, b_val(p, j))
        j += 2
    return best + 1


def _tail_sum(p: Prime, exact: bool) -> Fraction:
    """Upper bound for the sum over even k >= 6 of p^{-e_k} terms.

    With exact=True the terms use the true exponents e_k; otherwise the
    geometric overestimate p^{-lam*k}.  Either way the value returned is
    an exact rational >= the true series, so subtracting it preserves the
    lower-bound direction.
    """
    lam = Fraction(2 * p.p - 3, 2 * p.p - 2)
    total = Fraction(0)
    k_stop = 60
    for k in range(6, k_stop, 2):
        if exact:
            total += Fraction(1, p.p ** _exact_exponent(p, k))
        else:
            total += _pow_upper(p.p, lam * k)
    # Geometric remainder: terms from k_stop on are <= u * r^j.
    u = _pow_upper(p.p, lam * k_stop)
    r = _pow_upper(p.p, 2 * lam)
    return total + u / (1 - r)


def density_bounds(p: Prime, upper: int) -> DensityReport:
    """Empirical densities of Z1 and Z2 up to upper, with proven bounds.

    The empirical counts are the unmarked odd indices of the window
    sieve, counted without building the member lists; every bound field
    is a certified lower bound for the corresponding density (the series
    tails and logarithms are rounded in the safe direction).
    """
    if upper < 1:
        raise ValueError("upper bound must be >= 1")
    pk = p.p
    lam = Fraction(2 * pk - 3, 2 * pk - 2)
    x_count = (upper + 1) // 2
    emp1 = Fraction(x_count - _excluded_sieve(p, upper, symmetric=False).count(1), x_count)
    emp2 = Fraction(x_count - _excluded_sieve(p, upper, symmetric=True).count(1), x_count)
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
    sharp = Fraction(1, pk**3) + Fraction(1, pk**5) + _tail_sum(p, exact=True)
    geometric = Fraction(1, pk**3) + Fraction(1, pk**5) + _tail_sum(p, exact=False)
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
