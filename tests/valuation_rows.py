"""Integer matrices as the valuation routes of ``cychom.linalg`` take them,
and a test-side p-adic valuation of a Fraction.

The tests keep their integer matrices, which ``local_snf`` (in
``tests/local_snf.py``), ``cychom.linalg.snf`` and sympy read, and hand
``cokernel_shape`` and ``staircase_cokernels`` the valuations of the same
entries.

``frac_vp`` is the reference for the Fractions of ``seq_a``, ``seq_b``
and ``phi_coeffs``.  It does not use ``cychom.padic.vp``, which strips p
one division at a time, so it is independent of the package and fast on
numerators up to p^4000.
"""

from cychom.padic import vp


def valuation_rows(rows, p):
    """Sparse integer rows {column: entry} as rows {column: v_p(entry)},
    a zero entry left out: it has no valuation."""
    return [{c: vp(p, x) for c, x in row.items() if x} for row in rows]


def _int_vp(p: int, n: int) -> int:
    """The largest e with p^e dividing n != 0: e doubles while p^e divides
    n, then bisects, about 2 log2(e) remainders in all."""
    if n == 0:
        raise ValueError("valuation of zero undefined")
    lo, hi = 0, 1  # p^lo divides n, and p^hi is yet to be tried
    while n % p**hi == 0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # p^hi does not divide n
        mid = (lo + hi) // 2
        if n % p**mid == 0:
            lo = mid
        else:
            hi = mid
    return lo


def frac_vp(p, x) -> int:
    """v_p of a nonzero Fraction or integer x, p a ``Prime``.

    >>> from fractions import Fraction
    >>> from cychom.padic import Prime
    >>> frac_vp(Prime(3), Fraction(81, 5)), frac_vp(Prime(3), Fraction(-2, 27)), frac_vp(Prime(5), 250)
    (4, -3, 3)
    """
    return _int_vp(p.p, x.numerator) - _int_vp(p.p, x.denominator)
