"""The image of a p-local ``Fraction`` in Z/p^e: the reference that
``cychom.padic.staircase_residue``, which builds no Fraction, and the
kernel generators' coordinates are checked against."""

from math import gcd


def residue(x, modulus):
    """The image of x in Z/modulus; x's denominator must be invertible there.

    For a p-power modulus that is exactly the condition that x is p-local.

    >>> from fractions import Fraction
    >>> residue(Fraction(81, 5), 3**6)
    162
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    den = x.denominator % modulus
    if gcd(den, modulus) != 1:
        raise ValueError("denominator not invertible mod modulus")
    return x.numerator * pow(den, -1, modulus) % modulus
