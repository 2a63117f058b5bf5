"""Loday's small mixed complex of R//p: two generators a weight, so HC
runs to degrees in the hundreds where the chain-level complex of
``mixed_complex`` stops near 16.

R//p is the tensor algebra T(x), |x| = 1, with dx = q (q = p).  For a
tensor algebra the bimodule resolution 0 -> A(x)V(x)A -> A(x)A -> A -> 0
gives a small mixed complex (Loday, *Cyclic Homology*, 3.1, tensor
algebras); dx is a scalar, so the internal differential adds no
correction term.  Weight m >= 1 has alpha_m = x^m in degree m and
beta_m = x^(m-1)(x)x in degree m + 1; weight 0 has alpha_0 = 1.  With
t = (-1)^(m-1), the Koszul sign of a rotation:

  * b(beta_m) = (1 - t) alpha_m: 2 alpha_m for even m, else 0;
  * B(alpha_m) = N beta_m: m beta_m for odd m, else 0;
  * delta(alpha_m) = q alpha_(m-1) for odd m, delta(beta_m) =
    q beta_(m-1) for even m >= 2, else 0.

HH is the homology of b + delta, HC that of the total complex
M_N + M_(N-2) + ... under b + delta + B, B taking the summand j to j - 1,
and the truncation T_K of the negative complex in degree m is
M_m + M_(m+2) + ... + M_(m+2K) under b + delta + uB, uB taking the
summand k to k + 1.  Every homology comes from ``zp_pivots``.  The model
reads no valuation sequence, window or staircase.
"""

from cychom.linalg import ModuleShape
from cychom.padic import Prime
from mixed_complex import _homology

Generator = tuple[str, int]  # ("a", m) for alpha_m, ("b", m) for beta_m


def generators(degree: int) -> list[Generator]:
    """alpha_degree, and beta_(degree-1) from degree 2 on."""
    return [("a", degree)] + ([("b", degree - 1)] if degree >= 2 else [])


def b(g: Generator) -> dict[Generator, int]:
    kind, m = g
    t = (-1) ** (m - 1)
    return {("a", m): 1 - t} if kind == "b" else {}


def connes_b(g: Generator) -> dict[Generator, int]:
    kind, m = g
    return {("b", m): m} if kind == "a" and m % 2 else {}


def delta(g: Generator, q: int) -> dict[Generator, int]:
    kind, m = g
    if kind == "a" and m % 2:
        return {("a", m - 1): q}
    if kind == "b" and m % 2 == 0:
        return {("b", m - 1): q}
    return {}


def hochschild_d(g: Generator, q: int) -> dict[Generator, int]:
    """b + delta, zero terms dropped; their images share no generator."""
    return {h: x for h, x in (b(g) | delta(g, q)).items() if x}


def _d(cell: tuple[int, Generator], q: int, step: int, last: int) -> dict:
    """b + delta within a summand, and B to the summand ``step`` away
    when that is one of 0, ..., last."""
    j, g = cell
    out = {(j, h): x for h, x in hochschild_d(g, q).items()}
    if 0 <= j + step <= last:
        out.update(((j + step, h), x) for h, x in connes_b(g).items())
    return out


def hochschild_homology(p: Prime, top: int) -> list[ModuleShape]:
    """HH_0, ..., HH_top of R//p."""
    return _homology(p, top, generators, lambda g: hochschild_d(g, p.p))


def cyclic_homology(p: Prime, top: int) -> list[ModuleShape]:
    """HC_0, ..., HC_top of R//p: the summand j of degree N is M_(N-2j)."""

    def basis(n):
        return [(j, g) for j in range(n // 2 + 1) for g in generators(n - 2 * j)]

    return _homology(p, top, basis, lambda cell: _d(cell, p.p, -1, top))


def negative_truncation(p: Prime, m: int, K: int) -> ModuleShape:
    """H_m(T_K) for m >= 1: the summand k of degree n is M_(n+2k), k <= K."""

    def basis(n):  # degree m - 1 + n, so that H_1 is H_m
        return [(k, g) for k in range(K + 1) for g in generators(m - 1 + n + 2 * k)]

    return _homology(p, 1, basis, lambda cell: _d(cell, p.p, 1, K))[1]
