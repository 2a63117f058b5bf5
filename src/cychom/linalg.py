"""Exact integer matrix algebra: Smith normal form and cokernel invariants.

Every homology module in the package is the p-primary part of a cokernel,
and over Z_(p) every integer prime to p is a unit.  So ``cokernel_shape``
never forms an integer Smith normal form, whose entries blow up with the
matrix size.  It reads N = v_p(D) + 1 off a nonzero maximal minor D (the
diagonal product of a lower-triangular staircase, or one fraction-free
Bareiss pass otherwise) and eliminates over Z/p^N with ``local_snf``, where every
invariant factor of the matrix is still visible and no entry outgrows
p^N (Hafner-McCurley, SIAM J. Comput. 1991; Cohen, *A Course in
Computational Algebraic Number Theory*, 2.4).

``snf`` is the classical integer elimination, kept as the reference the
tests compare the local kernel against.  ``submodule_equal_mod`` compares
submodules of a product of p-power cyclic groups by the lengths of their
quotients, read off the same local kernel.  Everything runs over plain Python
integers: no overflow, no floats, no tolerances.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from itertools import compress
from math import gcd

from .padic import Prime, vp


class IntMatrix:
    """Dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: list[list[int]], rows: int | None = None, cols: int | None = None):
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("ragged or mismatched matrix data")
        self.rows = rows
        self.cols = cols
        self.data = [list(map(int, r)) for r in data]

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls.zero(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    def copy(self) -> "IntMatrix":
        return IntMatrix([row[:] for row in self.data], self.rows, self.cols)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.data[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"IntMatrix({self.data!r})"

    def det(self) -> int:
        """Determinant via fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        rank, minor = bareiss_rank(self)
        return minor if rank == self.rows else 0

    def diagonal(self) -> list[int]:
        return [self.data[k][k] for k in range(min(self.rows, self.cols))]

    def is_lower_triangular(self) -> bool:
        """Square, and zero above the diagonal."""
        return self.rows == self.cols and not any(any(row[i + 1 :]) for i, row in enumerate(self.data))


def bareiss_rank(m: IntMatrix) -> tuple[int, int]:
    """Rank r of m and a nonzero r x r minor of it, by one fraction-free
    Bareiss pass with row swaps that skips columns without a pivot.

    For a nonsingular square matrix the minor is the determinant; the
    empty minor of a zero matrix is 1.
    """
    a = [row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    rank, prev, sign = 0, 1, 1
    for c in range(cols):
        if rank == rows:
            break
        piv = next((r for r in range(rank, rows) if a[r][c]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        pv = top[c]
        # Every entry stays a minor of m (Sylvester), so the division is exact.
        for r in range(rank + 1, rows):
            row = a[r]
            x = row[c]
            for j in range(c + 1, cols):
                row[j] = (row[j] * pv - x * top[j]) // prev
            row[c] = 0
        prev = pv
        rank += 1
    return rank, sign * prev


class SnfResult(namedtuple("SnfResult", "invariant_factors source_dim target_dim")):
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def _pivot(a: list[list[int]], t: int, rows: int, cols: int) -> tuple[int, int] | None:
    # Minimal |entry| in the trailing block, ties broken by row then column.
    best = None
    best_val = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = abs(a[i][j])
            if v and (best_val is None or v < best_val):
                best, best_val = (i, j), v
                if v == 1:
                    return best
    return best


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form invariant factors, canonical (positive, dividing).

    >>> snf(IntMatrix([[3, 2], [0, 3]])).invariant_factors
    (1, 9)
    """
    a = [row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    factors: list[int] = []
    t = 0
    while t < min(rows, cols):
        pos = _pivot(a, t, rows, cols)
        if pos is None:
            break
        pi, pj = pos
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        # Clear row and column t.  Division remainders stay behind in the
        # pivot row/column and are strictly smaller than the pivot, so
        # re-pivoting on the minimum terminates.
        while True:
            pivot = a[t][t]
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // pivot
                    for j in range(t, cols):
                        a[i][j] -= q * a[t][j]
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // pivot
                    for i in range(t, rows):
                        a[i][j] -= q * a[i][t]
            if not any(a[i][t] for i in range(t + 1, rows)) and not any(
                a[t][j] for j in range(t + 1, cols)
            ):
                break
            pi, pj = _pivot(a, t, rows, cols)
            a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
        # Enforce divisibility into the trailing block: fold any bad entry
        # into column t and redo the elimination at this step.
        pivot = abs(a[t][t])
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % pivot:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(t, cols):
                a[t][j] += a[bad][j]
            continue
        factors.append(pivot)
        t += 1
    return SnfResult(tuple(factors), source_dim=cols, target_dim=rows)


class ModuleShape(namedtuple("ModuleShape", "torsion_exponents free_rank complete_rank truncated")):
    """Canonical shape of a module over a p-torsion-free Z_(p)-algebra R.

    torsion_exponents lists e for each cyclic factor R/p^e, sorted in
    descending order with zero exponents dropped (a factor R/n with n
    prime to p is trivial).  free_rank counts R factors, complete_rank
    counts factors of the p-adic completion.  truncated marks shapes that
    stand for a finite cut of an infinite product.
    """

    __slots__ = ()

    def __new__(
        cls,
        torsion_exponents: tuple[int, ...],
        free_rank: int = 0,
        complete_rank: int = 0,
        truncated: bool = False,
    ):
        canon = sorted(torsion_exponents, reverse=True)
        while canon and canon[-1] <= 0:
            canon.pop()
        return super().__new__(cls, tuple(canon), free_rank, complete_rank, truncated)

    @classmethod
    def _make(cls, iterable):
        # The inherited _make (and _replace, which calls it) would skip
        # the canonical form of __new__.
        return cls(*iterable)

    @property
    def p_length(self) -> int:
        return sum(self.torsion_exponents)

    def is_trivial(self) -> bool:
        return not self.torsion_exponents and not self.free_rank and not self.complete_rank

    def __str__(self):
        parts = ["R^"] * self.complete_rank + ["R"] * self.free_rank
        parts += [f"R/p^{e}" if e > 1 else "R/p" for e in self.torsion_exponents]
        if self.truncated:
            parts.append("...")
        return " x ".join(parts) if parts else "0"


TRIVIAL_SHAPE = ModuleShape(())


def local_snf(m: IntMatrix, p: Prime, precision: int, rank: int) -> tuple[int, ...]:
    """p-adic valuations of the rank invariant factors of m over Z_(p),
    ascending, computed by sparse elimination over Z/p^precision.

    Each step pivots on an entry of least valuation v, clears its column
    with row operations scaled by the inverse of its unit part, and drops
    its row and column: every other entry of the pivot row is a multiple
    of the pivot, so the column operations that would clear it touch
    nothing else.  The least valuation never falls, so the pivots come out
    along the divisibility chain.  Prime-to-p factors give valuation 0.

    The answer is exact when every invariant factor has valuation below
    the precision, which N = v_p(D) + 1 guarantees for any nonzero
    rank x rank minor D.  A smaller modulus makes some nonzero row vanish
    mod p^N, so fewer than ``rank`` pivots remain: that raises
    ArithmeticError rather than returning a wrong shape.

    >>> local_snf(IntMatrix([[3, 0], [1, 9]]), Prime(3), 4, 2)
    (0, 3)
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    q = p.p**precision
    # gcd(x, p^N) = p^v(x) for x nonzero mod p^N: one table lookup per entry.
    valuation = {p.p**k: k for k in range(precision)}
    rows: list[dict[int, int]] = []
    rows_in_col: dict[int, set[int]] = {}
    heap: list[tuple[int, int, int, int]] = []  # (valuation, row, col, value); stale items skipped
    for i, data in enumerate(m.data):
        row = {}
        for j, x in compress(enumerate(data), data):
            x %= q
            if x:
                row[j] = x
                rows_in_col.setdefault(j, set()).add(i)
                heap.append((valuation[gcd(x, q)], i, j, x))
        rows.append(row)
    heapq.heapify(heap)
    vals: list[int] = []
    while heap:
        v, i, j, x = heapq.heappop(heap)
        pivot_row = rows[i]
        if pivot_row.get(j) != x:
            continue
        scale = p.p**v
        inv = pow(x // scale, -1, q)
        rows_in_col[j].discard(i)
        for r in rows_in_col.pop(j):
            row = rows[r]
            f = row.pop(j) // scale * inv % q
            for c, y in pivot_row.items():
                if c == j:
                    continue
                z = (row.get(c, 0) - f * y) % q
                if z:
                    row[c] = z
                    rows_in_col[c].add(r)
                    heapq.heappush(heap, (valuation[gcd(z, q)], r, c, z))
                elif c in row:
                    del row[c]
                    rows_in_col[c].discard(r)
        for c in pivot_row:
            if c != j:
                rows_in_col[c].discard(i)
        rows[i] = {}
        vals.append(v)
    if len(vals) != rank:
        raise ArithmeticError(
            f"modulus p^{precision} too small: {len(vals)} of {rank} invariant factors survive"
        )
    return tuple(vals)


def cokernel_shape(m: IntMatrix, p: Prime) -> ModuleShape:
    """Shape of R^rows / (column span of m), keeping only the p-primary part.

    >>> str(cokernel_shape(IntMatrix([[3, 0], [1, 9]]), Prime(3)))
    'R/p^3'
    """
    diagonal = m.diagonal()
    if all(diagonal) and m.is_lower_triangular():
        rank = m.rows
        v_minor = sum(vp(p, d) for d in diagonal)
    else:
        rank, minor = bareiss_rank(m)
        v_minor = vp(p, minor)
    vals = local_snf(m, p, v_minor + 1, rank)
    return ModuleShape(vals, free_rank=m.rows - rank)


def submodule_equal_mod(
    p: Prime,
    gens_a: list[list[int]] | list[tuple[int, ...]],
    gens_b: list[list[int]] | list[tuple[int, ...]],
    moduli: list[int] | tuple[int, ...],
) -> bool:
    """Do two generating sets span the same submodule of prod Z/moduli_k?

    The moduli must be powers of p.  For X = A, B and A + B the quotient
    of prod Z/moduli_k by X is a finite p-group, the cokernel of the
    matrix whose columns are the generators of X and moduli_k * e_k; its
    length is the sum of the local Smith valuations, which the transpose
    (those vectors as rows) shares.  Its rank is the width, and the
    quotient is killed by the largest modulus p^E, so precision E + 1 is
    exact.  A is contained in A + B, so A = B exactly
    when the three lengths agree.

    >>> submodule_equal_mod(Prime(3), [[3, 1]], [[0, 3], [3, 4]], [9, 9])
    True
    """
    width = len(moduli)
    for g in list(gens_a) + list(gens_b):
        if len(g) != width:
            raise ValueError("generator length does not match moduli")
    for m in moduli:
        if m < 1 or p.p ** vp(p, m) != m:
            raise ValueError(f"moduli must be powers of p={p.p}, got {m}")
    precision = max((vp(p, m) for m in moduli), default=0) + 1
    scaffold = [[0] * k + [m] + [0] * (width - k - 1) for k, m in enumerate(moduli)]

    def length(gens) -> int:
        rows = [list(g) for g in gens] + scaffold
        return sum(local_snf(IntMatrix(rows, len(rows), width), p, precision, width))

    return length(gens_a) == length(list(gens_a) + list(gens_b)) == length(gens_b)
