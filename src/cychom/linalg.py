"""Exact integer matrix algebra: cokernels read off valuations, Smith
normal form and cokernel invariants.

Every homology module in the package is the p-primary part of a cokernel,
and over Z_(p) every integer prime to p is a unit.  The matrices the
paper needs (the cyclic and negative staircases, the colimit
presentation) have a forest for support, and the cokernel of such a
matrix is decided by the valuations of its entries alone.  The two
valuation routes take those valuations and no prime: ``cokernel_shape``
reads the cokernel off rows of {column: valuation}, and
``staircase_cokernels`` every leading square block of a staircase off its
path of valuations, in one walk with a stack of small ints: the oracle.

``snf``, elimination over Z on a dense ``IntMatrix``, is the package's
one integer engine.  It only diagonalizes: any diagonal gives the
invariant factors, as Z/a x Z/b = Z/gcd(a, b) x Z/lcm(a, b).  It is
the kernel of ``submodule_equal_mod``, which compares submodules of a
product of p-power cyclic groups by the lengths of their quotients.
Over Z such a quotient is a finite p-group, so each of its invariant
factors is a power of p and their valuations sum to its length, with no
precision to choose.  The tests hold the valuation routes to ``snf``
too.  Everything runs over plain Python integers: no overflow, no
floats, no tolerances.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Mapping
from math import gcd

from .padic import Prime, vp


class IntMatrix:
    """Dense integer matrix, row-major: the input of ``snf``."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: list[list[int]]):
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(r) != self.cols for r in data):
            raise ValueError("ragged matrix data")
        self.data = [list(map(int, r)) for r in data]


SnfResult = namedtuple("SnfResult", "invariant_factors")
SnfResult.__doc__ = """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix."""


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form invariant factors, canonical (positive, dividing).

    Row and column operations bring the matrix to a diagonal with the
    same cokernel over Z.  That diagonal need not divide, but Z/a x Z/b
    = Z/gcd(a, b) x Z/lcm(a, b): taking (gcd, lcm) of each pair s < t in
    turn leaves d_s dividing every later entry.

    >>> snf(IntMatrix([[3, 2], [0, 3]])).invariant_factors
    (1, 9)
    """
    a = [row[:] for row in m.data if any(row)]
    diagonal: list[int] = []
    while a:
        # The least nonzero |entry| pivots.  The two passes leave only
        # remainders, smaller than it, in its column and its row; if one
        # is nonzero the least |entry| has fallen, so picking again ends.
        _, i, j = min((abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x)
        prow = a[i]
        pivot = prow[j]
        for row in a:
            if row is not prow and row[j]:
                q = row[j] // pivot
                row[:] = [x - q * y for x, y in zip(row, prow)]
        for k, y in enumerate(prow):
            if k != j and y:
                q = y // pivot
                for row in a:
                    row[k] -= q * row[j]
        if any(row[j] for row in a if row is not prow) or any(prow[:j] + prow[j + 1 :]):
            continue
        diagonal.append(abs(pivot))
        del a[i]
        a = [row[:j] + row[j + 1 :] for row in a if any(row)]
    for s in range(len(diagonal)):
        for t in range(s + 1, len(diagonal)):
            g = gcd(diagonal[s], diagonal[t])
            diagonal[s], diagonal[t] = g, diagonal[s] * diagonal[t] // g
    return SnfResult(tuple(diagonal))


class ModuleShape(namedtuple("ModuleShape", "torsion free_rank complete_rank n_max")):
    """Canonical shape of a module over a p-torsion-free Z_(p)-algebra R.

    torsion holds the cyclic factors R/p^e as runs: an (e, count) pair for
    each exponent e that occurs, e descending, e and count positive (a
    factor R/n with n prime to p is trivial).  The answers of the paper
    repeat each exponent over many odd n, so their runs are few.
    free_rank counts R factors, complete_rank counts factors of the p-adic
    completion.  A shape that stands for an infinite product
    R/a x R/(a+2) x ... is shown up to R/n_max, n_max odd; n_max is None
    for a finite module.

    The torsion is given as the exponents or as a mapping from exponent
    to count; exponents and counts below 1 are dropped.
    """

    __slots__ = ()

    def __new__(
        cls,
        torsion: Iterable[int] | Mapping[int, int],
        free_rank: int = 0,
        complete_rank: int = 0,
        n_max: int | None = None,
    ):
        runs = sorted(((e, n) for e, n in Counter(torsion).items() if e > 0 and n > 0), reverse=True)
        return super().__new__(cls, tuple(runs), free_rank, complete_rank, n_max)

    @classmethod
    def _make(cls, iterable):
        # The inherited _make (and _replace, which calls it) would skip
        # the canonical form of __new__; they take the torsion as runs.
        torsion, *rest = iterable
        return cls(dict(torsion), *rest)

    @property
    def torsion_exponents(self) -> list[int]:
        """e for each cyclic factor R/p^e, descending: one list made at its
        final size, each run filled by slices of at most 4096 items."""
        exponents, k = [0] * sum(n for _, n in self.torsion), 0
        for e, n in self.torsion:
            chunk = [e] * min(n, 4096)
            for m in [4096] * (n // 4096) + [n % 4096]:
                exponents[k : k + m] = chunk if m == len(chunk) else chunk[:m]
                k += m
        return exponents

    @property
    def p_length(self) -> int:
        return sum(e * n for e, n in self.torsion)

    def factors(self) -> list[tuple[str, int]]:
        """The factors of str(self) as runs: (text, count) pairs, in order,
        a count 0 for a kind of factor that does not occur.  A shape with
        an n_max ends in "..."."""
        torsion = [(f"R/p^{e}" if e > 1 else "R/p", n) for e, n in self.torsion]
        return [("R^", self.complete_rank), ("R", self.free_rank), *torsion, ("...", int(self.n_max is not None))]

    def __str__(self):
        return " x ".join(text for text, n in self.factors() for _ in range(n)) or "0"


TRIVIAL_SHAPE = ModuleShape(())


def cokernel_shape(rows: list[dict[int, int]]) -> ModuleShape:
    """Shape of R^len(rows) / (column span of a matrix over Z_(p)),
    keeping only the p-primary part, from the valuations of its entries
    alone: one {column: valuation} dict per row, an absent entry simply
    not listed.  The rows are not modified.

    Why valuations suffice.  Take an entry x no larger in valuation than
    any other entry y of its row or z of its column.  Then y/x and z/x lie
    in Z_(p), so column operations clear the y and row operations the z.
    That splits off R/p^v(x) and leaves a fill -yz/x where each z's row
    meets each y's column.  Where the matrix had no entry, nothing
    cancels: the fill's valuation is exactly v(y) + v(z) - v(x).  So while
    every fill lands on an empty place, the cokernel is the sum of R/p^e
    over the pivots' valuations e, plus R for each row left without a
    pivot, and no entry is ever multiplied out.

    That holds whenever each row has at most two entries and the support
    is a forest (each row joined to the columns of its entries).  A fill
    joins z's row to y's column, which the path through x already joins,
    so its place was empty.  The step contracts that path, so what is left
    is again a forest with at most two entries a row.  The staircases and
    the colimit presentation are such forests.

    The pivots are taken least valuation first.  A fill that lands on an
    entry could cancel it, so that raises ValueError rather than return a
    shape.

    >>> str(cokernel_shape([{0: 1}, {0: 0, 1: 2}]))
    'R/p^3'
    """
    import heapq  # here, not at the top: CLI start-up never needs it

    by_row = list(map(dict, rows))
    by_col: dict[int, dict[int, int]] = {}
    for r, row in enumerate(by_row):
        for c, v in row.items():
            by_col.setdefault(c, {})[r] = v
    heap = [(v, r, c) for r, row in enumerate(by_row) for c, v in row.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        v, r, c = heapq.heappop(heap)
        if c not in by_row[r]:
            continue  # its row or column has been dropped
        row, col = by_row[r], by_col.pop(c)
        by_row[r] = {}
        del row[c], col[r]
        for r2 in col:
            del by_row[r2][c]
        for c2, vy in row.items():
            fills = by_col[c2]
            del fills[r]
            for r2, vz in col.items():
                if c2 in by_row[r2]:
                    raise ValueError(f"a fill lands on the entry at ({r2}, {c2}): valuations do not decide it")
                w = by_row[r2][c2] = fills[r2] = vy + vz - v
                heapq.heappush(heap, (w, r2, c2))
        pivots.append(v)
    return ModuleShape(pivots, free_rank=len(rows) - len(pivots))


def staircase_cokernels(valuations: Iterable[int]) -> Iterator[tuple[Counter, list[int]]]:
    """The cokernel over Z_(p) of every leading square block of a
    staircase, from the valuations of its entries alone, in one
    left-to-right walk.

    A staircase is lower-bidiagonal with nonzero entries: d_0, d_1, ...
    on the diagonal and s_1, s_2, ... below it, s_k in row k.  It comes as
    the valuations v(d_0), v(s_1), v(d_1), v(s_2), ... in path order,
    which may come lazily; each is read once.

    Why valuations suffice: see ``cokernel_shape``.  A staircase's support
    is the path d_0, s_1, d_1, s_2, ..., each entry sharing a row or a
    column with the next, and an entry x whose valuation is a local
    minimum, no larger than its neighbours y and z, pivots there: its one
    fill -yz/x joins y's and z's other neighbours, leaving a path two
    entries shorter.  At an end of the path x has one neighbour, and
    clearing it takes both away.

    The walk. The valuations go onto a stack in path order.  While the
    top is no larger than the valuation v coming in, the top is a local
    minimum (the entry below it is larger) and pivots: it merges with the
    entry below into v + below - top, or, with nothing below, ends the
    path and takes v with it.  So the stack strictly descends.  The
    leading k-square block is the path up to d_{k-1}; its cokernel adds to
    the pivots so far every other stack entry from the top down, since
    there the top is an end whose one neighbour is larger.

    Yields (pivots, tail) after each diagonal entry d_{k-1}, k = 1, 2,
    ...: the cokernel of block k is the sum of R/p^e over the valuations
    e that ``pivots`` counts and those ``tail`` lists (ascending), zeros
    included, k in all.  ``pivots`` is the walk's own Counter, updated in
    place: read it before asking for the next block.

    >>> [(dict(c), t) for c, t in staircase_cokernels([1, 0, 2])]
    [({}, [1]), ({0: 1}, [3])]
    """
    pivots: Counter = Counter()
    stack: list[int] = []
    for k, v in enumerate(valuations):
        while stack and stack[-1] <= v:
            top = stack.pop()
            pivots[top] += 1
            if not stack:
                break
            v += stack.pop() - top
        else:
            stack.append(v)
        if not k & 1:
            yield pivots, stack[::-2]


def submodule_equal_mod(
    p: Prime,
    rows_a: list[dict[int, int]],
    rows_b: list[dict[int, int]],
    moduli: list[int] | tuple[int, ...],
) -> bool:
    """Do two generating sets span the same submodule of prod Z/moduli_k?

    Each generator comes as a sparse row, {column: entry} with every
    column in range(len(moduli)).  The moduli must be powers of p.  For
    X = A, B and A + B the quotient of prod Z/moduli_k by X is Z^width
    modulo the rows of the generators of X and moduli_k * e_k, the
    cokernel over Z of their matrix.  It is a quotient of prod Z/moduli_k,
    so a finite p-group: its ``snf`` has width invariant factors, each a
    power of p, and its length is the sum of their valuations.  A is
    contained in A + B, so A = B exactly when the three lengths agree.

    >>> submodule_equal_mod(Prime(3), [{0: 3, 1: 1}], [{1: 3}, {0: 3, 1: 4}], [9, 9])
    True
    """
    width = len(moduli)
    if any(c not in range(width) for row in rows_a + rows_b for c in row):
        raise ValueError(f"generator columns must lie in range({width})")
    for m in moduli:
        if m < 1 or p.p ** vp(p, m) != m:
            raise ValueError(f"moduli must be powers of p={p.p}, got {m}")
    scaffold = [{k: m} for k, m in enumerate(moduli)]

    def length(rows: list[dict[int, int]]) -> int:
        dense = [[row.get(c, 0) for c in range(width)] for row in rows + scaffold]
        return sum(vp(p, d) for d in snf(IntMatrix(dense)).invariant_factors)

    return length(rows_a) == length(rows_a + rows_b) == length(rows_b)
