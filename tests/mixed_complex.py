"""The normalized mixed complex of R//p, built from first principles: the
reference the paper's reduction to staircases is held to.

A = Z_(p)[x], |x| = 1, dx = p, so d(x^k) = p x^(k-1) for odd k and 0 for
even k.  A chain a0[a1|...|an] with ai = x^ki, k0 >= 0 and ki >= 1 for
i >= 1, is the tuple (k0, k1, ..., kn); its total degree is n + sum(ki).
Total degree N holds F_(N+1) chains (generating function 1/(1 - x - x^2)).
Three operators act on them, each a sparse {chain: coefficient} map, with
these signs (s_i = k0 + ... + k(i-1)); a 1 in a bar slot is 0:

  * b:  sum over i < n of (-1)^i (..., ai ai+1, ...), plus
        (-1)^(n + kn s_n) (an a0, a1, ..., a(n-1)) for n >= 1;
  * delta:  sum over i of (-1)^(n + s_i) (..., d ai, ...);
  * B:  sum over i of (-1)^(n i + s_i (k0 + ... + kn - s_i))
        (1, ai, ..., an, a0, ..., a(i-1)).

HH_N is the homology of (C, b + delta) in total degree N, and HC_N that
of the total complex C_N + C_(N-2) + C_(N-4) + ... under b + delta + B,
where B takes the C_(N-2j) summand, j >= 1, to C_(N-2j+1).

Homology is computed over Z_(p) exactly.  ``zp_pivots`` eliminates
integer rows: a pivot of least valuation clears its column by
row := u * row - f * pivot_row, which scales the row by the unit u, and
each new row is divided by the part of its content prime to p, another
unit.  So every rank is the rank over Q, and every pivot's valuation an
invariant factor's over Z_(p): nothing is reduced modulo anything.

The walk's reference, ``local_snf`` in ``tests/local_snf.py``, is the
same exact elimination without the content division, and each engine
is measured to need its own choice (2-core Xeon, CPU seconds).  Without
content division, HC of this complex to degree 12 at p = 3 takes 0.24 s
against 0.08 s, and to degree 14 it outgrew a 3 GB address space, where
``zp_pivots`` takes 0.56 s.  With content division on every row,
``local_snf`` at every leading block of the wide walk sweep (k <= 1001)
takes 14.5 s against 2.6 s at p = 101, and 3.6 s against 2.5 s at p = 3.
"""

import heapq
from collections.abc import Callable, Iterator
from functools import cache
from math import gcd

from cychom.linalg import ModuleShape
from cychom.padic import Prime, vp

Chain = tuple[int, ...]
Vector = dict[Chain, int]


@cache
def chains(degree: int) -> list[Chain]:
    """Every chain (k0, k1, ..., kn) of total degree n + sum(ki) = degree."""

    def bars(room: int) -> Iterator[Chain]:
        # Bar entries k >= 1, each costing k + 1 of the room, filling it.
        if room == 0:
            yield ()
        for k in range(1, room):
            for rest in bars(room - k - 1):
                yield (k, *rest)

    return [(k0, *rest) for k0 in range(degree + 1) for rest in bars(degree - k0)]


def _add(out: Vector, chain: Chain, coeff: int) -> None:
    out[chain] = out.get(chain, 0) + coeff
    if not out[chain]:
        del out[chain]


def b(chain: Chain) -> Vector:
    """The Hochschild boundary: merge neighbours, and the last into the first."""
    n, out = len(chain) - 1, {}
    for i in range(n):
        _add(out, (*chain[:i], chain[i] + chain[i + 1], *chain[i + 2 :]), (-1) ** i)
    if n:
        _add(out, (chain[n] + chain[0], *chain[1:n]), (-1) ** (n + chain[n] * sum(chain[:n])))
    return out


def delta(chain: Chain, p: int) -> Vector:
    """The internal differential d, applied slot by slot."""
    n, out = len(chain) - 1, {}
    for i, k in enumerate(chain):
        if k % 2 and (i == 0 or k > 1):
            _add(out, (*chain[:i], k - 1, *chain[i + 1 :]), p * (-1) ** (n + sum(chain[:i])))
    return out


def connes_b(chain: Chain) -> Vector:
    """Connes' B: every rotation of the chain, behind a 1 in slot 0."""
    n, total, out = len(chain) - 1, sum(chain), {}
    if chain[0] == 0:
        return out  # a0 = 1 would sit in a bar slot
    for i in range(n + 1):
        s = sum(chain[:i])
        _add(out, (0, *chain[i:], *chain[:i]), (-1) ** (n * i + s * (total - s)))
    return out


def hochschild_d(chain: Chain, p: int) -> Vector:
    """b + delta, the differential of the Hochschild complex of R//p."""
    out = b(chain)
    for image, c in delta(chain, p).items():
        _add(out, image, c)
    return out


def apply(op: Callable[[Chain], Vector], vector: Vector) -> Vector:
    """``op`` extended linearly to a vector of chains."""
    out: Vector = {}
    for chain, coeff in vector.items():
        for image, c in op(chain).items():
            _add(out, image, coeff * c)
    return out


def _least(row: dict[int, int], p: Prime) -> tuple[int, int]:
    """(valuation, column) of an entry of least valuation in a nonzero row:
    a unit if there is one, which most rows have."""
    for c, x in row.items():
        if x % p.p:
            return 0, c
    return min((vp(p, x), c) for c, x in row.items())


def zp_pivots(rows: list[dict[int, int]], p: Prime) -> list[int]:
    """The valuations of the nonzero invariant factors over Z_(p) of the
    matrix of sparse integer rows {column: entry}, in the order they are
    pivoted out; their number is its rank.  The rows are not modified.

    Each step pivots on an entry x = p^v u of least valuation over the
    whole matrix and clears its column: a row with y = p^v f there becomes
    u * row - f * pivot_row, then is divided by the prime-to-p part of its
    content.  Both scale the row by a unit of Z_(p).  The pivot row's other
    entries are multiples of x, so column operations clear them and touch
    nothing else: the pivot's row and column are dropped.  The rows wait
    in a heap keyed on (least valuation, row), so a step costs no scan of
    the rows; an item whose row has since been pivoted out, emptied or
    given another least valuation is skipped.

    >>> zp_pivots([{0: 3}, {0: 1, 1: 9}], Prime(3))
    [0, 3]
    """
    live = {r: dict(row) for r, row in enumerate(rows) if row}
    in_col: dict[int, set[int]] = {}
    for r, row in live.items():
        for c in row:
            in_col.setdefault(c, set()).add(r)
    least = {r: _least(row, p) for r, row in live.items()}
    heap = [(v, r) for r, (v, _) in least.items()]  # (least valuation, row); stale items skipped
    heapq.heapify(heap)
    pivots = []
    while heap:
        v, r = heapq.heappop(heap)
        if r not in live or least[r][0] != v:
            continue
        c = least.pop(r)[1]
        pivot_row = live.pop(r)
        for c2 in pivot_row:
            in_col[c2].discard(r)
        scale = p.p**v
        u = pivot_row.pop(c) // scale
        for r2 in in_col.pop(c):
            row = live[r2]
            f = row.pop(c) // scale
            for c2 in row:
                row[c2] *= u
            for c2, y in pivot_row.items():
                z = row.get(c2, 0) - f * y
                if z:
                    if c2 not in row:
                        in_col[c2].add(r2)
                    row[c2] = z
                elif c2 in row:
                    del row[c2]
                    in_col[c2].discard(r2)
            if not row:
                del live[r2], least[r2]
                continue
            g = 0
            for x in row.values():
                g = gcd(g, x)
            while g % p.p == 0:
                g //= p.p
            if g > 1:
                for c2 in row:
                    row[c2] //= g
            least[r2] = _least(row, p)
            heapq.heappush(heap, (least[r2][0], r2))
        pivots.append(v)
    return pivots


def _homology(p: Prime, top: int, basis: Callable[[int], list], boundary: Callable) -> list[ModuleShape]:
    """H_0, ..., H_top of a complex of free Z_(p)-modules: H_N is R^free
    times R/p^e for each positive pivot valuation e of the boundary into
    degree N, free = rank C_N - rank d_N - rank d_(N+1)."""
    pivots = [[]]  # d_0 = 0
    for n in range(1, top + 2):
        index = {cell: k for k, cell in enumerate(basis(n - 1))}
        rows = [{index[image]: x for image, x in boundary(cell).items()} for cell in basis(n)]
        pivots.append(zp_pivots(rows, p))
    return [
        ModuleShape(pivots[n + 1], free_rank=len(basis(n)) - len(pivots[n]) - len(pivots[n + 1]))
        for n in range(top + 1)
    ]


def hochschild_homology(p: Prime, top: int) -> list[ModuleShape]:
    """HH_0, ..., HH_top of R//p, from (C, b + delta)."""
    return _homology(p, top, chains, lambda chain: hochschild_d(chain, p.p))


@cache
def total_basis(degree: int) -> list[tuple[int, Chain]]:
    """The basis of C_N + C_(N-2) + ...: (j, chain) with chain in C_(N-2j)."""
    return [(j, chain) for j in range(degree // 2 + 1) for chain in chains(degree - 2 * j)]


def total_d(cell: tuple[int, Chain], p: int) -> dict[tuple[int, Chain], int]:
    """b + delta + B on the total complex: b + delta keeps the summand j,
    and B takes it to j - 1."""
    j, chain = cell
    out = {(j, image): c for image, c in hochschild_d(chain, p).items()}
    if j:
        out.update(((j - 1, image), c) for image, c in connes_b(chain).items())
    return out


def cyclic_homology(p: Prime, top: int) -> list[ModuleShape]:
    """HC_0, ..., HC_top of R//p, from the total complex under b + delta + B."""
    return _homology(p, top, total_basis, lambda cell: total_d(cell, p.p))
