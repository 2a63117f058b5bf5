"""Smith normal form over Z/p^N on sparse rows: the fast reference the
valuation routes of ``cychom.linalg`` are held to.

``local_snf`` eliminates any matrix over Z/p^N, where every invariant
factor of valuation below N is still visible and no entry outgrows p^N
(Hafner-McCurley, SIAM J. Comput. 1991; Cohen, *A Course in Computational
Algebraic Number Theory*, 2.4).  It never inverts anything mod p^N:
scaling a row by a unit changes no invariant factor, so a pivot p^v * u
clears a row with p^v * f in its column by row := u * row - f * pivot_row.
Matrices come as sparse rows, one {column: entry} dict per row, so a
staircase with two diagonals costs memory linear in its size: the walk
sweep of ``tests/sweeps.py`` checks every leading block of one staircase
against it.
"""

import heapq

from cychom.padic import Prime, vp


def local_snf(rows: list[dict[int, int]], p: Prime, precision: int, rank: int) -> tuple[int, ...]:
    """p-adic valuations of the rank invariant factors of a matrix over
    Z_(p), ascending, computed by sparse elimination over Z/p^precision.

    The matrix comes as sparse rows, one {column: entry} dict per row;
    they are not modified.  Each step pivots on an entry x = p^v * u of
    least valuation v, with u a unit, and clears its column without
    inverting u: a row with entry y = p^v * f there becomes
    u * row - f * pivot_row.  Scaling a row by a unit changes no
    invariant factor.  Then the pivot's row and column are dropped: every
    other entry of the pivot row is a multiple of the pivot, so the
    column operations that would clear it touch nothing else.  The least
    valuation never falls, so the pivots come out along the divisibility
    chain.  Prime-to-p factors give valuation 0.

    The answer is exact when every invariant factor has valuation below
    the precision, which N = v_p(D) + 1 guarantees for any nonzero
    rank x rank minor D.  A smaller modulus makes some nonzero row vanish
    mod p^N, so fewer than ``rank`` pivots remain: that raises
    ArithmeticError rather than returning a wrong shape.

    >>> local_snf([{0: 3}, {0: 1, 1: 9}], Prime(3), 4, 2)
    (0, 3)
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    q = p.p**precision
    # Every live entry is kept with its valuation.  A row operation mostly
    # predicts it: v(u*a - f*y) = min(v(a), v(f) + v(y)) unless the two
    # are equal, and only then is it counted again.  A heap item names an
    # entry by its valuation, not its value, so the heap holds no big
    # integer, and a rescale, which keeps every valuation, keeps the row's
    # items good.
    live: list[dict[int, int]] = []
    vals: list[dict[int, int]] = []
    rows_in_col: dict[int, set[int]] = {}
    heap: list[tuple[int, int, int]] = []  # (valuation, row, col); stale items skipped
    for i, row in enumerate(rows):
        entries, valuations = {}, {}
        for c, x in row.items():
            x %= q
            if x:
                entries[c] = x
                valuations[c] = v = vp(p, x)
                rows_in_col.setdefault(c, set()).add(i)
                heap.append((v, i, c))
        live.append(entries)
        vals.append(valuations)
    heapq.heapify(heap)
    pivots: list[int] = []
    while heap:
        v, i, j = heapq.heappop(heap)
        pivot_row, pivot_vals = live[i], vals[i]
        if pivot_vals.get(j) != v:
            continue
        scale = p.p**v
        u = pivot_row[j] // scale
        rows_in_col[j].discard(i)
        for r in rows_in_col.pop(j):
            row, row_vals = live[r], vals[r]
            f = row.pop(j) // scale
            vf = row_vals.pop(j) - v
            if u != 1:
                for c, a in row.items():
                    if c not in pivot_row:
                        row[c] = a * u % q
            for c, y in pivot_row.items():
                if c == j:
                    continue
                w = vf + pivot_vals[c]  # v(f * y)
                a = row.get(c)
                if a is None:
                    if w < precision:  # else f * y vanishes mod p^N
                        row[c], row_vals[c] = -f * y % q, w
                        rows_in_col[c].add(r)
                        heapq.heappush(heap, (w, r, c))
                    continue
                z = (u * a - f * y) % q
                va = row_vals[c]
                if va != w:
                    vz = min(va, w)
                elif z:
                    vz = vp(p, z)
                else:
                    del row[c], row_vals[c]
                    rows_in_col[c].discard(r)
                    continue
                row[c] = z
                if vz != va:
                    row_vals[c] = vz
                    heapq.heappush(heap, (vz, r, c))
        for c in pivot_row:
            if c != j:
                rows_in_col[c].discard(i)
        live[i], vals[i] = {}, {}
        pivots.append(v)
    if len(pivots) != rank:
        raise ArithmeticError(
            f"modulus p^{precision} too small: {len(pivots)} of {rank} invariant factors survive"
        )
    return tuple(pivots)
