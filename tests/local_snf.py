"""Smith normal form over Z_(p) on sparse rows, by exact elimination: the
fast reference the valuation routes of ``cychom.linalg`` are held to.

``local_snf`` eliminates an integer matrix over Z_(p) (Cohen, *A Course
in Computational Algebraic Number Theory*, 2.4), where every integer
prime to p is a unit.  It never inverts anything: scaling a row by a unit
changes no invariant factor, so a pivot p^v * u clears a row with p^v * f
in its column by row := u * row - f * pivot_row, integers in and
integers out.  Nothing is reduced modulo p^N, so no precision is chosen
and no rank is supplied: an entry goes only when it is exactly zero, so
the pivots count the rank over Q, and each pivot's valuation is an
invariant factor's.  A modulus p^N with N = v_p(det) + 1 would keep every
factor visible, but it would have to come from the answer being checked,
and it could only bound the entries, at the price of a reduction at every
step.  At the wide walk sweep's last block (k = 1001) it bounds nothing
at p = 101: 101^2002 has 13,330 bits, and exact elimination never writes
an entry of more than 13,257.  At p = 3 the entries reach 6,092 bits
against 3^2002's 3,174, and the sweep is still no slower without the
reductions.

Matrices come as sparse rows, one {column: entry} dict per row, so a
staircase with two diagonals costs memory linear in its size: the walk
sweep of ``tests/sweeps.py`` checks every leading block of one staircase
against it.
"""

import heapq

from cychom.padic import Prime, vp


def local_snf(rows: list[dict[int, int]], p: Prime) -> tuple[int, ...]:
    """p-adic valuations of the nonzero invariant factors of an integer
    matrix over Z_(p), ascending: as many as its rank.

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

    >>> local_snf([{0: 3}, {0: 1, 1: 9}], Prime(3))
    (0, 3)
    """
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
        entries = {c: x for c, x in row.items() if x}
        valuations = {}
        for c, x in entries.items():
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
                        row[c] = a * u
            for c, y in pivot_row.items():
                if c == j:
                    continue
                w = vf + pivot_vals[c]  # v(f * y)
                a = row.get(c)
                if a is None:
                    row[c], row_vals[c] = -f * y, w
                    rows_in_col[c].add(r)
                    heapq.heappush(heap, (w, r, c))
                    continue
                z = u * a - f * y
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
    return tuple(pivots)
