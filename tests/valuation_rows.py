"""Integer matrices as the valuation routes of ``cychom.linalg`` take them.

The tests keep their integer matrices, which ``local_snf``, the integer
``snf`` and sympy read, and hand ``cokernel_shape`` and
``staircase_cokernels`` the valuations of the same entries.
"""

from cychom.padic import vp


def valuation_rows(rows, p):
    """Sparse integer rows {column: entry} as rows {column: v_p(entry)},
    a zero entry left out: it has no valuation."""
    return [{c: vp(p, x) for c, x in row.items() if x} for row in rows]
