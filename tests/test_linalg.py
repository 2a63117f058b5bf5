import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cychom.homology import cyclic_matrix
from cychom.linalg import (
    IntMatrix,
    ModuleShape,
    TRIVIAL_SHAPE,
    bareiss_rank,
    cokernel_shape,
    local_snf,
    snf,
    submodule_equal_mod,
)
from cychom.padic import Prime, vp

P3 = Prime(3)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_snf_anchor_block(p):
    res = snf(IntMatrix([[p, 2], [0, p]]))
    assert res.invariant_factors == (1, p * p)


def test_snf_basics():
    identity = IntMatrix([[int(r == c) for c in range(4)] for r in range(4)])
    assert snf(identity).invariant_factors == (1, 1, 1, 1)
    assert snf(IntMatrix([[3, 0], [1, 9]])).invariant_factors == (1, 27)
    assert snf(IntMatrix.zero(3, 2)).invariant_factors == ()
    assert snf(IntMatrix([], rows=0, cols=0)).invariant_factors == ()


def test_snf_divisibility_and_sign():
    res = snf(IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert all(res.invariant_factors[k + 1] % res.invariant_factors[k] == 0 for k in range(res.rank - 1))
    assert all(d > 0 for d in res.invariant_factors)


def _random_unimodular(n, rng):
    m = IntMatrix([[int(r == c) for c in range(n)] for r in range(n)])
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            m.data[i][k] += c * m.data[j][k]
    return m


def _matmul(a, b):
    out = IntMatrix.zero(a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            out.data[i][j] = sum(a.data[i][k] * b.data[k][j] for k in range(a.cols))
    return out


def test_snf_invariant_under_unimodular_transforms():
    rng = random.Random(20240811)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        left = _random_unimodular(rows, rng)
        right = _random_unimodular(cols, rng)
        transformed = _matmul(_matmul(left, m), right)
        assert snf(transformed).invariant_factors == snf(m).invariant_factors


def test_snf_invariant_under_permutations():
    rng = random.Random(7)
    m = IntMatrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
    perm = IntMatrix([row[::-1] for row in reversed(m.data)])
    assert snf(perm).invariant_factors == snf(m).invariant_factors


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_snf_product_equals_det(rows):
    m = IntMatrix(rows)
    det = m.det()
    factors = snf(m).invariant_factors
    prod = 1
    for d in factors:
        prod *= d
    if det == 0:
        assert len(factors) < 3
    else:
        assert prod == abs(det)


def _minors_oracle(m):
    # Independent route: d_1 * ... * d_k is the gcd of all k x k minors.
    from itertools import combinations
    from math import gcd

    facs = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rs in combinations(range(m.rows), k):
            for cs in combinations(range(m.cols), k):
                sub = IntMatrix([[m.data[r][c] for c in cs] for r in rs])
                g = gcd(g, abs(sub.det()))
        if g == 0:
            break
        facs.append(g // prev)
        prev = g
    return tuple(facs)


def test_snf_matches_gcd_of_minors():
    rng = random.Random(99)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)])
        assert snf(m).invariant_factors == _minors_oracle(m)


def test_cokernel_shapes():
    assert cokernel_shape(IntMatrix.zero(2, 2), P3) == ModuleShape((), free_rank=2)
    assert cokernel_shape(IntMatrix([[3, 0], [1, 9]]), P3) == ModuleShape((3,))
    assert cokernel_shape(IntMatrix([[3, 2], [0, 3]]), P3) == ModuleShape((2,))


def test_cokernel_drops_prime_to_p_part():
    # coker = Z/10: only the 5-part survives for p=5, nothing for p=3.
    m = IntMatrix([[10]])
    assert cokernel_shape(m, Prime(5)) == ModuleShape((1,))
    assert cokernel_shape(m, P3) == TRIVIAL_SHAPE


def test_cokernel_p_length_matches_det_valuation():
    for mat in (IntMatrix([[3, 0], [1, 9]]), IntMatrix([[9, 0], [7, 9]]), IntMatrix([[27]])):
        assert cokernel_shape(mat, P3).p_length == vp(P3, mat.det())


def _snf_shape(m, p):
    # Reference route: p-parts of the integer Smith normal form.
    res = snf(m)
    return ModuleShape(tuple(vp(p, d) for d in res.invariant_factors), free_rank=m.rows - res.rank)


@st.composite
def small_matrices(draw):
    """Square, non-square and rank-deficient integer matrices, entries of
    both signs; rank deficiency comes from a product through a narrow
    middle dimension."""
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))
    entries = st.integers(min_value=-30, max_value=30)
    if draw(st.booleans()):
        return IntMatrix([[draw(entries) for _ in range(cols)] for _ in range(rows)], rows, cols)
    inner = draw(st.integers(min_value=0, max_value=max(0, min(rows, cols) - 1)))
    small = st.integers(min_value=-6, max_value=6)
    left = [[draw(small) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(small) for _ in range(cols)] for _ in range(inner)]
    data = [[sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]
    return IntMatrix(data, rows, cols)


@settings(max_examples=200, deadline=None)
@given(small_matrices(), st.sampled_from([3, 5, 7]))
def test_cokernel_shape_matches_integer_snf(m, p):
    prime = Prime(p)
    assert cokernel_shape(m, prime) == _snf_shape(m, prime)


def test_cokernel_shape_matches_sympy_snf():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(1914)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-25, 25) for _ in range(cols)] for _ in range(rows)])
        if rng.random() < 0.3:
            m.data[-1] = [2 * x for x in m.data[0]]  # force a dependent row
        diag = smith_normal_form(sympy.Matrix(m.data), domain=sympy.ZZ)
        factors = [abs(diag[k, k]) for k in range(min(rows, cols)) if diag[k, k]]
        for p in (Prime(3), Prime(5)):
            want = ModuleShape(tuple(vp(p, d) for d in factors), free_rank=rows - len(factors))
            assert cokernel_shape(m, p) == want


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
def test_cokernel_shape_matches_integer_snf_on_staircases(p):
    prime = Prime(p)
    for i in range(2, 62, 2):
        m = cyclic_matrix(prime, i)
        assert cokernel_shape(m, prime) == _snf_shape(m, prime)


def test_local_snf_modulus_guard():
    # HC_6 at p = 3 is R/p^6 x R/p: any precision that hides the head
    # factor raises instead of answering.
    m = cyclic_matrix(P3, 6)
    for precision in range(1, 7):
        with pytest.raises(ArithmeticError, match="too small"):
            local_snf(m, P3, precision, m.rows)
    for precision in (7, 8, 20):
        assert local_snf(m, P3, precision, m.rows) == (0, 0, 1, 6)
    with pytest.raises(ArithmeticError):
        local_snf(IntMatrix([[27]]), P3, 3, 1)
    with pytest.raises(ValueError):
        local_snf(m, P3, 0, m.rows)


def test_local_snf_keeps_unit_factors():
    assert local_snf(IntMatrix([[10, 0], [0, 4]]), Prime(5), 2, 2) == (0, 1)
    assert local_snf(IntMatrix.zero(2, 3), P3, 1, 0) == ()


def test_bareiss_rank():
    assert bareiss_rank(IntMatrix.zero(3, 2)) == (0, 1)
    assert bareiss_rank(IntMatrix([], rows=0, cols=0)) == (0, 1)
    assert bareiss_rank(IntMatrix([[0, 2, 4], [0, 1, 2]])) == (1, 2)
    rank, minor = bareiss_rank(IntMatrix([[1, 2, 3], [2, 4, 7], [1, 2, 4]]))
    assert rank == 2 and abs(minor) == 1
    assert bareiss_rank(IntMatrix([[0, 1], [1, 0]])) == (2, -1)


def test_module_shape_canonical_form():
    s = ModuleShape((0, 1, 3, 0, 2))
    assert s.torsion_exponents == (3, 2, 1)
    assert s.p_length == 6
    # Keyword input, and the tuple-record rebuilders, canonicalise too.
    assert ModuleShape(torsion_exponents=(0, 1, 3)) == ModuleShape((3, 1)) == ModuleShape((1, 3, 0))
    assert hash(ModuleShape(torsion_exponents=(0, 1, 3))) == hash(ModuleShape((3, 1)))
    assert s._replace(torsion_exponents=(0, 1, 4)).torsion_exponents == (4, 1)
    assert ModuleShape._make([(0, 2, 5), 1, 0, False]) == ModuleShape((5, 2), free_rank=1)
    assert str(ModuleShape((2,), complete_rank=1, truncated=True)) == "R^ x R/p^2 x ..."
    assert str(TRIVIAL_SHAPE) == "0"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=40)), st.booleans())
def test_module_shape_canonical_form_matches_filter_then_sort(exponents, as_generator):
    # The canonical form as first defined: drop exponents <= 0, then sort.
    want = tuple(sorted((e for e in exponents if e > 0), reverse=True))
    given_exponents = (e for e in exponents) if as_generator else exponents
    assert ModuleShape(given_exponents).torsion_exponents == want


def test_submodule_equal_trivialities():
    gens = [[1, 0], [0, 1]]
    assert submodule_equal_mod(P3, gens, gens, [9, 9])
    assert not submodule_equal_mod(P3, [[1, 0]], [[0, 1]], [9, 9])


def test_submodule_change_of_generators():
    p = 3
    assert submodule_equal_mod(
        P3,
        [[p, 0], [0, 1]],
        [[p, 1], [0, 1]],
        [p**3, p],
    )


def test_submodule_invariant_under_recombination():
    gens = [[3, 1, 0], [0, 3, 3]]
    mixed = [[3, 1, 0], [3, 4, 3], [0, -3, -3]]
    moduli = [27, 27, 9]
    assert submodule_equal_mod(P3, gens, mixed, moduli)
    assert submodule_equal_mod(P3, list(reversed(gens)), gens, moduli)


def test_submodule_detects_strict_containment():
    # <p*e1> is strictly inside <e1>.
    assert not submodule_equal_mod(P3, [[3]], [[1]], [27])


def test_submodule_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        submodule_equal_mod(P3, [[1, 0]], [[1]], [9])


@pytest.mark.parametrize("moduli", [[6], [0], [-9], [25], [9, 10]])
def test_submodule_rejects_moduli_that_are_not_p_powers(moduli):
    gens = [[1] * len(moduli)]
    with pytest.raises(ValueError, match="powers of p"):
        submodule_equal_mod(P3, gens, gens, moduli)


def _span(gens, moduli) -> frozenset:
    # Every Z-combination of the generators in prod Z/moduli: in a finite
    # group, closing {0} under adding generators reaches all of them.
    zero = tuple(0 for _ in moduli)
    seen, todo = {zero}, [zero]
    while todo:
        x = todo.pop()
        for g in gens:
            y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return frozenset(seen)


@st.composite
def _submodule_pairs(draw):
    p = draw(st.sampled_from([3, 5]))
    width = draw(st.integers(0, 3))
    moduli = [p ** draw(st.integers(0, 2)) for _ in range(width)]
    vector = st.lists(st.integers(-100, 100), min_size=width, max_size=width)
    gens_a = draw(st.lists(vector, max_size=3))
    if draw(st.booleans()):
        gens_b = draw(st.lists(vector, max_size=3))
    else:
        # Recombine: shears, moduli multiples and a shuffle keep the span;
        # dropping a generator may shrink it.
        gens_b = [list(g) for g in gens_a]
        coeff = st.integers(-5, 5)
        for _ in range(draw(st.integers(0, 4))):
            if len(gens_b) >= 2:
                i, j = draw(st.permutations(range(len(gens_b))))[:2]
                c = draw(coeff)
                gens_b[i] = [x + c * y for x, y in zip(gens_b[i], gens_b[j])]
            if gens_b and width:
                i = draw(st.integers(0, len(gens_b) - 1))
                k = draw(st.integers(0, width - 1))
                gens_b[i][k] += draw(coeff) * moduli[k]
        gens_b = draw(st.permutations(gens_b))
        if gens_b and draw(st.booleans()):
            gens_b = gens_b[1:]
    return Prime(p), gens_a, gens_b, moduli


# Equal spans that a Hermite form reduced above its pivots from the last
# pivot upwards tells apart: rows (3, 0, -36) against (3, 0, 189).
@example((P3, [[15, -19, -11], [0, -28, 28]], [[0, -94, 22], [15, 94, -67], [0, -75, -45]], [9, 3, 3]))
@settings(max_examples=300, deadline=None)
@given(_submodule_pairs())
def test_submodule_equal_matches_span_enumeration(case):
    p, gens_a, gens_b, moduli = case
    want = _span(gens_a, moduli) == _span(gens_b, moduli)
    assert submodule_equal_mod(p, gens_a, gens_b, moduli) == want


def test_intmatrix_validation_and_det():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    assert IntMatrix([[2, 1], [1, 2]]).det() == 3
    assert IntMatrix([[1, 2], [2, 4]]).det() == 0
