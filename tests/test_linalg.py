import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from cychom.homology import _staircase, cyclic_matrix
from cychom.linalg import (
    IntMatrix,
    ModuleShape,
    TRIVIAL_SHAPE,
    cokernel_shape,
    snf,
    staircase_cokernels,
    submodule_equal_mod,
)
from cychom.padic import Prime, vp
from local_snf import local_snf
from sweeps import size
from valuation_rows import valuation_rows

try:
    import sympy
    from sympy.matrices.normalforms import smith_normal_form
except ImportError:
    sympy = None

P3 = Prime(3)


def _sparse(data):
    """Dense rows as the sparse {column: entry} rows the kernel takes."""
    return [{c: x for c, x in enumerate(row) if x} for row in data]


def _dense(rows):
    """Sparse rows as a square IntMatrix, for the reference snf."""
    n = len(rows)
    return IntMatrix([[row.get(c, 0) for c in range(n)] for row in rows])


def _det(data):
    """Determinant by cofactor expansion along the first row."""
    if not data:
        return 1
    return sum((-1) ** c * x * _det([row[:c] + row[c + 1 :] for row in data[1:]]) for c, x in enumerate(data[0]) if x)


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
                g = gcd(g, abs(_det([[m.data[r][c] for c in cs] for r in rs])))
        if g == 0:
            break
        facs.append(g // prev)
        prev = g
    return tuple(facs)


def test_cokernel_shapes():
    # Rows of {column: valuation}: the matrices (3; 1 9) and (3 2; 0 3)
    # at p = 3.
    rows = [{0: 1}, {0: 0, 1: 2}]
    assert cokernel_shape([{}, {}]) == ModuleShape((), free_rank=2)
    assert cokernel_shape(rows) == ModuleShape((3,))
    assert cokernel_shape([{0: 1, 1: 0}, {1: 1}]) == ModuleShape((2,))
    assert cokernel_shape([]) == TRIVIAL_SHAPE
    # The rows are read, not changed.
    assert rows == [{0: 1}, {0: 0, 1: 2}]
    # An entry 0 has no valuation, so its row does not list it.
    assert cokernel_shape(valuation_rows([{0: 0}, {0: 3, 1: 0}], P3)) == ModuleShape((1,), free_rank=1)


def _factors_shape(factors, rows, p):
    # The p-parts of integer invariant factors of a matrix with that many rows.
    return ModuleShape(tuple(vp(p, d) for d in factors), free_rank=rows - len(factors))


def _snf_shape(m, p):
    # Reference route: p-parts of the integer Smith normal form.
    return _factors_shape(snf(m).invariant_factors, m.rows, p)


def _check_against_factors(rows, p, factors):
    """Sparse rows against the integer invariant factors of their matrix:
    ``local_snf``, and ``cokernel_shape``, which may refuse a matrix that
    is not a forest, wherever it answers."""
    assert local_snf(rows, p) == tuple(vp(p, d) for d in factors)
    try:
        got = cokernel_shape(valuation_rows(rows, p))
    except ValueError:
        return
    assert got == _factors_shape(factors, len(rows), p)


def _sympy_factors(data):
    """The nonzero invariant factors of a nonempty matrix, by sympy."""
    form = smith_normal_form(sympy.Matrix(data), domain=sympy.ZZ)
    return [abs(form[k, k]) for k in range(min(form.shape)) if form[k, k]]


@st.composite
def small_matrices(draw):
    """Square, non-square and rank-deficient integer matrices, entries of
    both signs; rank deficiency comes from a product through a narrow
    middle dimension."""
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))
    entries = st.integers(min_value=-30, max_value=30)
    if draw(st.booleans()):
        return IntMatrix([[draw(entries) for _ in range(cols)] for _ in range(rows)])
    inner = draw(st.integers(min_value=0, max_value=max(0, min(rows, cols) - 1)))
    small = st.integers(min_value=-6, max_value=6)
    left = [[draw(small) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(small) for _ in range(cols)] for _ in range(inner)]
    data = [[sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]
    return IntMatrix(data)


# Z/10 keeps its 5-part at p = 5 and nothing at p = 3; R/p^3 from a
# lower-triangular block and from a single entry.
@example(IntMatrix([[10]]), 5)
@example(IntMatrix([[10]]), 3)
@example(IntMatrix([[9, 0], [7, 9]]), 3)
@example(IntMatrix([[27]]), 3)
@settings(max_examples=200, deadline=None)
@given(small_matrices(), st.sampled_from([3, 5, 7]))
def test_cokernel_shape_matches_integer_snf(m, p):
    _check_against_factors(_sparse(m.data), Prime(p), snf(m).invariant_factors)


# Diagonals that do not divide, and the identity; a pivot that leaves a
# remainder in its row, so it does not split; a row that goes to zero in
# the elimination; no rows, and zero rows; triangular blocks; full-rank
# 3 x 3s and a singular one; and entries past 100.
@example(IntMatrix([[2, 0], [0, 3]]))
@example(IntMatrix([[4, 0], [0, 6]]))
@example(IntMatrix([[int(r == c) for c in range(4)] for r in range(4)]))
@example(IntMatrix([[2, 3]]))
@example(IntMatrix([[2, 4], [1, 2]]))
@example(IntMatrix([]))
@example(IntMatrix([[0, 0]] * 3))
@example(IntMatrix([[3, 0], [1, 9]]))
@example(IntMatrix([[3, 2], [0, 3]]))
@example(IntMatrix([[-5, 2, 7], [1, 0, -3], [4, 4, 4]]))
@example(IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
@example(IntMatrix([[2, 4, 4], [1, 2, 2], [0, 0, 0]]))
@example(IntMatrix([[1234, -987, 55], [610, 377, -233], [144, 89, 21]]))
@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_snf_matches_gcd_of_minors(m):
    assert snf(m).invariant_factors == _minors_oracle(m)


def test_cokernel_shape_matches_sympy_snf():
    if sympy is None:
        pytest.skip("sympy is not installed")
    rng = random.Random(1914)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-25, 25) for _ in range(cols)] for _ in range(rows)])
        if rng.random() < 0.3:
            m.data[-1] = [2 * x for x in m.data[0]]  # force a dependent row
        for p in (Prime(3), Prime(5)):
            _check_against_factors(_sparse(m.data), p, _sympy_factors(m.data))


@st.composite
def _forests(draw):
    """A prime, a column count and sparse rows with at most two entries
    each whose support is a forest, entries +-p^e * u with u a unit: an
    entry that would close a cycle is left out."""
    p = draw(st.sampled_from([3, 5, 7]))
    n_rows, n_cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    units = st.sampled_from([u for u in range(1, 61) if u % p])
    entry = st.builds(lambda s, e, u: s * p**e * u, st.sampled_from([1, -1]), st.integers(0, 4), units)
    parent = list(range(n_rows + n_cols))  # union-find: rows, then columns

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    rows = []
    for r in range(n_rows):
        row = {}
        for c in draw(st.lists(st.integers(0, n_cols - 1), max_size=2, unique=True)) if n_cols else []:
            a, b = root(r), root(n_rows + c)
            if a != b:
                parent[a] = b
                row[c] = draw(entry)
        rows.append(row)
    return Prime(p), n_cols, rows


# The SNF anchor [[p, 2], [0, p]] (acceptance criterion 2), and the colimit
# presentation at i = 5: a star in column 0 with a pendant modulus on each
# row.
@example((Prime(5), 2, [{0: 5, 1: 2}, {1: 5}]))
@example((P3, 4, [{0: 3**6}, {0: 3**6, 1: 1}, {0: 3**4, 2: 3}, {0: 3**2, 3: 5}]))
@settings(max_examples=300, deadline=None)
@given(_forests())
def test_cokernel_shape_matches_integer_snf_and_sympy_on_forests(case):
    p, cols, rows = case
    data = [[row.get(c, 0) for c in range(cols)] for row in rows]
    got = cokernel_shape(valuation_rows(rows, p))
    assert got == _snf_shape(IntMatrix(data), p)
    if sympy is not None and rows and cols:
        assert got == _factors_shape(_sympy_factors(data), len(rows), p)


@pytest.mark.parametrize(
    "rows",
    [
        [{0: 1, 1: 1}, {0: 1, 1: 1}],  # a cycle: the first fill cancels (1, 1)
        # A tree, but its first pivot's three-entry row fills rows 1 and 2
        # in columns 1 and 2, a cycle, and the next pivot's fill cancels.
        [{0: 1, 1: 1, 2: 1}, {0: 1}, {0: 1}],
    ],
)
def test_cokernel_shape_refuses_a_fill_on_an_entry(rows):
    with pytest.raises(ValueError, match="a fill lands on the entry"):
        cokernel_shape(valuation_rows(rows, P3))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
def test_cokernel_shape_matches_integer_snf_on_staircases(p):
    prime = Prime(p)
    for i in range(2, 62, 2):
        m = cyclic_matrix(prime, i)
        assert cokernel_shape(valuation_rows(m, prime)) == _snf_shape(_dense(m), prime)


def test_local_snf_keeps_unit_factors():
    assert local_snf([{0: 10}, {1: 4}], Prime(5)) == (0, 1)
    assert local_snf([{}, {}], P3) == local_snf([{0: 0}], P3) == ()
    # HC_6 at p = 3 is R/p^6 x R/p; the input rows are read, not changed.
    m = cyclic_matrix(P3, 6)
    assert local_snf(m, P3) == (0, 0, 1, 6)
    assert m == cyclic_matrix(P3, 6)


@st.composite
def _unit_pivot_matrices(draw):
    """A prime and a matrix that is not lower-triangular, whose nonzero
    entries are +-p^e * u with u a unit other than +-1: nearly every pivot
    rescales the rows it clears, so their heap items go stale."""
    p = draw(st.sampled_from([3, 5, 7]))
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=2, max_value=5))
    units = st.sampled_from([u for u in range(2, 61) if u % p])
    signs = st.sampled_from([1, -1])
    entry = st.builds(lambda s, e, u: s * p**e * u, signs, st.integers(0, 3), units)
    data = [[draw(st.one_of(st.just(0), entry)) for _ in range(cols)] for _ in range(rows)]
    data[0][-1] = draw(entry)  # above the diagonal
    return Prime(p), data


# The pivot 2 (unit part 2, not 1) turns row (1, 3, 1) into
# 2 * (1, 3, 1) - (2, 2, 0): its column 2, where the pivot row is zero,
# must be doubled too.
@example((P3, [[2, 2, 0], [1, 3, 1], [0, 1, 1]]))
# The pivot 2 rescales the row below it to 2 * (1, 3) - (2, 0) = (0, 6).
# The heap item of the entry 3 there must still find the 6, the next
# pivot; a lost pivot would leave its factor out.
@example((P3, [[2, 0], [1, 3]]))
# The pivot 2 turns row (2, 6) into 2 * (2, 6) - 2 * (2, 2) = (0, 8): the
# entry's valuation falls from 1 to 0, and only a new heap item finds it.
@example((P3, [[2, 2], [2, 6]]))
@settings(max_examples=200, deadline=None)
@given(_unit_pivot_matrices())
def test_local_snf_matches_integer_snf_with_non_unit_pivots(case):
    p, data = case
    assert local_snf(_sparse(data), p) == tuple(vp(p, d) for d in snf(IntMatrix(data)).invariant_factors)


def _path(rows):
    """The valuation rows of a staircase as its valuations in path order:
    v(d_0), v(s_1), v(d_1), v(s_2), ..., d_k on the diagonal."""
    return [v for k, row in enumerate(rows) for v in ((row[k - 1], row[k]) if k else (row[0],))]


def _walk(rows, p):
    """Each leading block's valuations from the walk over the integer
    staircase ``rows``, ascending, zeros included, as ``local_snf`` gives
    them; and the longest tail."""
    blocks, longest = [], 0
    for pivots, tail in staircase_cokernels(_path(valuation_rows(rows, p))):
        blocks.append(tuple(sorted([*pivots.elements(), *tail])))
        longest = max(longest, len(tail))
    return blocks, longest


WALK_MAX = size("tests/test_linalg.py::test_walk_matches_local_snf_at_every_even_degree")


@pytest.mark.parametrize("p", [3, 101])
def test_walk_matches_local_snf_at_every_even_degree(p):
    # Block k of the largest cyclic staircase presents HC in degree
    # 2(k - 1).  The walk's stack never holds more than three entries, so
    # a tail has at most two.  Each block is a path, so cokernel_shape
    # reads it too.  The oracle walks the same valuations.
    prime = Prime(p)
    rows = cyclic_matrix(prime, WALK_MAX)
    vrows = valuation_rows(rows, prime)
    assert _path(vrows) == list(_staircase(prime, 1, 2, 0, WALK_MAX // 2 + 1))
    blocks, longest = _walk(rows, prime)
    assert len(blocks) == WALK_MAX // 2 + 1 and longest <= 2
    for k, got in enumerate(blocks, 1):
        assert got == local_snf(rows[:k], prime), k
        assert cokernel_shape(vrows[:k]) == ModuleShape(got), k


@pytest.mark.parametrize("p", [3, 101])
def test_walk_matches_local_snf_on_negative_staircases(p):
    # Every m < 80 and truncation K < 60: p^2 down the diagonal and m + 1,
    # m + 3, ... below it.  The probe walks the same valuations.
    prime = Prime(p)
    for m in range(2, 80, 2):
        rows = [{0: p * p}] + [{k - 1: m + 2 * k - 1, k: p * p} for k in range(1, 59)]
        assert _path(valuation_rows(rows, prime)) == list(_staircase(prime, 2, 2, m, 59))
        blocks, longest = _walk(rows, prime)
        assert longest <= 2
        for k, got in enumerate(blocks, 1):
            assert got == local_snf(rows[:k], prime), (m, k)


def test_staircase_carries_valuations_above_255():
    # The negative staircase at m = 3^300 - 601, where m - 1 is in Z2, so
    # hcneg --prime 3 --degree m --truncation 350 reads it: below the
    # diagonal, the entry at k = 300 is v_3(3^300) = 300, which no byte
    # holds.
    m = 3**300 - 601
    below = [vp(P3, m + 1 + 2 * k) for k in range(350)]
    assert below[300] == 300
    assert list(_staircase(P3, 2, 2, m, 351)) == [2, *itertools.chain.from_iterable((v, 2) for v in below)]


def test_walk_pivots_every_tie_at_once():
    # All entries of one valuation: each tie pivots as it comes in, so the
    # stack never grows past one entry, and block k, p times a unimodular
    # matrix, has cokernel (R/p)^k.
    rows = [{0: 3}] + [{k - 1: -3, k: 6} for k in range(1, 50)]
    for k, (pivots, tail) in enumerate(staircase_cokernels(_path(valuation_rows(rows, P3))), 1):
        assert tail == [1] and sorted(pivots.elements()) == [1] * (k - 1)


@st.composite
def _staircases(draw):
    """A prime and a staircase whose entries are +-p^e * u, u a unit."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=8))
    units = st.sampled_from([u for u in range(1, 61) if u % p])
    entry = st.builds(lambda s, e, u: s * p**e * u, st.sampled_from([1, -1]), st.integers(0, 4), units)
    rows = [{0: draw(entry)}] + [{k - 1: draw(entry), k: draw(entry)} for k in range(1, n)]
    return Prime(p), rows


# Every valuation is 1, so each entry coming in ties with the top of the
# stack.
@example((Prime(3), [{0: 3}, {0: 3, 1: 3}, {1: 3, 2: 3}]))
@settings(max_examples=200, deadline=None)
@given(_staircases())
def test_walk_matches_local_snf_and_sympy_on_random_staircases(case):
    p, rows = case
    blocks, _ = _walk(rows, p)
    for k, got in enumerate(blocks, 1):
        assert got == local_snf(rows[:k], p), k
    if sympy is not None:
        n = len(rows)
        dense = sympy.Matrix(_dense(rows).data)
        form = smith_normal_form(dense, domain=sympy.ZZ)
        assert blocks[-1] == tuple(sorted(vp(p, form[k, k]) for k in range(n)))


def _blocks(path):
    """The valuation rows of each leading square block of the staircase
    whose valuations in path order are ``path``."""
    rows = []
    for k, v in enumerate(path):
        if k % 2 == 0 and k:
            rows[-1][k // 2] = v  # d_{k/2}, beside s_{k/2}
        else:
            rows.append({k // 2: v})  # d_0, or s_{(k+1)/2} opening its row
        if k % 2 == 0:
            yield [dict(row) for row in rows]


# A path that ends below the diagonal has no block for its last entry;
# an empty path has no block at all.
@example([])
@example([0, 6])
@example([6, 5, 4, 3, 2, 1, 0])
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), max_size=60))
def test_walk_matches_cokernel_shape_on_random_valuation_paths(path):
    # The stack walk against the heap elimination, valuations only.
    walked = staircase_cokernels(path)
    for k, rows in enumerate(_blocks(path), 1):
        pivots, tail = next(walked)
        assert sum(pivots.values()) + len(tail) == k
        assert ModuleShape(pivots + Counter(tail)) == cokernel_shape(rows), (k, rows)
    assert next(walked, None) is None


def test_module_shape_canonical_form():
    s = ModuleShape((0, 1, 3, 0, 2, 3))
    assert s.torsion == ((3, 2), (2, 1), (1, 1))
    assert s.torsion_exponents == [3, 3, 2, 1]
    assert s.p_length == 9
    # Keyword input, a mapping from exponent to count, and the tuple-record
    # rebuilders, which take runs, canonicalise too.
    assert ModuleShape(torsion=(0, 1, 3)) == ModuleShape((3, 1)) == ModuleShape((1, 3, 0))
    assert ModuleShape({1: 1, 0: 4, 3: 1, 2: 0, -1: 2}) == ModuleShape((3, 1))
    assert hash(ModuleShape(torsion=(0, 1, 3))) == hash(ModuleShape((3, 1)))
    assert s._replace(torsion=((0, 1), (1, 1), (4, 1))).torsion_exponents == [4, 1]
    assert ModuleShape._make([((0, 1), (2, 1), (5, 1)), 1, 0, None]) == ModuleShape((5, 2), free_rank=1)
    assert ModuleShape(dict(s.torsion)) == s
    assert str(ModuleShape((2,), complete_rank=1, n_max=9)) == "R^ x R/p^2 x ..."
    # str joins the factors' runs, a count 0 for a kind that does not occur.
    assert ModuleShape((2,), complete_rank=1, n_max=9).factors() == [("R^", 1), ("R", 0), ("R/p^2", 1), ("...", 1)]
    assert s.factors() == [("R^", 0), ("R", 0), ("R/p^3", 2), ("R/p^2", 1), ("R/p", 1), ("...", 0)]
    assert str(s) == "R/p^3 x R/p^3 x R/p^2 x R/p"
    assert str(TRIVIAL_SHAPE) == "0"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=40)), st.sampled_from(["list", "generator", "mapping"]))
def test_module_shape_canonical_form_matches_filter_then_sort(exponents, given_as):
    # The canonical form as first defined: drop exponents <= 0, then sort;
    # the runs are its runs of equal exponents.
    want = sorted((e for e in exponents if e > 0), reverse=True)
    given_exponents = {
        "list": exponents,
        "generator": (e for e in exponents),
        "mapping": Counter(exponents),
    }[given_as]
    shape = ModuleShape(given_exponents)
    assert shape.torsion_exponents == want
    assert shape.torsion == tuple((e, len(list(g))) for e, g in itertools.groupby(want))
    assert shape.p_length == sum(want)


def test_submodule_rejects_dimension_mismatch():
    # A zero entry still names its column, and Z/9 has no column 1.
    with pytest.raises(ValueError):
        submodule_equal_mod(P3, [{0: 1, 1: 0}], [{0: 1}], [9])


@pytest.mark.parametrize("column", [-1, 2])
def test_submodule_rejects_a_column_outside_the_moduli(column):
    # Columns name the factors of Z/9 x Z/9, and -1 and 2 name none, on
    # either side of the comparison.
    for rows_a, rows_b in ([{column: 1}], [{0: 1}]), ([{0: 1}], [{0: 1, column: 3}]):
        with pytest.raises(ValueError, match=r"range\(2\)"):
            submodule_equal_mod(P3, rows_a, rows_b, [9, 9])


@pytest.mark.parametrize("moduli", [[6], [0], [-9], [25], [9, 10]])
def test_submodule_rejects_moduli_that_are_not_p_powers(moduli):
    gens = [dict.fromkeys(range(len(moduli)), 1)]
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


# A span against itself, and e1 against e2; a change of generators; a
# recombination, and a reordering; p*e1 strictly inside e1.
@example((P3, [[1, 0], [0, 1]], [[1, 0], [0, 1]], [9, 9]))
@example((P3, [[1, 0]], [[0, 1]], [9, 9]))
@example((P3, [[3, 0], [0, 1]], [[3, 1], [0, 1]], [27, 3]))
@example((P3, [[3, 1, 0], [0, 3, 3]], [[3, 1, 0], [3, 4, 3], [0, -3, -3]], [27, 27, 9]))
@example((P3, [[0, 3, 3], [3, 1, 0]], [[3, 1, 0], [0, 3, 3]], [27, 27, 9]))
@example((P3, [[3]], [[1]], [27]))
# Equal spans that a Hermite form reduced above its pivots from the last
# pivot upwards tells apart: rows (3, 0, -36) against (3, 0, 189).
@example((P3, [[15, -19, -11], [0, -28, 28]], [[0, -94, 22], [15, 94, -67], [0, -75, -45]], [9, 3, 3]))
@settings(max_examples=300, deadline=None)
@given(_submodule_pairs())
def test_submodule_equal_matches_span_enumeration(case):
    p, gens_a, gens_b, moduli = case
    want = _span(gens_a, moduli) == _span(gens_b, moduli)
    # _span adds the drawn vectors; the function takes them as rows.
    rows_a, rows_b = ([dict(enumerate(g)) for g in gens] for gens in (gens_a, gens_b))
    assert submodule_equal_mod(p, rows_a, rows_b, moduli) == want


@settings(max_examples=200, deadline=None)
@given(_submodule_pairs(), st.integers(0, 3), st.data())
def test_submodule_verdict_ignores_a_column_no_generator_touches(case, e, data):
    # A column zero in every generator on both sides splits off the same
    # Z/p^e from all three quotients, so verify_kernel_generators may leave
    # out every coordinate its generators do not touch.
    p, gens_a, gens_b, moduli = case
    rows_a, rows_b = ([dict(enumerate(g)) for g in gens] for gens in (gens_a, gens_b))
    verdict = submodule_equal_mod(p, rows_a, rows_b, moduli)
    at = data.draw(st.integers(0, len(moduli)), label="new column")

    def shifted(rows):
        return [{c + (c >= at): x for c, x in row.items()} for row in rows]

    wider = moduli[:at] + [p.p**e] + moduli[at:]
    assert submodule_equal_mod(p, shifted(rows_a), shifted(rows_b), wider) == verdict


def test_intmatrix_validation_and_the_det_helper():
    # IntMatrix only carries snf's input.
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    assert IntMatrix([[2, 1], [1, 2]]).data == [[2, 1], [1, 2]]
    assert _det([[2, 1], [1, 2]]) == 3
    assert _det([[1, 2], [2, 4]]) == 0
