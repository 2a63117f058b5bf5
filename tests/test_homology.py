from collections import Counter
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from cychom.gaps import enumerate_z2, gap, in_z1, in_z2
from cychom.homology import (
    Check,
    connes_length_check,
    cyclic_matrix,
    hc_closed_form,
    hc_neg_closed_form,
    hc_neg_truncation_probe,
    hc_oracle,
    hochschild,
    hp,
    hp_stabilization_check,
    phi_coeff_texts,
    phi_coeffs,
    verify_checks,
    verify_kernel_generators,
    verify_presentation,
    _hc_walk,
)
from cychom.linalg import ModuleShape, TRIVIAL_SHAPE
from cychom.padic import Prime, a_val, b_val, odd_valuations, seq_b, vp
from residue import residue
from sweeps import size
from valuation_rows import frac_vp

P3 = Prime(3)
P5 = Prime(5)
P7 = Prime(7)


def _shapes(p, i_max):
    """The oracle's HC shape in every even degree up to i_max."""
    return {i: hc_oracle(p, i).shape for i in range(0, i_max + 1, 2)}


def _walk_shapes(p, i_max):
    """The oracle's HC shapes in the even degrees 0, 2, ..., i_max, in
    order, from one walk to i_max: each block's shape is made as the walk
    reaches it, and the walk moves on only when it is asked for the next."""
    return (ModuleShape(pivots + Counter(tail)) for pivots, tail in _hc_walk(p, i_max))


def _z1_heads(p, shapes):
    """The largest exponents of ``shapes``, the even degrees 0, 2, ... in
    order, at each degree i >= 2 with i - 1 in Z1: what
    ``hp_stabilization_check`` reads."""
    return [shape.torsion[0][0] for i, shape in zip(count(0, 2), shapes) if i and in_z1(p, i - 1)]


def _fed_walk(shapes):
    """A stand-in for ``_hc_walk`` that yields ``shapes`` as its blocks'
    (pivots, tail), one a degree."""
    return lambda p, i_max: ((Counter(dict(shape.torsion)), []) for shape in shapes)


def test_hochschild_table():
    assert hochschild(P3, 0).shape == ModuleShape((1,))
    assert hochschild(P5, 4).shape == ModuleShape((2,))
    assert hochschild(P7, 3).shape == TRIVIAL_SHAPE
    with pytest.raises(ValueError):
        hochschild(P3, -1)


def test_cyclic_matrix_entries():
    assert cyclic_matrix(P3, 2) == [{0: 3}, {0: 1, 1: 9}]
    assert cyclic_matrix(P3, 4) == [{0: 3}, {0: 1, 1: 9}, {1: 3, 2: 9}]
    m6 = cyclic_matrix(P5, 6)
    assert [m6[k][k - 1] for k in range(1, 4)] == [1, 3, 5]
    # Two diagonals: 2 * (size) - 1 entries, not size^2.
    assert sum(map(len, cyclic_matrix(P3, 4000))) == 2 * 2001 - 1
    with pytest.raises(ValueError):
        cyclic_matrix(P3, 5)


def test_hc_oracle_values():
    assert hc_oracle(P3, 0).shape == ModuleShape((1,))
    assert hc_oracle(P3, 2).shape == ModuleShape((3,))
    assert hc_oracle(P3, 6).shape == ModuleShape((6, 1))
    assert hc_oracle(P5, 5).shape == TRIVIAL_SHAPE
    assert hc_oracle(P3, 11).shape == TRIVIAL_SHAPE


def test_hc_oracle_walks_no_staircase_at_an_odd_degree(monkeypatch):
    # An odd degree is zero because the staircase map is injective; the
    # walk would only confirm that.
    from cychom import homology

    walks = []
    real = homology.staircase_cokernels
    monkeypatch.setattr(homology, "staircase_cokernels", lambda path: walks.append(path) or real(path))
    for i in (1, 5, 999, 999999):
        res = hc_oracle(P3, i)
        assert (res.degree, res.shape, res.method) == (i, TRIVIAL_SHAPE, "oracle")
    assert walks == []
    assert hc_oracle(P3, 6).shape == ModuleShape((6, 1))
    assert len(walks) == 1


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_two_routes_agree_near_degree_1000(p):
    prime = Prime(p)
    covered = 0
    for i in (998, 1000, 1002):
        oracle = hc_oracle(prime, i).shape
        assert oracle.p_length == i + 1  # Connes
        closed = hc_closed_form(prime, i)
        if closed is not None:
            covered += 1
            assert closed.shape == oracle
    assert covered >= 2


SWEEP_MAX = size("tests/test_homology.py::test_two_routes_agree_at_every_even_degree_of_the_sweep")

# The census: how many even degrees up to each bound no closed form covers.
UNCOVERED = {
    10**4: {3: 249, 5: 42, 7: 15, 11: 4, 13: 2, 101: 0, 1009: 0},
    2 * 10**5: {3: 4961, 5: 833, 7: 298, 11: 76, 13: 46, 101: 0, 1009: 0},
}


def _horizontal_strip_of_two(big: ModuleShape, small: ModuleShape) -> bool:
    """Whether big/small, as partitions, is a horizontal strip of two boxes
    (Pieri's rule): |big| = |small| + 2, and at every exponent e of either
    shape, #(parts >= e) of big less that of small is 0 or 1.  Read off the
    runs, highest exponent first, so no partition is expanded."""
    if big.p_length != small.p_length + 2:
        return False
    counts = {}
    for e, n in big.torsion:
        counts[e] = counts.get(e, 0) + n
    for e, n in small.torsion:
        counts[e] = counts.get(e, 0) - n
    excess = 0
    for e in sorted(counts, reverse=True):
        excess += counts[e]
        if excess not in (0, 1):
            return False
    return True


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009])
def test_two_routes_agree_at_every_even_degree_of_the_sweep(p):
    # Every even degree, covered or not, from one walk: the oracle's
    # p-length is i + 1 (Connes), its heads past the Z1 members never
    # fall, and a closed form, where one exists, its tail the periodic
    # torsion, is the oracle's shape.  The degrees left uncovered are
    # counted.  Since
    # 0 -> HH_i = R/p^2 -> HC_i -> HC_{i-2} -> 0 is exact for even i >= 2
    # (Connes' SBI sequence), HC_i / HC_{i-2} is a horizontal strip of two
    # boxes (Pieri's rule, by Green's theorem on Hall polynomials).
    # The walk is read a block at a time, each paired with the one before
    # it, so no degree's shape outlives the next.
    prime = Prime(p)
    shapes = _walk_shapes(prime, SWEEP_MAX)
    previous = next(shapes)
    lengths, heads, uncovered = [previous.p_length], [], 0
    for i, shape in zip(count(2, 2), shapes):
        lengths.append(shape.p_length)
        if in_z1(prime, i - 1):
            heads.append(shape.torsion[0][0])
        assert _horizontal_strip_of_two(shape, previous), i
        closed = hc_closed_form(prime, i)
        if closed is None:
            uncovered += 1
        else:
            assert closed.shape == shape, i
        previous = shape
    assert i == SWEEP_MAX
    assert connes_length_check(lengths).ok
    assert hp_stabilization_check(heads).ok
    if SWEEP_MAX in UNCOVERED:
        assert uncovered == UNCOVERED[SWEEP_MAX][p]


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_two_routes_agree_at_every_even_degree_to_600(p):
    # The same from hc_oracle, the per-degree walk that ``hc`` runs.
    prime = Prime(p)
    shapes = _shapes(prime, 600)
    assert connes_length_check([shape.p_length for shape in shapes.values()]).ok
    covered = 0
    for i in range(2, 601, 2):
        closed = hc_closed_form(prime, i)
        if closed is not None:
            covered += 1
            assert closed.shape == shapes[i], i
    assert covered >= 250


@pytest.mark.parametrize("p", [3, 101])
def test_one_walk_gives_the_oracle_at_every_even_degree(p):
    # Every leading block of one walk, read as it comes, is the shape the
    # walk to that degree alone ends with.
    prime = Prime(p)
    assert dict(zip(count(0, 2), _walk_shapes(prime, 300))) == _shapes(prime, 300)
    assert list(_walk_shapes(prime, 0)) == [ModuleShape((1,))]
    with pytest.raises(ValueError):
        hc_oracle(prime, -2)


def test_oracle_makes_no_integer_snf(monkeypatch):
    # Every oracle reads valuations: the package's one integer engine is
    # left to verify's kernel-generator check.
    from cychom import homology, linalg

    def forbidden(*args):
        raise AssertionError("snf called")

    monkeypatch.setattr(linalg, "snf", forbidden)
    monkeypatch.setattr(homology, "snf", forbidden, raising=False)
    for i in range(0, 13):
        hc_oracle(P3, i)
        hochschild(P5, i)
    assert hc_neg_truncation_probe(P3, 6, 6).ok
    assert verify_presentation(P3, 5, hc_oracle(P3, 6).shape).ok


def test_valuation_routes_take_no_integer(monkeypatch):
    # The walk and cokernel_shape read the valuations homology states each
    # matrix by; they take no prime and value no entry.  linalg's vp is
    # left to submodule_equal_mod.
    from cychom import linalg

    def forbidden(*args):
        raise AssertionError("linalg.vp called")

    monkeypatch.setattr(linalg, "vp", forbidden)
    assert hc_oracle(P3, 400).shape == hc_closed_form(P3, 400).shape
    assert hc_oracle(P3, 400).shape.p_length == 401
    shapes = list(_walk_shapes(Prime(101), 40))
    assert connes_length_check([shape.p_length for shape in shapes]).ok
    hh = [hochschild(P5, i).shape for i in range(6)]
    assert hh == [ModuleShape((1,)), TRIVIAL_SHAPE, ModuleShape((2,)), TRIVIAL_SHAPE, ModuleShape((2,)), TRIVIAL_SHAPE]
    for i in range(1, 40, 2):
        assert verify_presentation(Prime(101), i, shapes[(i + 1) // 2]).ok
    assert hc_neg_truncation_probe(P3, 6, 300).ok


def test_hc_closed_form_examples():
    assert hc_closed_form(P3, 6).shape == hc_oracle(P3, 6).shape == ModuleShape((6, 1))
    # 29 is excluded from Z1 but 31 is in Z2: covered through the second clause.
    r30 = hc_closed_form(P3, 30)
    assert r30.shape.torsion_exponents[0] == a_val(P3, 31)
    assert r30.shape == hc_oracle(P3, 30).shape
    assert hc_closed_form(P3, 28) is None
    with pytest.raises(ValueError):
        hc_closed_form(P3, 7)


def test_hc_closed_form_clauses_agree_when_both_apply():
    for i in range(2, 40, 2):
        from cychom.gaps import in_z1, in_z2

        if in_z1(P3, i - 1) and in_z2(P3, i + 1):
            assert a_val(P3, i - 1) + 2 == a_val(P3, i + 1)


def test_hp_shapes():
    assert hp(P3, 0, 11).shape == ModuleShape((1, 2), complete_rank=1, n_max=11)
    assert hp(P5, -4, 9).shape == ModuleShape((1,), complete_rank=1, n_max=9)
    assert hp(P3, 3, 9).shape == TRIVIAL_SHAPE
    with pytest.raises(ValueError):
        hp(P3, 0, 10)


def test_hc_neg_closed_form():
    assert hc_neg_closed_form(P3, -2, 9).shape == hp(P3, 0, 9).shape
    r = hc_neg_closed_form(P3, 6, 15)
    assert r.shape == ModuleShape((2, 1), complete_rank=1, n_max=15)
    assert hc_neg_closed_form(P3, 26, 29) is None
    assert hc_neg_closed_form(P3, 5, 9).shape == TRIVIAL_SHAPE


def test_phi_coeffs_examples():
    base = phi_coeffs(P3, 1, 1)
    assert base == (3, ((1, 1),))
    mid = phi_coeffs(P3, 3, 5)
    assert mid.head == 9
    assert mid.components == ((1, seq_b(P3, 2)), (3, 1), (5, 0))
    assert {type(mid.head)} | {type(v) for _, v in mid.components} == {Fraction}
    top = phi_coeffs(P3, 5, 5)
    assert frac_vp(P3, top.head) == 4
    assert top.components[-1] == (5, 1)
    with pytest.raises(ValueError):
        phi_coeffs(P3, 5, 3)
    with pytest.raises(ValueError):
        phi_coeffs(P3, 2, 5)


@pytest.mark.parametrize("p", [P3, P5])
def test_phi_coeffs_components_are_seq_b(p):
    for j in range(1, 82, 2):
        vec = phi_coeffs(p, j, j)
        assert vec.components == tuple((n, seq_b(p, j - n)) for n in range(1, j + 1, 2))


@pytest.mark.parametrize("p", [P3, P5])
def test_phi_coeffs_zero_pattern(p):
    # A component can survive in R/n for j > n only inside the gap window.
    for j in range(1, 40, 2):
        vec = phi_coeffs(p, j, 39)
        for n, value in vec.components:
            if n < j and vp(p, n) > 0 and frac_vp(p, value) < vp(p, n):
                assert j - n <= gap(p, n)


@pytest.mark.parametrize("p", [P3, P5, P7, Prime(101)])
def test_phi_coeff_texts_match_phi_coeffs(p):
    for j in range(1, 60, 2):
        vec = phi_coeffs(p, j, j + 4)
        head, head_valuation, rows = phi_coeff_texts(p, j, j + 4)
        assert (head, head_valuation) == (str(vec.head), frac_vp(p, vec.head))
        # A row's value is the parts of its text: the digits, then "/" and
        # the digits of the denominator when it is not 1.
        rows = [(n, "".join(parts), v) for n, parts, v in rows if parts[1:] in ((), ("/", parts[-1]))]
        assert rows == [(n, str(v), None if v == 0 else frac_vp(p, v)) for n, v in vec.components]


@pytest.mark.parametrize("j,i", [(5, 3), (2, 5), (3, 4), (0, 5), (-1, 1)])
def test_phi_coeff_texts_rejects_what_phi_coeffs_rejects(j, i):
    for f in (phi_coeffs, phi_coeff_texts):
        with pytest.raises(ValueError, match="need odd indices"):
            f(P3, j, i)


# At (3, 27) the relation's entries must sit on their own coordinates: read
# in reverse order, they rebuild the wrong module there.
@pytest.mark.parametrize("p,i", [(P3, 1), (P3, 5), (P3, 9), (P5, 7), (P7, 3), (P3, 27)])
def test_presentation_matches_oracle(p, i):
    rep = verify_presentation(p, i, hc_oracle(p, i + 1).shape)
    assert rep.ok, rep


PRESENTATION_MAX = size("tests/test_homology.py::test_presentation_matches_the_walk_at_every_odd_index_of_the_sweep")


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009])
def test_presentation_matches_the_walk_at_every_odd_index_of_the_sweep(p):
    # Index i meets the walk's block of degree i + 1 as the walk reaches it.
    prime = Prime(p)
    shapes = _walk_shapes(prime, PRESENTATION_MAX)
    next(shapes)  # degree 0
    for i, shape in zip(range(1, PRESENTATION_MAX, 2), shapes):
        rep = verify_presentation(prime, i, shape)
        assert rep == Check(f"colimit presentation {i}", True, ""), rep
    assert i == PRESENTATION_MAX - 1
    with pytest.raises(ValueError, match="odd and positive"):
        verify_presentation(prime, 4, shape)


def test_kernel_generators():
    # A plain bool, never a record, which would test true either way.
    assert verify_kernel_generators(P3, 5, 0) is True
    assert verify_kernel_generators(P3, 5, 6) is True
    assert verify_kernel_generators(P3, 7, 8) is True
    with pytest.raises(ValueError, match="Z2"):
        verify_kernel_generators(P3, 25, 0)
    with pytest.raises(ValueError):
        verify_kernel_generators(P3, 5, 3)
    # The product is the head and the odd multiples of p in [i, i + upto]
    # alone, so upto has no ceiling tied to i: 3i + 3 and past it hold too.
    assert verify_kernel_generators(P3, 5, 16) is True
    assert verify_kernel_generators(P3, 5, 18) is True
    assert verify_kernel_generators(P3, 7, 24) is True
    assert verify_kernel_generators(P5, 3, 40) is True


def test_kernel_generator_equality_is_not_vacuous():
    # Rebuild the comparison by hand for excluded i=25: the head valuations
    # dip (a_27 < a_25), so the simple generators cannot span the psi's.
    from cychom.linalg import submodule_equal_mod
    from cychom.padic import seq_a

    i, upto = 25, 8
    head_mod = 3 ** (a_val(P3, i) + 6)
    coords = [n for n in range(1, 4 * i + 2, 2) if vp(P3, n) > 0]
    moduli = [head_mod] + [3 ** vp(P3, n) for n in coords]

    def psi(j):
        row = {0: residue(seq_a(P3, j), head_mod)}
        for k, n in enumerate(coords, 1):
            if n <= j:
                row[k] = residue(seq_b(P3, j - n), 3 ** vp(P3, n))
        return row

    gens_a = [psi(i + j) for j in range(0, upto + 1, 2)]
    gens_b = [{0: residue(seq_a(P3, i), head_mod)}]
    gens_b += [{1 + coords.index(i + j): 1} for j in range(0, upto + 1, 2) if (i + j) in coords]
    assert not submodule_equal_mod(P3, gens_a, gens_b, moduli)


def test_kernel_generator_check_fails_at_25_in_its_own_coordinates(monkeypatch):
    # With the Z2 gate lifted, the check over the head and the odd multiples
    # of p in [i, i + upto] alone still fails where the comparison above,
    # over every odd multiple of p up to 4i + 1, fails.
    from cychom import homology

    monkeypatch.setattr(homology, "in_z2", lambda p, i: True)
    assert verify_kernel_generators(P3, 25, 8) is False
    assert verify_kernel_generators(P3, 27, 0) is False


def test_connes_length_recursion():
    lengths = [shape.p_length for shape in _shapes(P3, 12).values()]
    assert lengths == list(range(1, 14, 2))
    assert connes_length_check(lengths) == Check("connes length recursion", True, "")
    assert connes_length_check([1]).ok  # vacuous base
    # The check reads the length of every degree, the first and last too:
    # one more factor R/p anywhere breaks it there.
    for k in range(7):
        rep = connes_length_check([n + (j == k) for j, n in enumerate(lengths)])
        assert rep == Check("connes length recursion", False, f"degree {2 * k}: length {2 * k + 2} != {2 * k + 1}"), k
    # The k-th length is degree 2k's, whatever the others are.
    rep = connes_length_check([1, 3, 4, 7])
    assert not rep.ok
    assert rep.detail == "degree 4: length 4 != 5"


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([3, 5, 101]),
    st.integers(0, 10),
    st.lists(st.tuples(st.integers(0, 10), st.integers(0, 3), st.lists(st.integers(1, 4), max_size=3)), max_size=4),
)
def test_connes_verdict_is_the_two_clause_one(p, k, perturbations):
    # The oracle's shapes up to degree 2k, some of them with their smallest
    # factors dropped and others added, which may cancel: the length clause
    # alone gives the verdict of "length i + 1 and step 2 in every degree".
    shapes = list(_walk_shapes(Prime(p), 2 * k))
    for d, dropped, added in perturbations:
        exponents = shapes[d % (k + 1)].torsion_exponents
        shapes[d % (k + 1)] = ModuleShape(exponents[: max(len(exponents) - dropped, 0)] + added)
    lengths = [shape.p_length for shape in shapes]
    steps = [b - a for a, b in zip(lengths, lengths[1:])]
    reference = all(n == i + 1 for i, n in zip(range(0, 2 * k + 1, 2), lengths)) and all(s == 2 for s in steps)
    assert connes_length_check(lengths).ok == reference


def test_hp_stabilization():
    assert hp_stabilization_check(_z1_heads(P3, _shapes(P3, 14).values())) == Check("hp stabilization", True, "")
    assert hp_stabilization_check(_z1_heads(P5, _shapes(P5, 26).values())).ok
    assert hp_stabilization_check([]).ok  # vacuous


@pytest.mark.parametrize("hc_max", [1, 0, -2])
def test_verify_checks_refuses_hc_max_below_2_before_any_record(hc_max):
    # Degree 2 is the first that the hc records and the stabilization's
    # heads read: a smaller hc_max is refused before the Hochschild records,
    # not after them.
    with pytest.raises(ValueError, match="hc_max must be >= 2"):
        next(verify_checks(P3, hc_max))
    assert next(verify_checks(P3, 2)) == Check("hochschild degree 0", True, "")


@pytest.mark.parametrize("p, i_max, tested", [(P3, 14, [2, 6, 8, 12, 14]), (P5, 26, [2, 4, 8, 10, 12, 14, 18, 20, 22, 24])])
def test_hp_stabilization_tests_each_degree_past_a_z1_member(monkeypatch, p, i_max, tested):
    # The degrees i with i - 1 in Z1 have the head a_{i-1} + 2 over HP's
    # torsion cut at i - 1, and the ``hc degree i`` record compares the
    # oracle with exactly that closed form: one head raised by one, in the
    # walk verify reads, fails that degree's record, and no other hc
    # record.  The heads rise strictly here, so raised by one they still
    # rise, and the stabilization record stays ok.
    from cychom import homology

    assert tested == [i for i in range(2, i_max + 1, 2) if in_z1(p, i - 1)]
    oracle = list(_walk_shapes(p, i_max))
    heads = _z1_heads(p, oracle)
    assert heads == [a_val(p, i - 1) + 2 for i in tested]
    assert all(a < b for a, b in zip(heads, heads[1:]))
    for i, head in zip(tested, heads):
        shapes = list(oracle)
        shapes[i // 2] = ModuleShape([head + 1, *oracle[i // 2].torsion_exponents[1:]])
        monkeypatch.setattr(homology, "_hc_walk", _fed_walk(shapes))
        checks = list(verify_checks(p, i_max))
        failed = [c.name for c in checks if c.name.startswith("hc degree") and not c.ok]
        assert failed == [f"hc degree {i}"], i
        assert Check("hp stabilization", True, "") in checks, i


def test_hp_stabilization_passes_a_raised_head_while_the_heads_rise():
    # A Z1 head raised by one is the hc degree record's to catch.  Up to
    # degree 60 the heads along the Z1 degrees rise by 2 or more at each
    # step, so one raised by one still rises, and the stabilization record
    # stays ok.
    for p in (P3, P5, P7):
        heads = _z1_heads(p, _shapes(p, 60).values())
        assert all(b - a >= 2 for a, b in zip(heads, heads[1:]))
        for k in range(len(heads)):
            raised = [e + (j == k) for j, e in enumerate(heads)]
            assert hp_stabilization_check(raised) == Check("hp stabilization", True, ""), (p, k)


def test_truncation_probe():
    rep = hc_neg_truncation_probe(P3, 6, 6)
    assert rep.ok and rep.stable_prefix == ((1, 1), (2, 1)) and rep.covered_up_to == 15
    assert hc_neg_truncation_probe(P3, 2, 1).vacuous
    assert hc_neg_truncation_probe(P5, 8, 8).ok
    with pytest.raises(ValueError, match="Z2"):
        hc_neg_truncation_probe(P5, 6, 8)  # 5 is a multiple of 5


def test_hp_stabilization_names_each_fall(monkeypatch):
    # The heads along the Z1 degrees 2, 6, 8, 12, 14 are 3, 6, 8, 10, 12;
    # 8 and 14 lowered, in the walk verify reads, make two falls.  Degree 4
    # is not read: 3 is not in Z1.
    from cychom import homology

    shapes = list(_walk_shapes(P3, 14))
    assert [shapes[i // 2].torsion_exponents[0] for i in (2, 6, 8, 12, 14)] == [3, 6, 8, 10, 12]
    monkeypatch.setattr(homology, "_hc_walk", _fed_walk(shapes))

    def stabilization():
        return next(c for c in verify_checks(P3, 14) if c.name == "hp stabilization")

    shapes[2] = ModuleShape((1,))
    assert stabilization().ok
    shapes[4] = ModuleShape((5, 1))
    shapes[7] = ModuleShape((9, 2, 1, 1))
    falls = "head exponents decrease: 6 -> 5; head exponents decrease: 10 -> 9"
    assert stabilization() == Check("hp stabilization", False, falls)
    assert hp_stabilization_check([3, 6, 5, 10, 9]) == Check("hp stabilization", False, falls)


def _closed_form_reference(p, i):
    """The closed form without ``hp``: the head and the counts of v_p(n)
    over the odd n in [3, i - 1]."""
    if in_z1(p, i - 1):
        head = a_val(p, i - 1) + 2
    elif in_z2(p, i + 1):
        head = a_val(p, i + 1)
    else:
        return None
    counts = odd_valuations(p, 3, i - 1)
    counts[head] = counts.get(head, 0) + 1
    return ModuleShape(counts)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009])
def test_hc_closed_form_tail_is_the_odd_valuations_from_3(p):
    # HP's torsion cut at i - 1 counts v_p(n) over the odd n from 1, and
    # v_p(1) = 0, so the closed form is the one built from 3 on.
    prime = Prime(p)
    for i in range(2, 10**4 + 1, 2):
        closed = hc_closed_form(prime, i)
        assert (closed and closed.shape) == _closed_form_reference(prime, i), i


def test_a_skewed_hp_fails_the_covered_hc_degree_records(monkeypatch):
    # The closed form takes its tail from ``hp``, so a wrong HP fails the
    # hc record of every covered degree where HP's true torsion cut at
    # i - 1 differs from it, and nothing else.
    from cychom import homology

    skewed = ModuleShape((2, 1, 1))
    monkeypatch.setattr(homology, "hp", lambda p, i, n_max: homology.HomologyResult("HP", 0, skewed, "closed_form"))
    checks = list(verify_checks(P3, 40))
    failed = [c.name for c in checks if not c.ok]
    expected = [
        f"hc degree {i}"
        for i in range(2, 41, 2)
        if _closed_form_reference(P3, i) is not None and ModuleShape(odd_valuations(P3, 1, i - 1)) != skewed
    ]
    assert failed == expected
    # HP's torsion cut at 15, 17 and 19 is R/p^2 x R/p x R/p.
    assert all(f"hc degree {i}" not in failed for i in (16, 18, 20)) and len(failed) > 10


def test_truncation_probe_without_a_matching_offset(monkeypatch):
    # Block K has pivoted out R/p (and two unit factors), but the one cut
    # with one factor ends at 9 = m + 1, which brings in R/p^2, so no
    # offset matches.
    from collections import Counter

    from cychom import homology

    monkeypatch.setattr(homology, "staircase_cokernels", lambda path: iter([(Counter({0: 2, 1: 1}), [5])] * 8))
    rep = hc_neg_truncation_probe(P3, 8, 8)
    assert rep == (False, False, ((1, 1),), None, "no truncation offset matches")


def test_truncation_probe_tries_cuts_up_to_k_plus_3_odd_steps(monkeypatch):
    # Pivots R/p^2 x R/p x R/p match the closed form of m = 8 cut at 21
    # (9, 15 and 21 are the odd multiples of 3 past 7): 7 steps past
    # m - 1, so K = 4 reaches it and K = 3 does not.
    from collections import Counter

    from cychom import homology

    monkeypatch.setattr(
        homology, "staircase_cokernels", lambda path: iter([(Counter({0: 1, 2: 1, 1: 2}), [9])] * 4)
    )
    assert hc_neg_truncation_probe(P3, 8, 4)[:4] == (True, False, ((1, 2), (2, 1)), 21)
    assert hc_neg_truncation_probe(P3, 8, 3) == (False, False, ((1, 2), (2, 1)), None, "no truncation offset matches")


def test_truncation_probe_sweep():
    for k in range(2, 12):
        assert hc_neg_truncation_probe(P3, 8, k).ok


def _block_pivots(p, m, truncation):
    """The pivots the walk of the K-square negative staircase has emitted
    by block K, unit factors left out: a Counter of exponents."""
    from collections import Counter

    from cychom.homology import _staircase
    from cychom.linalg import staircase_cokernels

    for pivots, _ in staircase_cokernels(_staircase(p, 2, 2, m, truncation)):
        pass
    return Counter({e: n for e, n in pivots.items() if e})


def _probe_by_the_closed_form(p, m, truncation):
    # The probe with the closed form built whole: block K's pivots as a
    # ModuleShape, matched against hc_neg_closed_form's torsion at the cut.
    prefix = ModuleShape(_block_pivots(p, m, truncation))
    if not prefix.torsion:
        return (True, True, (), None, "no stabilized prefix")
    n = sum(count for _, count in prefix.torsion)
    covered = p.p * ((((m - 1) // p.p + 1) | 1) + 2 * (n - 1))
    if covered <= m - 1 + 2 * (truncation + 3) and hc_neg_closed_form(p, m, covered).shape.torsion == prefix.torsion:
        return (True, False, prefix.torsion[::-1], covered, f"stabilized factors match the closed form up to R/{covered}")
    return (False, False, prefix.torsion[::-1], None, "no truncation offset matches")


def _two_block_prefix(p, m, truncation):
    # The probe's stable prefix as it was once read: blocks K and K + 1 of
    # the (K+1)-square walk, each less its largest factor (taken to play
    # the completion) and its unit factors, intersected; empty at K = 1.
    from collections import Counter
    from itertools import islice

    from cychom.homology import _staircase
    from cychom.linalg import staircase_cokernels

    def subhead(pivots, tail):
        counts = pivots + Counter(tail)
        counts[max(counts)] -= 1
        counts.pop(0, None)
        return +counts

    blocks = islice(staircase_cokernels(_staircase(p, 2, 2, m, truncation + 1)), truncation - 1, None)
    vals_k = subhead(*next(blocks))
    vals_k1 = subhead(*next(blocks))
    return () if truncation == 1 else tuple(sorted((vals_k & vals_k1).items()))


@pytest.mark.parametrize("p", [P3, P5, P7, Prime(11)])
def test_truncation_probe_is_the_closed_form_comparison(p):
    # Every degree m <= 200 with m - 1 in Z2, at truncations 1 to 40.
    # Wherever the two-block reading found a prefix, it is block K's; and
    # every pivot block K has emitted is a factor of the closed form from
    # R/(m-1) to R/(m - 1 + 2(K + 3)), with multiplicity.
    from collections import Counter

    for m in range(2, 201, 2):
        if in_z2(p, m - 1):
            for k in range(1, 41):
                rep = hc_neg_truncation_probe(p, m, k)
                assert rep == _probe_by_the_closed_form(p, m, k), (m, k)
                assert _two_block_prefix(p, m, k) in ((), rep.stable_prefix), (m, k)
                assert _block_pivots(p, m, k) <= Counter(odd_valuations(p, m - 1, m - 1 + 2 * (k + 3))), (m, k)


def test_truncation_probe_with_no_pivot_is_vacuous():
    # At p = 5 and m = 40 the 3-square walk emits two unit factors and
    # keeps R/5^6 on its stack, so no cut is claimed.  The two-block
    # reading matched its empty prefix with the closed form up to R/39.
    assert _block_pivots(P5, 40, 3) == {}
    assert hc_neg_truncation_probe(P5, 40, 3) == (True, True, (), None, "no stabilized prefix")


def test_truncation_probe_keeps_no_stack_entry():
    # At m = 3^300 - 601, R/3^300 (from m + 601) sits on the stack while
    # later factors are emitted.  Blocks 400 and 401 both hold R/3^152 and
    # R/3^454 from their stacks; the two-block reading dropped R/3^454 as
    # the completion and kept R/3^152 as a factor.  Block 400's pivots do
    # not have it, and are closed-form factors within K + 3 odd steps; but
    # they are not a cut, so the probe says ok=False, as at K = 350.
    from collections import Counter

    m = 3**300 - 601
    rep = hc_neg_truncation_probe(P3, m, 400)
    assert rep == (False, False, ((1, 89), (2, 29), (3, 10), (4, 3), (5, 1)), None, "no truncation offset matches")
    assert _two_block_prefix(P3, m, 400)[-1] == (152, 1)
    for k in (350, 400):
        assert _block_pivots(P3, m, k) <= Counter(odd_valuations(P3, m - 1, m - 1 + 2 * (k + 3))), k
    assert not hc_neg_truncation_probe(P3, m, 350).ok


@pytest.mark.parametrize("m, truncation", [(8, 30), (10**3999 + 4, 300)], ids=["8", "10**3999+4"])
def test_truncation_probe_asks_z2_once_and_builds_no_closed_form(monkeypatch, m, truncation):
    from cychom import homology

    def forbidden(*args, **kwargs):
        raise AssertionError("the probe compares counts; it builds no shape")

    asked = []
    real = homology.in_z2
    monkeypatch.setattr(homology, "in_z2", lambda p, i: asked.append(i) or real(p, i))
    monkeypatch.setattr(homology, "hc_neg_closed_form", forbidden)
    monkeypatch.setattr(homology, "ModuleShape", forbidden)
    rep = hc_neg_truncation_probe(P3, m, truncation)
    assert rep.ok and not rep.vacuous and asked == [m - 1]


def test_hh_length_two_in_positive_even_degrees():
    for i in (2, 4, 8, 10):
        assert hochschild(P3, i).shape.p_length == 2


def test_z2_indices_give_head_without_shift():
    # For i in Z2 (i > 1), degree i-1 carries head exponent a_i exactly.
    for i in [x for x in enumerate_z2(P3, 60) if x > 1]:
        oracle = hc_oracle(P3, i - 1).shape
        assert oracle.torsion_exponents[0] == a_val(P3, i)


def test_b_val_controls_component_vanishing():
    # c_{j,n} = B_{j-n} dies in R/n exactly when b_{j-n} >= v_p(n).
    for j in (9, 15, 27):
        vec = phi_coeffs(P3, j, 27)
        for n, value in vec.components:
            if vp(P3, n) > 0 and n < j:
                dead = residue(value, 3 ** vp(P3, n)) == 0
                assert dead == (b_val(P3, j - n) >= vp(P3, n))


@pytest.mark.parametrize("p", [P3, P5])
def test_closed_forms_at_large_degree_match_elementwise_tail(p):
    # The tails as one v_p call per odd n, and the head by the valuation
    # recursion a_j = a_{j-2} + 2 - v_p(j).
    i = 200002
    a = {1: 1}
    for j in range(3, i + 2, 2):
        a[j] = a[j - 2] + 2 - vp(p, j)
    if in_z1(p, i - 1):
        head = a[i - 1] + 2
    else:
        assert in_z2(p, i + 1)
        head = a[i + 1]
    assert hc_closed_form(p, i).shape == ModuleShape((head, *[vp(p, n) for n in range(3, i, 2)]))
    neg = hc_neg_closed_form(p, i, i + 21)
    if in_z2(p, i - 1):
        tors = tuple(vp(p, n) for n in range(i - 1, i + 22, 2))
        assert neg.shape == ModuleShape(tors, complete_rank=1, n_max=i + 21)
    else:
        assert neg is None
    tors = tuple(vp(p, n) for n in range(1, i + 2, 2))
    assert hp(p, 0, i + 1).shape == ModuleShape(tors, complete_rank=1, n_max=i + 1)


@pytest.mark.parametrize("p", [3, 5, 1009])
def test_verify_checks_never_sieve(monkeypatch, p):
    # The kernel generators' indices are asked of in_z2 one odd i at a
    # time, so verify makes no member list and its cost does not grow with p.
    from cychom import gaps

    def sieve(*args, **kwargs):
        raise AssertionError("verify sieved")

    monkeypatch.setattr(gaps, "member_mask", sieve)
    checks = list(verify_checks(Prime(p), 40))
    assert all(check.ok for check in checks), [check for check in checks if not check.ok]


def test_verify_kernel_generator_indices_are_the_first_three_z2_members_past_1(monkeypatch):
    # The first three members of Z2 past 1 all lie below 50 p, the bound of
    # the member list verify once cut them from, at every prime below 3000.
    from cychom import homology

    indices = []

    def recorded(p, i, upto):
        assert upto == 8
        indices.append(i)
        return True

    monkeypatch.setattr(homology, "verify_kernel_generators", recorded)
    sieve = bytearray([1]) * 3000
    for p in range(3, 3000, 2):
        if not sieve[p]:
            continue
        sieve[p * p :: p] = bytes(len(range(p * p, 3000, p)))
        prime, indices[:] = Prime(p), []
        for check in verify_checks(prime, 2):
            pass
        assert indices == [i for i in enumerate_z2(prime, 50 * p) if i > 1][:3], p


def test_verify_kernel_generator_check_takes_five_generators_mod_p_to_the_a_i_plus_6(monkeypatch):
    # How much the check covers, which its verdict alone does not show: at
    # each index, psi_i(1) ... psi_{i+8}(1) with the head reduced mod p^(a_i + 6).
    from cychom import homology

    real, seen = homology.submodule_equal_mod, []

    def spy(p, gens_a, gens_b, moduli):
        seen.append((len(gens_a), moduli[0]))
        return real(p, gens_a, gens_b, moduli)

    monkeypatch.setattr(homology, "submodule_equal_mod", spy)
    assert all(check.ok for check in verify_checks(P3, 2))
    assert seen == [(5, 3 ** (a_val(P3, i) + 6)) for i in (5, 7, 11)]


def test_verify_kernel_generator_check_reads_integer_snf_three_times_an_index(monkeypatch):
    # submodule_equal_mod measures A, A + B and B by linalg.snf, at each of
    # i = 5, 7 and 11; verify's other checks read valuations only.
    from cychom import linalg

    real, calls = linalg.snf, []

    def spy(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(linalg, "snf", spy)
    kernel = [check.ok for check in verify_checks(P3, 2) if check.name.startswith("kernel generators")]
    assert kernel == [True, True, True] and len(calls) == 9
