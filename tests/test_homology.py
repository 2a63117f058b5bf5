from fractions import Fraction

import pytest

from cychom.gaps import enumerate_z2, gap, in_z1, in_z2
from cychom.homology import (
    a_minimality_probe,
    connes_length_check,
    cyclic_matrix,
    hc_closed_form,
    hc_neg_closed_form,
    hc_neg_truncation_probe,
    hc_oracle,
    hochschild,
    hp,
    hp_stabilization_check,
    negative_matrix,
    phi_coeff_texts,
    phi_coeffs,
    verify_kernel_generators,
    verify_presentation,
)
from cychom.linalg import ModuleShape, TRIVIAL_SHAPE
from cychom.padic import Prime, a_val, b_val, residue, seq_b, vp

P3 = Prime(3)
P5 = Prime(5)
P7 = Prime(7)


def _frac_vp(p, x):
    # The valuation of a nonzero Fraction straight from its two parts.
    return vp(p, x.numerator) - vp(p, x.denominator)


def test_hochschild_table():
    assert hochschild(P3, 0).shape == ModuleShape((1,))
    assert hochschild(P5, 4).shape == ModuleShape((2,))
    assert hochschild(P7, 3).shape == TRIVIAL_SHAPE
    with pytest.raises(ValueError):
        hochschild(P3, -1)


def test_cyclic_matrix_entries():
    assert cyclic_matrix(P3, 2).data == [[3, 0], [1, 9]]
    assert cyclic_matrix(P3, 4).data == [[3, 0, 0], [1, 9, 0], [0, 3, 9]]
    m6 = cyclic_matrix(P5, 6)
    assert [m6.data[k][k - 1] for k in range(1, 4)] == [1, 3, 5]
    with pytest.raises(ValueError):
        cyclic_matrix(P3, 5)


def test_cyclic_det_valuation_is_length():
    for i in (2, 6, 12, 20):
        assert vp(P3, cyclic_matrix(P3, i).det()) == i + 1


def test_negative_matrix_entries():
    assert negative_matrix(P3, 2, 2).data == [[9, 0], [3, 9]]
    assert negative_matrix(P3, 6, 3).data == [[9, 0, 0], [7, 9, 0], [0, 9, 9]]
    assert negative_matrix(P5, 4, 1).data == [[25]]
    with pytest.raises(ValueError):
        negative_matrix(P3, 3, 2)


def test_hc_oracle_values():
    assert hc_oracle(P3, 0).shape == ModuleShape((1,))
    assert hc_oracle(P3, 2).shape == ModuleShape((3,))
    assert hc_oracle(P3, 6).shape == ModuleShape((6, 1))
    assert hc_oracle(P5, 5).shape == TRIVIAL_SHAPE
    assert hc_oracle(P3, 11).shape == TRIVIAL_SHAPE


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


def test_oracle_makes_no_integer_snf(monkeypatch):
    from cychom import homology, linalg

    def forbidden(m):
        raise AssertionError("integer snf called")

    monkeypatch.setattr(linalg, "snf", forbidden)
    monkeypatch.setattr(homology, "snf", forbidden, raising=False)
    for i in range(0, 13):
        hc_oracle(P3, i)
        hochschild(P5, i)
    assert hc_neg_truncation_probe(P3, 6, 6).ok
    assert verify_presentation(P3, 5).ok


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
    assert hp(P3, 0, 11).shape == ModuleShape((1, 2), complete_rank=1, truncated=True)
    assert hp(P5, -4, 9).shape == ModuleShape((1,), complete_rank=1, truncated=True)
    assert hp(P3, 3, 9).shape == TRIVIAL_SHAPE
    with pytest.raises(ValueError):
        hp(P3, 0, 10)


def test_hc_neg_closed_form():
    assert hc_neg_closed_form(P3, -2, 9).shape == hp(P3, 0, 9).shape
    r = hc_neg_closed_form(P3, 6, 15)
    assert r.shape == ModuleShape((2, 1), complete_rank=1, truncated=True)
    assert hc_neg_closed_form(P3, 26, 29) is None
    assert hc_neg_closed_form(P3, 5, 9).shape == TRIVIAL_SHAPE


def test_phi_coeffs_examples():
    base = phi_coeffs(P3, 1, 1)
    assert base.head == 3
    assert base.component(1) == 1
    mid = phi_coeffs(P3, 3, 5)
    assert mid.head == 9
    assert mid.component(3) == 1
    assert mid.component(5) == 0
    assert mid.component(1) == seq_b(P3, 2)
    assert {type(mid.head)} | {type(v) for _, v in mid.components} == {Fraction}
    top = phi_coeffs(P3, 5, 5)
    assert _frac_vp(P3, top.head) == 4
    assert top.component(5) == 1
    with pytest.raises(ValueError):
        phi_coeffs(P3, 5, 3)
    with pytest.raises(ValueError):
        phi_coeffs(P3, 2, 5)


@pytest.mark.parametrize("p", [P3, P5])
def test_phi_coeffs_components_are_seq_b(p):
    for j in range(1, 82, 2):
        vec = phi_coeffs(p, j, j)
        for n in range(1, j + 1, 2):
            assert vec.component(n) == seq_b(p, j - n)


@pytest.mark.parametrize("p", [P3, P5])
def test_phi_coeffs_zero_pattern(p):
    # A component can survive in R/n for j > n only inside the gap window.
    for j in range(1, 40, 2):
        vec = phi_coeffs(p, j, 39)
        for n, value in vec.components:
            if n < j and vp(p, n) > 0 and _frac_vp(p, value) < vp(p, n):
                assert j - n <= gap(p, n)


@pytest.mark.parametrize("p", [P3, P5, P7, Prime(101)])
def test_phi_coeff_texts_match_phi_coeffs(p):
    for j in range(1, 60, 2):
        vec = phi_coeffs(p, j, j + 4)
        head, head_valuation, rows = phi_coeff_texts(p, j, j + 4)
        assert (head, head_valuation) == (str(vec.head), _frac_vp(p, vec.head))
        assert rows == [(n, str(v), None if v == 0 else _frac_vp(p, v)) for n, v in vec.components]


@pytest.mark.parametrize("j,i", [(5, 3), (2, 5), (3, 4), (0, 5), (-1, 1)])
def test_phi_coeff_texts_rejects_what_phi_coeffs_rejects(j, i):
    for f in (phi_coeffs, phi_coeff_texts):
        with pytest.raises(ValueError, match="need odd indices"):
            f(P3, j, i)


@pytest.mark.parametrize("p,i", [(P3, 1), (P3, 5), (P3, 9), (P5, 7), (P7, 3)])
def test_presentation_matches_oracle(p, i):
    rep = verify_presentation(p, i)
    assert rep.ok, rep


def test_kernel_generators():
    assert verify_kernel_generators(P3, 5, 0, head_precision=8, n_max=5)
    assert verify_kernel_generators(P3, 5, 6, head_precision=12, n_max=13)
    assert verify_kernel_generators(P3, 7, 8)
    with pytest.raises(ValueError, match="Z2"):
        verify_kernel_generators(P3, 25, 0)
    with pytest.raises(ValueError):
        verify_kernel_generators(P3, 5, 3)


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
        return [residue(seq_a(P3, j), head_mod)] + [
            residue(seq_b(P3, j - n), 3 ** vp(P3, n)) if n <= j else 0 for n in coords
        ]

    gens_a = [psi(i + j) for j in range(0, upto + 1, 2)]
    gens_b = [[residue(seq_a(P3, i), head_mod)] + [0] * len(coords)]
    for j in range(0, upto + 1, 2):
        if (i + j) in coords:
            e = [0] * len(moduli)
            e[1 + coords.index(i + j)] = 1
            gens_b.append(e)
    assert not submodule_equal_mod(P3, gens_a, gens_b, moduli)


def test_connes_length_recursion():
    rep = connes_length_check(P3, 12)
    assert rep.ok
    assert rep.lengths[0] == (0, 1)
    assert rep.lengths[-1] == (12, 13)
    assert connes_length_check(P3, 0).ok  # vacuous base


def test_a_minimality_probe():
    assert a_minimality_probe(P3, 5, 200).vacuous
    dip = a_minimality_probe(P3, 25, 200)
    assert dip.ok and not dip.vacuous and dip.witness == 27
    assert a_minimality_probe(P5, 7, 300).ok
    with pytest.raises(ValueError):
        a_minimality_probe(P3, 9, 100)  # multiple of p


def test_hp_stabilization():
    rep = hp_stabilization_check(P3, 14, n_max=13)
    assert rep.ok
    assert rep.degrees == (2, 6, 8, 12, 14)
    assert rep.heads == tuple(a_val(P3, i - 1) + 2 for i in rep.degrees)
    assert hp_stabilization_check(P5, 26, n_max=25).ok


def test_truncation_probe():
    rep = hc_neg_truncation_probe(P3, 6, 6)
    assert rep.ok and rep.stable_prefix == (1, 2) and rep.covered_up_to == 15
    assert hc_neg_truncation_probe(P3, 2, 1).vacuous
    assert hc_neg_truncation_probe(P5, 8, 8).ok
    with pytest.raises(ValueError, match="Z2"):
        hc_neg_truncation_probe(P5, 6, 8)  # 5 is a multiple of 5


def test_truncation_probe_sweep():
    for k in range(2, 12):
        assert hc_neg_truncation_probe(P3, 8, k).ok


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
        assert neg.shape == ModuleShape(tors, complete_rank=1, truncated=True)
    else:
        assert neg is None
    tors = tuple(vp(p, n) for n in range(1, i + 2, 2))
    assert hp(p, 0, i + 1).shape == ModuleShape(tors, complete_rank=1, truncated=True)
