from fractions import Fraction

import pytest

from cychom.gaps import enumerate_z2, gap, in_z1, in_z2
from cychom.homology import (
    Check,
    connes_length_check,
    cyclic_matrix,
    hc_closed_form,
    hc_neg_closed_form,
    hc_neg_truncation_probe,
    hc_oracle,
    hc_oracle_shapes,
    hochschild,
    hp,
    hp_stabilization_check,
    phi_coeff_texts,
    phi_coeffs,
    verify_checks,
    verify_kernel_generators,
    verify_presentation,
)
from cychom.linalg import ModuleShape, TRIVIAL_SHAPE
from cychom.padic import Prime, a_val, b_val, seq_b, vp
from residue import residue

P3 = Prime(3)
P5 = Prime(5)
P7 = Prime(7)


def _shapes(p, i_max):
    """The oracle's HC shape in every even degree up to i_max."""
    return {i: hc_oracle(p, i).shape for i in range(0, i_max + 1, 2)}


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


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_two_routes_agree_at_every_even_degree_to_10000(p):
    # Every even degree, covered or not, from one walk: the oracle's
    # p-length is i + 1 (Connes), and a closed form, where one exists, is
    # the oracle's shape.
    prime = Prime(p)
    shapes = hc_oracle_shapes(prime, 10**4)
    assert connes_length_check(shapes).ok
    covered = 0
    for i in range(2, 10**4 + 1, 2):
        closed = hc_closed_form(prime, i)
        if closed is not None:
            covered += 1
            assert closed.shape == shapes[i], i
    assert covered >= 4000


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_two_routes_agree_at_every_even_degree_to_600(p):
    # The same from hc_oracle, the per-degree walk that ``hc`` runs.
    prime = Prime(p)
    shapes = _shapes(prime, 600)
    assert connes_length_check(shapes).ok
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
    assert hc_oracle_shapes(prime, 300) == _shapes(prime, 300)
    assert hc_oracle_shapes(prime, 0) == {0: ModuleShape((1,))}
    with pytest.raises(ValueError):
        hc_oracle_shapes(prime, -2)


def test_oracle_makes_no_integer_snf(monkeypatch):
    # Nor any elimination over Z/p^N: every oracle reads valuations.
    from cychom import homology, linalg

    def forbidden(*args):
        raise AssertionError("snf or local_snf called")

    for name in ("snf", "local_snf"):
        monkeypatch.setattr(linalg, name, forbidden)
        monkeypatch.setattr(homology, name, forbidden, raising=False)
    for i in range(0, 13):
        hc_oracle(P3, i)
        hochschild(P5, i)
    assert hc_neg_truncation_probe(P3, 6, 6).ok
    assert verify_presentation(P3, 5, _shapes(P3, 6)).ok


def test_valuation_routes_take_no_integer(monkeypatch):
    # The walk and cokernel_shape read the valuations homology states each
    # matrix by; they take no prime and value no entry.  linalg's vp is
    # left to its integer engines.
    from cychom import linalg

    def forbidden(*args):
        raise AssertionError("linalg.vp called")

    monkeypatch.setattr(linalg, "vp", forbidden)
    assert hc_oracle(P3, 400).shape == hc_closed_form(P3, 400).shape
    assert hc_oracle(P3, 400).shape.p_length == 401
    shapes = hc_oracle_shapes(Prime(101), 40)
    assert connes_length_check(shapes).ok
    hh = [hochschild(P5, i).shape for i in range(6)]
    assert hh == [ModuleShape((1,)), TRIVIAL_SHAPE, ModuleShape((2,)), TRIVIAL_SHAPE, ModuleShape((2,)), TRIVIAL_SHAPE]
    for i in range(1, 40, 2):
        assert verify_presentation(Prime(101), i, shapes).ok
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
    assert _frac_vp(P3, top.head) == 4
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
            if n < j and vp(p, n) > 0 and _frac_vp(p, value) < vp(p, n):
                assert j - n <= gap(p, n)


@pytest.mark.parametrize("p", [P3, P5, P7, Prime(101)])
def test_phi_coeff_texts_match_phi_coeffs(p):
    for j in range(1, 60, 2):
        vec = phi_coeffs(p, j, j + 4)
        head, head_valuation, rows = phi_coeff_texts(p, j, j + 4)
        assert (head, head_valuation) == (str(vec.head), _frac_vp(p, vec.head))
        # A row's value is the parts of its text: the digits, then "/" and
        # the digits of the denominator when it is not 1.
        rows = [(n, "".join(parts), v) for n, parts, v in rows if parts[1:] in ((), ("/", parts[-1]))]
        assert rows == [(n, str(v), None if v == 0 else _frac_vp(p, v)) for n, v in vec.components]


@pytest.mark.parametrize("j,i", [(5, 3), (2, 5), (3, 4), (0, 5), (-1, 1)])
def test_phi_coeff_texts_rejects_what_phi_coeffs_rejects(j, i):
    for f in (phi_coeffs, phi_coeff_texts):
        with pytest.raises(ValueError, match="need odd indices"):
            f(P3, j, i)


# At (3, 27) the relation's entries must sit on their own coordinates: read
# in reverse order, they rebuild the wrong module there.
@pytest.mark.parametrize("p,i", [(P3, 1), (P3, 5), (P3, 9), (P5, 7), (P7, 3), (P3, 27)])
def test_presentation_matches_oracle(p, i):
    rep = verify_presentation(p, i, _shapes(p, i + 1))
    assert rep.ok, rep


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009])
def test_presentation_matches_the_walk_at_every_odd_index_below_200(p):
    prime = Prime(p)
    shapes = hc_oracle_shapes(prime, 200)
    for i in range(1, 200, 2):
        rep = verify_presentation(prime, i, shapes)
        assert rep == Check(f"colimit presentation {i}", True, ""), rep
    with pytest.raises(ValueError, match="odd and positive"):
        verify_presentation(prime, 4, shapes)


def test_kernel_generators():
    # A plain bool, never a record, which would test true either way.
    assert verify_kernel_generators(P3, 5, 0) is True
    assert verify_kernel_generators(P3, 5, 6) is True
    assert verify_kernel_generators(P3, 7, 8) is True
    with pytest.raises(ValueError, match="Z2"):
        verify_kernel_generators(P3, 25, 0)
    with pytest.raises(ValueError):
        verify_kernel_generators(P3, 5, 3)
    # The coordinates stop at n_max = 4i + 1, so upto may reach 3i + 1.
    assert verify_kernel_generators(P3, 5, 16) is True
    with pytest.raises(ValueError, match="n_max must cover every generator index"):
        verify_kernel_generators(P3, 5, 18)


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


def test_connes_length_recursion():
    assert connes_length_check(_shapes(P3, 12)) == Check("connes length recursion", True, "")
    assert connes_length_check(_shapes(P3, 0)).ok  # vacuous base
    # The check reads the length of every degree, the first and last too:
    # one more factor R/p anywhere breaks it there.
    for i in range(0, 13, 2):
        shapes = _shapes(P3, 12)
        shapes[i] = ModuleShape([*shapes[i].torsion_exponents, 1])
        rep = connes_length_check(shapes)
        assert not rep.ok
        assert rep.detail.startswith(f"degree {i}: length {i + 2} != {i + 1}"), i
    # The check reads the shapes it is given, and needs every even degree.
    shapes = _shapes(P3, 6)
    shapes[4] = ModuleShape((4,))
    rep = connes_length_check(shapes)
    assert not rep.ok
    assert rep.detail == "degree 4: length 4 != 5; degree 4: length step 1 != 2; degree 6: length step 3 != 2"
    del shapes[4]
    with pytest.raises(ValueError):
        connes_length_check(shapes)


def test_hp_stabilization():
    assert hp_stabilization_check(P3, _shapes(P3, 14)) == Check("hp stabilization", True, "")
    assert hp_stabilization_check(P5, _shapes(P5, 26)).ok
    with pytest.raises(ValueError):
        hp_stabilization_check(P3, _shapes(P3, 0))


@pytest.mark.parametrize("p, i_max, tested", [(P3, 14, [2, 6, 8, 12, 14]), (P5, 26, [2, 4, 8, 10, 12, 14, 18, 20, 22, 24])])
def test_hp_stabilization_tests_each_degree_past_a_z1_member(p, i_max, tested):
    # The degrees i with i - 1 in Z1 are tested, each against the head
    # a_{i-1} + 2: one head raised by one fails there, and nowhere else.
    assert tested == [i for i in range(2, i_max + 1, 2) if in_z1(p, i - 1)]
    failed = []
    for i in range(2, i_max + 1, 2):
        shapes = _shapes(p, i_max)
        head, *tail = shapes[i].torsion_exponents
        shapes[i] = ModuleShape([head + 1, *tail])
        rep = hp_stabilization_check(p, shapes)
        if not rep.ok:
            failed.append(i)
            assert rep.detail.startswith(f"degree {i}: head {head + 1} != a+2 = {a_val(p, i - 1) + 2}"), i
    assert failed == tested


def test_truncation_probe():
    rep = hc_neg_truncation_probe(P3, 6, 6)
    assert rep.ok and rep.stable_prefix == ((1, 1), (2, 1)) and rep.covered_up_to == 15
    assert hc_neg_truncation_probe(P3, 2, 1).vacuous
    assert hc_neg_truncation_probe(P5, 8, 8).ok
    with pytest.raises(ValueError, match="Z2"):
        hc_neg_truncation_probe(P5, 6, 8)  # 5 is a multiple of 5


def test_hp_stabilization_names_the_flat_lists_that_differ():
    shapes = _shapes(P3, 14)
    head, *tail = shapes[8].torsion_exponents
    periodic = list(hp(P3, 0, 7).shape.torsion_exponents)
    assert tail == periodic
    shapes[8] = ModuleShape([head, *tail[:-1], tail[-1] + 1])
    bumped = tail[:-1] + [tail[-1] + 1]
    rep = hp_stabilization_check(P3, shapes)
    assert not rep.ok
    assert rep.detail == f"degree 8: tail {sorted(bumped, reverse=True)} != periodic {periodic}"


def test_truncation_probe_without_a_matching_offset(monkeypatch):
    # Both truncations keep R/p below their head, but every offset past
    # the first brings in R/p^2 (from 9 = m + 1), so none matches.
    from collections import Counter

    from cychom import homology

    blocks = [(Counter({1: 1, 5: 1}), [])] * 9
    monkeypatch.setattr(homology, "staircase_cokernels", lambda path: iter(blocks))
    rep = hc_neg_truncation_probe(P3, 8, 8)
    assert rep == (False, False, ((1, 1),), None, "no truncation offset matches")


def test_truncation_probe_tries_cuts_up_to_k_plus_3_odd_steps(monkeypatch):
    # A prefix R/p^2 x R/p x R/p below the head matches the closed form of
    # m = 8 cut at 21 (9, 15 and 21 are the odd multiples of 3 past 7):
    # 7 steps past m - 1, so K = 4 reaches it and K = 3 does not.
    from collections import Counter

    from cychom import homology

    blocks = [(Counter({9: 1, 2: 1, 1: 2}), [])] * 5
    monkeypatch.setattr(homology, "staircase_cokernels", lambda path: iter(blocks))
    assert hc_neg_truncation_probe(P3, 8, 4)[:4] == (True, False, ((1, 2), (2, 1)), 21)
    assert hc_neg_truncation_probe(P3, 8, 3) == (False, False, ((1, 2), (2, 1)), None, "no truncation offset matches")


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
    checks = list(verify_checks(Prime(p), 40, 10))
    assert all(check.ok for check in checks), [check for check in checks if not check.ok]


def test_verify_kernel_generator_indices_are_the_first_three_z2_members_past_1(monkeypatch):
    # The first three members of Z2 past 1 all lie below 50 p, the bound of
    # the member list verify once cut them from, at every prime below 3000.
    from cychom import homology

    indices = []

    def recorded(p, i, upto):
        indices.append(i)
        return True

    monkeypatch.setattr(homology, "verify_kernel_generators", recorded)
    sieve = bytearray([1]) * 3000
    for p in range(3, 3000, 2):
        if not sieve[p]:
            continue
        sieve[p * p :: p] = bytes(len(range(p * p, 3000, p)))
        prime, indices[:] = Prime(p), []
        for check in verify_checks(prime, 2, 0):
            pass
        assert indices == [i for i in enumerate_z2(prime, 50 * p) if i > 1][:3], p
