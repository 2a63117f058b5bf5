"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Everything here is exact equality; there are no tolerances anywhere.
Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

from fractions import Fraction

import pytest

from cychom.gaps import density_bounds, enumerate_z1, enumerate_z2, gap, in_z1, in_z2
from cychom.homology import (
    hc_closed_form,
    hc_neg_truncation_probe,
    hc_oracle,
    hochschild,
    hp_stabilization_check,
    verify_kernel_generators,
)
from cychom.linalg import IntMatrix, ModuleShape, TRIVIAL_SHAPE, snf
from cychom.padic import Prime, a_val, b_val, seq_a, seq_b, vp

Z1_REF = [5, 7, 11, 13, 17, 19, 23, 25, 31, 35, 37, 41, 43, 47, 49, 53, 55, 59,
          61, 65, 67, 71, 73, 77, 79, 85, 89, 91, 95, 97, 101, 103, 107, 109,
          113, 115, 119, 121, 125, 127, 131, 133, 139, 143, 145, 149, 151, 155,
          157, 161, 163, 167, 169, 173, 175, 179, 181, 185, 187, 193, 197, 199]
Z2_REF = [5, 7, 11, 13, 17, 19, 23, 31, 35, 37, 41, 43, 47, 49, 53, 55, 59, 61,
          65, 67, 71, 73, 77, 85, 89, 91, 95, 97, 101, 103, 107, 109, 113, 115,
          119, 121, 125, 127, 131, 139, 143, 145, 149, 151, 155, 157, 161, 163,
          167, 169, 173, 175, 179, 181, 185, 193, 197, 199]


def _criterion(num: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_hochschild_table():
    ok = True
    for q in (3, 5, 7):
        p = Prime(q)
        for i in range(11):
            expected = (
                ModuleShape((1,)) if i == 0 else ModuleShape((2,)) if i % 2 == 0 else TRIVIAL_SHAPE
            )
            ok = ok and hochschild(p, i).shape == expected
    _criterion(1, "Hochschild table for p in {3,5,7}, degrees 0..10, oracle = closed form", ok)


def test_criterion_2_snf_anchor():
    ok = all(
        snf(IntMatrix([[q, 2], [0, q]])).invariant_factors == (1, q * q) for q in (3, 5, 7, 11)
    )
    _criterion(2, "SNF of [[p,2],[0,p]] is (1, p^2) for p in {3,5,7,11}", ok)


def test_criterion_3_gap_values():
    ok = True
    for q in (3, 5, 7):
        p = Prime(q)
        ok = ok and [gap(p, q**a) for a in range(1, 6)] == [0, 0, 2, 2, 4]
    ok = ok and gap(Prime(3), 3**6) == 6
    _criterion(3, "gap values g(p)..g(p^5) = 0,0,2,2,4 and g(3^6) = 6", ok)


def test_criterion_4_set_enumeration():
    p = Prime(3)
    ok = enumerate_z1(p, 200) == [1] + Z1_REF
    ok = ok and enumerate_z2(p, 200) == [1] + Z2_REF
    non_mult = [i for i in range(1, 201, 2) if i % 3]
    ok = ok and [i for i in non_mult if not in_z1(p, i)] == [29, 83, 137, 191]
    ok = ok and [i for i in non_mult if not in_z2(p, i)] == [25, 29, 79, 83, 133, 137, 187, 191]
    _criterion(4, "Z1/Z2 enumeration to 200 matches the reference listings plus {1}", ok)


def test_criterion_5_oracle_equals_closed_form():
    ok = True
    for q in (3, 5):
        p = Prime(q)
        for i in range(2, 61, 2):
            oracle = hc_oracle(p, i).shape
            if in_z1(p, i - 1):
                closed = hc_closed_form(p, i)
                ok = ok and closed is not None and closed.shape == oracle
            if in_z2(p, i + 1):
                expected = ModuleShape(
                    (a_val(p, i + 1), *(vp(p, n) for n in range(3, i, 2)))
                )
                ok = ok and oracle == expected
    _criterion(5, "HC oracle = closed form on both covered clauses, p in {3,5}, degrees <= 60", ok)


def test_criterion_6_connes_length_recursion():
    ok = True
    for q in (3, 5):
        p = Prime(q)
        for i in range(0, 61, 2):
            ok = ok and hc_oracle(p, i).shape.p_length == i + 1
    _criterion(6, "p-length of HC_i is i+1 for even i <= 60, p in {3,5}", ok)


def test_criterion_7_sequence_identities():
    ok = True
    for q in (3, 5, 7):
        p = Prime(q)
        for j in range(1, 401, 2):
            ok = ok and a_val(p, j) == b_val(p, 2 * j) - b_val(p, j - 1) - 1
            ok = ok and seq_a(p, j).denominator % q != 0
        for j in range(2, 801, 2):
            bj = b_val(p, j)
            ok = ok and bj >= 0
            ok = ok and Fraction(bj) > Fraction(j) - Fraction(j, 2 * (q - 1))
            ok = ok and seq_b(p, j).denominator % q != 0
            e = 0
            while q ** (e + 1) <= j // 2 + 1:
                e += 1
            ok = ok and bj >= e
    _criterion(7, "sequence identities and bounds over the full stated ranges", ok)


def test_criterion_8_half_power_membership():
    ok = True
    for q in (3, 5, 7):
        p = Prime(q)
        for a in range(1, 7):
            for cand in ((q**a - 1) // 2, (q**a + 1) // 2):
                if cand % 2 == 1:
                    ok = ok and in_z2(p, cand) and in_z1(p, cand)
    _criterion(8, "odd (p^a +- 1)/2 lie in Z2 (hence Z1) for p in {3,5,7}, a <= 6", ok)


def test_criterion_9_kernel_generators():
    p = Prime(3)
    ok = all(
        verify_kernel_generators(p, i, upto)
        for i in (5, 7, 11)
        for upto in (0, 2, 4, 6, 8)
    )
    raised = False
    try:
        verify_kernel_generators(p, 25, 0)
    except ValueError:
        raised = True
    _criterion(9, "kernel generators verified at i in {5,7,11} up to 8; i=25 rejected", ok and raised)


def test_criterion_10_stabilization():
    ok = all(
        hp_stabilization_check(p, {i: hc_oracle(p, i).shape for i in range(0, 41, 2)}).ok
        for p in (Prime(3), Prime(5))
    )
    for m in (2, 6, 8):
        ok = ok and hc_neg_truncation_probe(Prime(3), m, m + 6).ok
    _criterion(10, "HP stabilization for p in {3,5} to degree 40; truncation probes m in {2,6,8}", ok)


def test_criterion_11_density():
    rep = density_bounds(Prime(3), 10**6)
    ok = rep.empirical_z1 >= rep.bound_z1 and rep.empirical_z2 >= rep.bound_z2
    ok = ok and rep.bound_z1_asymptotic >= Fraction(61, 100)
    ok = ok and rep.bound_z2_asymptotic >= Fraction(58, 100)
    rep101 = density_bounds(Prime(101), 10**5)
    ok = ok and rep101.empirical_z1 >= rep101.bound_z1
    ok = ok and rep101.bound_z1_asymptotic >= Fraction(99, 100)
    ok = ok and rep101.bound_z2_asymptotic >= Fraction(99, 100)
    _criterion(11, "density bounds hold empirically; asymptotics >= 0.61/0.58 (p=3), >= 0.99 (p=101)", ok)
