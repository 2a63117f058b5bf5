from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from cychom.gaps import (
    _iroot_floor,
    density_bounds,
    enumerate_z1,
    enumerate_z2,
    gap,
    gap_window,
    in_z1,
    in_z2,
)
from cychom.padic import Prime, a_val

P3 = Prime(3)
P5 = Prime(5)
P7 = Prime(7)

# The p = 3 reference listings (odd non-multiples of 3 below 200 minus the
# window-excluded elements); 1 is a member by definition.
Z1_REF = [5, 7, 11, 13, 17, 19, 23, 25, 31, 35, 37, 41, 43, 47, 49, 53, 55, 59,
          61, 65, 67, 71, 73, 77, 79, 85, 89, 91, 95, 97, 101, 103, 107, 109,
          113, 115, 119, 121, 125, 127, 131, 133, 139, 143, 145, 149, 151, 155,
          157, 161, 163, 167, 169, 173, 175, 179, 181, 185, 187, 193, 197, 199]
Z2_REF = [5, 7, 11, 13, 17, 19, 23, 31, 35, 37, 41, 43, 47, 49, 53, 55, 59, 61,
          65, 67, 71, 73, 77, 85, 89, 91, 95, 97, 101, 103, 107, 109, 113, 115,
          119, 121, 125, 127, 131, 139, 143, 145, 149, 151, 155, 157, 161, 163,
          167, 169, 173, 175, 179, 181, 185, 193, 197, 199]


@pytest.mark.parametrize("p", [P3, P5, P7])
def test_gap_values(p):
    q = p.p
    assert gap(p, q) == 0
    assert gap(p, q**2) == 0
    assert gap(p, q**3) == 2
    assert gap(p, q**4) == 2
    assert gap(p, q**5) == 4


def test_gap_36():
    assert gap(P3, 3**6) == 6


def test_gap_depends_only_on_valuation():
    assert gap(P3, 27) == gap(P3, 27 * 5) == gap(P3, 27 * 7) == 2


def test_gap_rejects_non_multiples():
    with pytest.raises(ValueError, match="multiples"):
        gap(P3, 5)


def test_gap_window_intervals():
    w = gap_window(P3, 27)
    assert w.z1_interval == (27, 29)
    assert w.z2_interval == (25, 29)


@pytest.mark.parametrize("p", [P3, P5, P7])
def test_gap_is_even_and_tight(p):
    from cychom.padic import b_val, vp

    for n in range(p.p, 700, 2 * p.p):
        g = gap(p, n)
        v = vp(p, n)
        assert g % 2 == 0
        assert b_val(p, g) < v
        assert b_val(p, g + 2) >= v


def test_enumerate_rejects_empty_range():
    with pytest.raises(ValueError):
        enumerate_z1(P3, 0)
    with pytest.raises(ValueError):
        enumerate_z2(P3, -5)


def test_membership_examples():
    assert not in_z1(P3, 29)
    assert in_z1(P3, 25)
    assert not in_z2(P3, 25)
    assert in_z2(P3, 7)
    assert not in_z2(P3, 29)
    assert in_z1(P3, 1) and in_z2(P3, 1)


def test_membership_rejects_even():
    with pytest.raises(ValueError):
        in_z1(P3, 4)
    with pytest.raises(ValueError):
        in_z2(P3, 10)


def test_enumerate_small():
    assert enumerate_z1(P3, 30) == [1, 5, 7, 11, 13, 17, 19, 23, 25]
    assert enumerate_z2(P3, 32) == [1, 5, 7, 11, 13, 17, 19, 23, 31]
    assert enumerate_z2(P5, 10) == [1, 3, 7, 9]


def test_enumerate_matches_reference_listings():
    assert enumerate_z1(P3, 200) == [1] + Z1_REF
    assert enumerate_z2(P3, 200) == [1] + Z2_REF


def test_point_queries_against_wide_window_brute_force():
    # Mark windows from every odd multiple of p up to 4N directly from the
    # definition; no window from beyond 4N can reach [1, N] since gaps grow
    # logarithmically in n.
    upper = 400
    hit_one_sided, hit_symmetric = set(), set()
    for n in range(3, 4 * upper, 6):
        g = gap(P3, n)
        hit_one_sided.update(range(n, n + g + 1, 2))
        hit_symmetric.update(range(n - g, n + g + 1, 2))
    for i in range(1, upper, 2):
        assert in_z1(P3, i) == (i not in hit_one_sided)
        assert in_z2(P3, i) == (i not in hit_symmetric)


def test_enumerate_agrees_with_point_queries():
    odds = range(1, 301, 2)
    assert enumerate_z1(P3, 300) == [i for i in odds if in_z1(P3, i)]
    assert enumerate_z2(P3, 300) == [i for i in odds if in_z2(P3, i)]
    assert enumerate_z2(P7, 500) == [i for i in range(1, 501, 2) if in_z2(P7, i)]


@pytest.mark.parametrize("p", [P3, P5, P7])
def test_z2_subset_z1_and_no_multiples(p):
    z1 = set(enumerate_z1(p, 400))
    z2 = set(enumerate_z2(p, 400))
    assert z2 <= z1
    assert all(i % p.p for i in z1)


def test_enumerate_monotone_consistency():
    long = enumerate_z2(P3, 1000)
    assert enumerate_z2(P3, 437) == [i for i in long if i <= 437]


@pytest.mark.parametrize("p", [P3, P5, P7])
def test_gap_of_power_below_half(p):
    for a in range(1, 9):
        assert gap(p, p.p**a) < (p.p**a - 1) / 2


@pytest.mark.parametrize("p", [P3, P5, P7])
def test_half_prime_power_neighbors_clear_all_windows(p):
    # |((p^a +- 1)/2) - n| > g(n) for every odd multiple n of p in range.
    targets = []
    for a in range(1, 6):
        targets += [(p.p**a - 1) // 2, (p.p**a + 1) // 2]
    for n in range(p.p, 2000, 2 * p.p):
        g = gap(p, n)
        for t in targets:
            assert abs(t - n) > g


def test_density_report_small():
    rep = density_bounds(P3, 2001)
    assert rep.lam == Fraction(3, 4)
    assert rep.empirical_z1 >= rep.bound_z1
    assert rep.empirical_z2 >= rep.bound_z2
    assert rep.empirical_z1 >= rep.bound_z1_geometric
    assert 0 <= rep.empirical_z2 <= 1


def test_density_bounds_are_monotone_in_sharpness():
    rep = density_bounds(P3, 5001)
    # The exact-exponent bound dominates the geometric one.
    assert rep.bound_z1 >= rep.bound_z1_geometric
    assert rep.bound_z2 >= rep.bound_z2_geometric
    # Finite-N corrections only lower the bound.
    assert rep.bound_z1_asymptotic >= rep.bound_z1
    assert rep.bound_z2_asymptotic >= rep.bound_z2


@pytest.mark.parametrize("p", [P3, P5, Prime(101)])
@pytest.mark.parametrize("upper", [1, 1001])
def test_density_z2_bound_is_z1_bound_with_double_weight(p, upper):
    # Both bounds are 1 - 1/p minus the same series, weighted 1 and 2.
    rep = density_bounds(p, upper)
    base = 1 - Fraction(1, p.p)
    assert rep.bound_z2 == 2 * rep.bound_z1 - base
    assert rep.bound_z2_asymptotic == 2 * rep.bound_z1_asymptotic - base
    assert rep.bound_z2_geometric == 2 * rep.bound_z1_geometric - base


def test_density_empirical_stays_above_bound_for_various_primes():
    for p in (P5, P7):
        rep = density_bounds(p, 4001)
        assert rep.empirical_z1 >= rep.bound_z1
        assert rep.empirical_z2 >= rep.bound_z2


@cache
def _scanned(p: int, which: str) -> list[int]:
    member = in_z1 if which == "z1" else in_z2
    return [i for i in range(1, 5001, 2) if member(Prime(p), i)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 101]), st.integers(min_value=1, max_value=5000))
@example(101, 50)  # N < p
@example(3, 1)
@example(5, 5000)
def test_sieve_matches_per_element_scan(p, upper):
    # in_z1/in_z2 scan the windows near one i and share no code with the sieve.
    prime = Prime(p)
    assert enumerate_z1(prime, upper) == [i for i in _scanned(p, "z1") if i <= upper]
    assert enumerate_z2(prime, upper) == [i for i in _scanned(p, "z2") if i <= upper]


@pytest.mark.parametrize("p", [P3, P5, P7])
@pytest.mark.parametrize("upper", [1, 2, 99, 4001])
def test_density_counts_match_enumeration(p, upper):
    rep = density_bounds(p, upper)
    x_count = (upper + 1) // 2
    assert rep.empirical_z1 == Fraction(len(enumerate_z1(p, upper)), x_count)
    assert rep.empirical_z2 == Fraction(len(enumerate_z2(p, upper)), x_count)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=750), st.integers(min_value=1, max_value=400))
@example(b"", 1)
@example(b"\xff" * 750, 2)
@example(b"\xff" * 750, 400)
def test_iroot_floor_brackets_the_root(raw, d):
    n = int.from_bytes(raw, "big")
    r = _iroot_floor(n, d)
    assert r**d <= n < (r + 1) ** d


def test_iroot_floor_at_a_large_prime():
    # The largest root density_bounds takes at p = 1009: p^(lam * 58) with
    # lam = 2015/2016, a 583k-bit number; a seed far above its root makes
    # Newton crawl.
    n = 1009**58435
    r = _iroot_floor(n, 1008)
    assert r**1008 <= n < (r + 1) ** 1008
    with pytest.raises(ValueError):
        _iroot_floor(-1, 2)
