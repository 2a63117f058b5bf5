import gc
import math
import time
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

from cychom import gaps as gaps_module
from cychom.gaps import (
    _gap_for_valuation,
    _mark,
    _tail_sums,
    density_bounds,
    enumerate_z1,
    enumerate_z2,
    gap,
    in_z1,
    in_z2,
    member_mask,
)
from cychom.padic import Prime, b_val
from sweeps import size

P3 = Prime(3)
P5 = Prime(5)
P7 = Prime(7)


def test_gap_rejects_non_multiples():
    with pytest.raises(ValueError, match="multiples"):
        gap(P3, 5)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009])
def test_level_gap_is_nondecreasing_and_below_2v(p):
    # The sieve and the membership loop both rest on these: an odd multiple
    # of p^v carries every offset |d| <= g(p^v), and no level with
    # p^v > i + 2v reaches i.
    gaps = [_gap_for_valuation(Prime(p), v) for v in range(1, 61)]
    assert gaps == sorted(gaps)
    assert all(g < 2 * v for v, g in enumerate(gaps, 1))
    # _gap_for_valuation stops its scan at the level bound, so it cannot see
    # a j past it with b_j < v.  A scan to 3v + 4, well past the bound,
    # finds the same largest j, and the bound j(2p - 3) < v(2p - 2) holds.
    prime = Prime(p)
    for v in range(1, 201):
        g = max(j for j in range(0, 3 * v + 5, 2) if b_val(prime, j) < v)
        assert g == _gap_for_valuation(prime, v), v
        assert g * (2 * p - 3) < v * (2 * p - 2), v


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


def test_membership_rejects_even():
    with pytest.raises(ValueError):
        in_z1(P3, 4)
    with pytest.raises(ValueError):
        in_z2(P3, 10)


def _levels(p: int, x: int) -> int:
    """The number of levels v >= 1 with p^v <= x."""
    v = 0
    while p ** (v + 1) <= x:
        v += 1
    return v


def _hit_by_definition(prime: Prime, i: int, symmetric: bool) -> bool:
    # A window of n holds i only if |n - i| <= g(n) < 2v for v = v_p(n);
    # then p^v - 2v < i, so p^v < 3i and |n - i| < 2 log_p(3i).
    p = prime.p
    reach = 2 * _levels(p, 3 * i)
    first = max(p, i - reach)
    first += -first % p
    for n in range(first + p * (first % 2 == 0), i + reach + 1, 2 * p):
        g = gap(prime, n)
        if n - (g if symmetric else 0) <= i <= n + g:
            return True
    return False


MEMBERSHIP_MAX = size("tests/test_gaps.py::test_point_queries_against_wide_window_brute_force")


def _level_edges(p: int) -> list[int]:
    # c p^v + d around the first odd multiples of each level p^v <= 10^15,
    # out to twice the reach of its windows.
    edges = set()
    for v in range(1, _levels(p, 10**15) + 1):
        for c in (1, 3, 5, 7):
            edges.update(c * p**v + d for d in range(-4 * v - 2, 4 * v + 3))
    return sorted(i for i in edges if i > 0 and i % 2)


def test_point_queries_against_wide_window_brute_force():
    # Against the definition: the windows of every odd multiple of p that
    # could reach i, each through gap(p, n).
    for p in (3, 5, 7, 11, 13, 101, 1009):
        prime = Prime(p)
        for i in chain(range(1, MEMBERSHIP_MAX + 1, 2), _level_edges(p)):
            assert in_z1(prime, i) == (not _hit_by_definition(prime, i, symmetric=False)), (p, i)
            assert in_z2(prime, i) == (not _hit_by_definition(prime, i, symmetric=True)), (p, i)


def _hit_by_every_level(prime: Prime, i: int, symmetric: bool) -> bool:
    # The level rule walked to the last level that can reach i, p^v <= i + 2v,
    # without the stop at the reach: every level's nearest odd multiple.
    q, v = prime.p, 1
    while q <= i + 2 * v:
        d = (i - q) % (2 * q)
        if symmetric:
            d = min(d, (q - i) % (2 * q))
        if d < 2 * v and d <= _gap_for_valuation(prime, v):
            return True
        q, v = q * prime.p, v + 1
    return False


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 101, 1009]), st.integers(min_value=0, max_value=10**300), st.booleans())
@example(3, 14, False)  # i = 29: level 1 lies 2 = 2v away, level 3 hits
@example(3, 14, True)
def test_hit_stops_where_every_level_agrees(p, k, symmetric):
    i = 2 * k + 1
    assert gaps_module._hit(Prime(p), i, symmetric) == _hit_by_every_level(Prime(p), i, symmetric)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101, 1009])
def test_hit_next_to_high_powers_where_every_level_agrees(p):
    # i = c p^e + d lies |d| from an odd multiple of p^e.  A window of level v
    # has radius below 2v, so a hit at |d| >= e/2 comes from a level v > e/4,
    # while the first level lies 2 = 2v or more from every i prime to p: a
    # rule that stops short of the reach misses it.
    prime = Prime(p)
    high = []
    for e in (3, 8, 21, 60):
        for c in (1, 3, 5):
            for d in range(-2 * e - 4, 2 * e + 5, 2):
                i = c * p**e + d
                for symmetric in (False, True):
                    want = _hit_by_every_level(prime, i, symmetric)
                    assert gaps_module._hit(prime, i, symmetric) == want, (p, e, c, d, symmetric)
                    high.append(want and abs(d) >= e // 2)
    assert any(high)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 101, 1009]),
    st.integers(min_value=1, max_value=199),
    st.sampled_from([1, 3, 5]),
    st.integers(min_value=-201, max_value=201),
    st.booleans(),
)
@example(3, 199, 1, 130, True)  # 3^199 + 260: g(3^199) = 260, the window's edge
@example(1009, 199, 5, 99, False)  # only level 199 reaches 198 = g(1009^199)
def test_hit_next_to_powers_up_to_level_199_where_every_level_agrees(p, e, c, half, symmetric):
    i = abs(c * p**e + 2 * half)
    assert gaps_module._hit(Prime(p), i, symmetric) == _hit_by_every_level(Prime(p), i, symmetric)


def test_a_4000_digit_query_costs_its_levels_not_its_digits():
    # The walk to the last level that can reach 10^4000 takes 8,384 levels
    # of 3 and about a second; the reach stops after a few.
    i = 10**4000 + 3
    start = time.process_time()
    member = in_z2(P3, i)
    assert time.process_time() - start < 0.25
    assert member


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


def test_density_bounds_are_monotone_in_sharpness():
    rep = density_bounds(P3, 5001)
    assert rep.lam == Fraction(3, 4)
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


@cache
def _scanned(p: int, which: str) -> list[int]:
    member = in_z1 if which == "z1" else in_z2
    return [i for i in range(1, 5001, 2) if member(Prime(p), i)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 101]), st.integers(min_value=1, max_value=5000))
@example(101, 50)  # N < p
@example(3, 1)
@example(5, 5000)
@example(3, 25)  # the window of 27 > N reaches N
@example(3, 241)
@example(5, 3123)
@example(13, 2196)
@example(3, 30)
@example(3, 32)
@example(5, 10)
@example(3, 437)
@example(3, 1000)
@example(7, 400)
@example(3, 300)
@example(7, 500)
def test_sieve_matches_per_element_scan(p, upper):
    # in_z1/in_z2 test one i level by level and share no loop with the sieve.
    prime = Prime(p)
    z1, z2 = enumerate_z1(prime, upper), enumerate_z2(prime, upper)
    assert z1 == [i for i in _scanned(p, "z1") if i <= upper]
    assert z2 == [i for i in _scanned(p, "z2") if i <= upper]
    assert set(z2) <= set(z1) and all(i % p for i in z1)


@st.composite
def _bound_near_a_level(draw):
    """(p, N) with N anywhere up to 10^5, or within 2v + 2 of some p^v."""
    p = draw(st.sampled_from([3, 5, 7, 11, 101]))
    if draw(st.booleans()):
        v = draw(st.integers(1, max(v for v in range(1, 12) if p**v <= 10**5)))
        return p, max(1, p**v + draw(st.integers(-2 * v - 2, 2 * v + 2)))
    return p, draw(st.integers(1, 10**5))


@settings(max_examples=80, deadline=None)
@given(_bound_near_a_level())
@example((101, 50))  # N < p
@example((3, 1))
@example((3, 3**10 - 20))  # the top level's windows reach below N from above it
@example((3, 3**10 + 20))
@example((5, 5**7 - 14))
@example((11, 11**4 + 8))
@example((101, 101**2 - 4))
def test_one_sided_marks_extend_to_the_symmetric_sieve(case):
    # density_bounds counts Z1 on the one-sided marks, then adds Z2's
    # offsets below each multiple and its top levels to the same bytes.
    p, upper = case
    prime = Prime(p)
    members = member_mask(prime, upper, symmetric=False)
    assert _mark(members, prime, upper, (-1,)) == member_mask(prime, upper, symmetric=True)


@cache
def _point_members(p: int, symmetric: bool) -> bytes:
    """Byte k is in_z1 (symmetric: in_z2) of 2k+1, for 2k+1 <= 10**5 + 1."""
    member = in_z2 if symmetric else in_z1
    return bytes(member(Prime(p), i) for i in range(1, 10**5 + 2, 2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7, 101]), st.integers(1, 10**5))
@example(3, 1)
@example(5, 2)  # an even N: (N+1)//2 odd numbers, not N//2 + 1
@example(101, 100)  # N < p
@example(3, 10**5)
@example(7, 7**5 + 3)
@example(7, 4001)
def test_member_mask_is_the_point_membership_and_density_counts_it(p, upper):
    # The sieve's bytes are the members, byte for byte, and the empirical
    # densities are their counts over the (N+1)//2 odd numbers up to N.
    prime = Prime(p)
    size = (upper + 1) // 2
    z1, z2 = (member_mask(prime, upper, symmetric) for symmetric in (False, True))
    assert z1 == _point_members(p, False)[:size]
    assert z2 == _point_members(p, True)[:size]
    rep = density_bounds(prime, upper)
    assert rep.empirical_z1 == Fraction(z1.count(1), size)
    assert rep.empirical_z2 == Fraction(z2.count(1), size)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009])
def test_b_exceeds_its_level_bound(p):
    # b_j > lam*j for even j >= 2 (the gaps docstring): the lemma behind
    # the level bound and the density tail's remainder.
    prime, lam = Prime(p), Fraction(2 * p - 3, 2 * p - 2)
    for j in range(2, 4001, 2):
        assert b_val(prime, j) > lam * j, j


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009])
def test_tail_remainder_bounds_the_level_terms_from_k_60(p):
    # The proof's own inequality: the remainder both tail sums share, the
    # geometric sum 1/(p^(f-1) (p-1)) of p^-f, p^-(f+1), ... with
    # f = floor(60 lam) + 2, covers p^-(floor(lam*k) + 2), which bounds
    # p^-e_k, for every even k >= 60 (here up to 2000).
    prime, lam = Prime(p), Fraction(2 * p - 3, 2 * p - 2)
    _, level = _tail_sums(prime, lam)
    rest = level - sum(Fraction(1, p ** (math.floor(lam * k) + 2)) for k in range(6, 60, 2))
    f = math.floor(60 * lam) + 2
    assert rest == Fraction(1, p ** (f - 1) * (p - 1))
    assert rest >= sum(Fraction(1, p ** (math.floor(lam * k) + 2)) for k in range(60, 2001, 2))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009])
def test_sharp_tail_head_takes_the_exact_exponents(p):
    # e_k = 1 + min b_j over even j >= k, and j in [k, 2k] suffices:
    # b_k <= k < lam*2k < b_j for j > 2k.  Past k = 58 the sharp sum takes
    # the level sum's remainder.
    prime, lam = Prime(p), Fraction(2 * p - 3, 2 * p - 2)
    sharp, level = _tail_sums(prime, lam)
    head = sum(
        Fraction(1, p ** (1 + min(b_val(prime, j) for j in range(k, 2 * k + 1, 2)))) for k in range(6, 60, 2)
    )
    level_head = sum(Fraction(1, p ** (math.floor(lam * k) + 2)) for k in range(6, 60, 2))
    assert sharp - head == level - level_head


def _per_offset_mask(p: int, upper: int, symmetric: bool) -> bytearray:
    """Byte k is 0 iff 2k+1 is an odd multiple of some p^v shifted by an
    even d, |d| <= g(p^v) (d >= 0 unless symmetric): every offset of every
    level cleared over its multiples one byte at a time."""
    prime, members = Prime(p), bytearray(b"\x01") * ((upper + 1) // 2)
    q, v = p, 1
    while q <= upper + 2 * v:
        g = _gap_for_valuation(prime, v)
        for d in range(-g if symmetric else 0, g + 1, 2):
            for i in range(q + d, upper + 1, 2 * q):
                members[i // 2] = 0
        q, v = q * p, v + 1
    return members


@pytest.mark.parametrize("p", [3, 5, 7, 101, 1009])
def test_mask_pieces_match_the_per_offset_reference(p, monkeypatch):
    # _mark writes each slice in pieces of len(_ZEROS) bytes; a 5-byte
    # buffer makes many pieces, and a short last one, at these sizes.
    monkeypatch.setattr(gaps_module, "_ZEROS", bytes(5))
    for upper in (1, 2, 4000, p * p + 1, 10**5 + 1):
        for symmetric in (False, True):
            assert member_mask(Prime(p), upper, symmetric) == _per_offset_mask(p, upper, symmetric), upper


def test_mask_pieces_at_full_size_match_the_per_offset_reference():
    # At p = 3 and 10^6 each level-1 slice is two full 64 KiB pieces and a
    # short one.
    for symmetric in (False, True):
        assert member_mask(P3, 10**6, symmetric) == _per_offset_mask(3, 10**6, symmetric)


def test_sieve_peak_is_the_mask_and_one_bounded_piece():
    # The mask at 10^7 is 5 MB; a zero buffer per slice, a third of the
    # mask at p = 3, would peak at 8.3 MB.
    gc.collect()
    tracemalloc.start()
    try:
        member_mask(P3, 10**7, symmetric=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 10**6, peak
