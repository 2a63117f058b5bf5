import decimal
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cychom import padic
from cychom.padic import (
    Prime,
    a_val,
    b_val,
    factorial_vp,
    odd_valuations,
    seq_a,
    seq_b,
    staircase_parts,
    staircase_residue,
    vp,
)
from residue import residue

P3 = Prime(3)
P5 = Prime(5)
P7 = Prime(7)


def _frac_vp(p, x):
    # The valuation of a nonzero Fraction straight from its two parts.
    return vp(p, x.numerator) - vp(p, x.denominator)


@pytest.mark.parametrize("bad", [2, 4, 9, 1, 0, -3, 15])
def test_prime_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError):
        Prime(bad)


def test_prime_accepts_large_primes():
    assert Prime(2**61 - 1).p == 2**61 - 1
    assert Prime(2**31 - 1).p == 2**31 - 1


@pytest.mark.parametrize("bad", [561, 3215031751, 2**61 + 1, 3825123056546413051])
def test_prime_rejects_pseudoprimes(bad):
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7; 3825123056546413051 to every prime base up to 23.
    with pytest.raises(ValueError):
        Prime(bad)


def test_prime_refuses_beyond_certified_range():
    with pytest.raises(ValueError, match="certified"):
        Prime(2**89 - 1)  # prime, but above the Miller-Rabin bound


def test_primality_matches_eratosthenes_below_1e5():
    from cychom.padic import _is_prime

    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, limit, d)))
    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_prime_is_immutable_and_hashable():
    p = Prime(3)
    with pytest.raises(AttributeError):
        p.p = 5
    assert {Prime(3): 1}[Prime(3)] == 1


def test_vp_examples():
    assert vp(P3, 9) == 2
    assert vp(P5, 7) == 0
    assert vp(P3, 54) == 3
    assert vp(P3, -54) == 3


def test_vp_zero_rejected():
    with pytest.raises(ValueError, match="zero"):
        vp(P3, 0)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_vp_multiplicative(m, n):
    assert vp(P3, m * n) == vp(P3, m) + vp(P3, n)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 101]),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=-(10**30), max_value=10**30).filter(lambda u: u != 0),
)
@example(3, 2000, -1)
@example(5, 1023, 7)
@example(7, 1024, 1)
# Each side of the plain divisions for valuations 1 and 2.
@example(3, 0, 2)
@example(3, 1, -1)
@example(5, 2, 4)
@example(3, 3, 1)
@example(7, 4, -6)
def test_vp_of_prime_power_times_unit(p, e, u):
    if u % p == 0:
        u += 1 if u > 0 else -1
    assert vp(Prime(p), p**e * u) == e


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 13, 101]),
    st.integers(min_value=-300, max_value=3000),
    st.integers(min_value=-2, max_value=3000),
)
@example(3, 5, 4)  # empty: hi < lo
@example(3, 1, 1)
@example(3, 2, 2)  # a single even n
@example(3, -243, 243)
def test_odd_valuations_matches_elementwise_vp(p, lo, width):
    prime = Prime(p)
    hi = lo + width
    want = sorted((e for e in (vp(prime, n) for n in range(lo, hi + 1) if n % 2) if e), reverse=True)
    got = odd_valuations(prime, lo, hi)
    # {e: count}, e descending, no zero count: the runs of the descending list.
    assert list(got.items()) == [(e, len(list(g))) for e, g in itertools.groupby(want)]


def test_factorial_vp_examples():
    assert factorial_vp(P3, 6) == 2
    assert factorial_vp(P3, 0) == 0
    assert factorial_vp(P5, 25) == 6


@pytest.mark.parametrize("p", [P3, P5, P7])
@pytest.mark.parametrize("m", [0, 1, 2, 7, 30, 97, 200])
def test_factorial_vp_against_factorial(p, m):
    # Independent oracle: actually build m! and count.
    assert factorial_vp(p, m) == (vp(p, math.factorial(m)) if m > 1 else 0)


def test_seq_a_values():
    assert seq_a(P5, 1) == 5
    assert seq_a(P3, 3) == 9
    assert seq_a(P3, 5) == Fraction(81, 5)
    assert _frac_vp(P3, seq_a(P3, 5)) == 4


def test_seq_b_values():
    assert seq_b(P7, 0) == 1
    assert seq_b(P3, 2) == Fraction(9, 2)
    assert _frac_vp(P3, seq_b(P3, 2)) == 2
    assert seq_b(P3, 6) == Fraction(243, 16)
    assert _frac_vp(P3, seq_b(P3, 6)) == 5


@pytest.mark.parametrize("p", [P3, P5, Prime(101)])
def test_seq_closed_forms_follow_the_recursion(p):
    # A_1 = p, B_0 = 1, and X_j = p^2 X_{j-2} / j for both sequences.
    a, b = Fraction(p.p), Fraction(1)
    assert seq_a(p, 1) == a and seq_b(p, 0) == b
    for j in range(2, 400):
        if j % 2:
            a = a * p.p**2 / j
            assert seq_a(p, j) == a
        else:
            b = b * p.p**2 / j
            assert seq_b(p, j) == b


def _texts(p, j):
    """The text each value of ``staircase_parts`` joins to."""
    return list(map("".join, staircase_parts(p, j)))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
def test_staircase_texts_match_str_of_fraction(p):
    # k!! built by its own running product; every text stays below the
    # 4300-digit int->str limit at k <= 1201.  Column 1201 writes X_1201
    # and the even X_k, column 1200 X_1200 and the odd X_k.
    double_fact = [1, 1]
    for k in range(2, 1202):
        double_fact.append(double_fact[k - 2] * k)
    seen = set()
    for j in (1201, 1200):
        texts = _texts(Prime(p), j)
        ks = [j, *range(j - 1, -1, -2)]
        assert len(texts) == len(ks)
        for k, text in zip(ks, texts):
            assert text == str(Fraction(p**k, double_fact[k])), k
        seen.update(ks)
    assert seen == set(range(1202))


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_staircase_texts_small_columns(j):
    expected = {0: ["1"], 1: ["3", "1"], 2: ["9/2", "3"], 3: ["9", "9/2", "1"]}
    assert _texts(P3, j) == expected[j]


def test_staircase_texts_rejects_negative_index():
    with pytest.raises(ValueError):
        staircase_parts(P3, -1)


def test_staircase_texts_raise_rather_than_round(monkeypatch):
    # A context with room for 30 digits cannot hold X_k up to k = 201: the
    # pass must stop at Inexact, not print a rounded text, and it must do
    # so on the call, before any text is read.
    small = decimal.Context(prec=30, traps=[decimal.Inexact, decimal.Rounded])
    monkeypatch.setattr(padic, "_EXACT", small)
    with pytest.raises(decimal.Inexact):
        staircase_parts(P3, 201)


@pytest.mark.parametrize("j", [0, -1, 4, 10])
def test_seq_a_rejects_bad_indices(j):
    with pytest.raises(ValueError):
        seq_a(P3, j)


@pytest.mark.parametrize("j", [-2, 1, 7])
def test_seq_b_rejects_bad_indices(j):
    with pytest.raises(ValueError):
        seq_b(P3, j)


def test_a_val_examples():
    assert a_val(P7, 1) == 1
    assert a_val(P3, 5) == 4
    # Derived two ways: the valuation recursion and the raw fraction.
    assert a_val(P3, 7) == 6
    assert _frac_vp(P3, seq_a(P3, 7)) == 6


@pytest.mark.parametrize("p", [P3, P5, P7, Prime(11), Prime(13), Prime(101)])
def test_a_val_matches_valuation_recursion(p):
    # Independent route: a_1 = 1 and a_j = a_{j-2} + 2 - v_p(j).
    acc = 1
    for j in range(1, 6000, 2):
        if j > 1:
            acc += 2 - vp(p, j)
        assert a_val(p, j) == acc


def test_b_val_examples():
    assert b_val(P3, 0) == 0
    assert b_val(P3, 6) == 5
    assert b_val(P3, 14) == 12


@pytest.mark.parametrize("p", [P3, P5, P7])
def test_vals_match_sequence_valuations(p):
    for j in range(1, 60, 2):
        assert a_val(p, j) == _frac_vp(p, seq_a(p, j))
    for j in range(0, 60, 2):
        assert b_val(p, j) == _frac_vp(p, seq_b(p, j))


@pytest.mark.parametrize("p", [P3, P5, P7])
def test_a_from_b_identity(p):
    for j in range(1, 120, 2):
        assert a_val(p, j) == b_val(p, 2 * j) - b_val(p, j - 1) - 1


@pytest.mark.parametrize("p", [P3, P5, P7])
def test_b_lower_bounds(p):
    for j in range(2, 160, 2):
        assert b_val(p, j) > Fraction(j) - Fraction(j, 2 * (p.p - 1))
        e = 0
        while p.p ** (e + 1) <= j // 2 + 1:
            e += 1
        assert b_val(p, j) >= e


@pytest.mark.parametrize("p", [P3, P5, P7])
def test_sequences_are_p_local(p):
    for j in range(1, 80, 2):
        assert seq_a(p, j).denominator % p.p != 0
        assert a_val(p, j) >= 0
    for j in range(0, 80, 2):
        assert seq_b(p, j).denominator % p.p != 0
        assert b_val(p, j) >= 0


def test_padic_rational_residue():
    # 81 * 5^{-1} mod 3^6: inverse of 5 mod 729 is 146, 81*146 = 11826 = 162 mod 729
    assert residue(Fraction(81, 5), 3**6) == (81 * pow(5, -1, 3**6)) % 3**6
    assert residue(Fraction(0), 27) == 0


def test_padic_rational_rejects_bad_residue():
    # pow(3, -1, 27) would refuse too; the message shows residue's own check.
    with pytest.raises(ValueError, match="denominator not invertible"):
        residue(Fraction(1, 3), 27)


def test_padic_rational_reduced_and_cached():
    # A rational is held in lowest terms, so an unreduced input has the same
    # residue and valuation as its reduced form; 1/3 is not 3-local.
    x = Fraction(18, 12)
    assert (x.numerator, x.denominator) == (3, 2)
    assert residue(x, 3**4) == residue(Fraction(3, 2), 3**4) == (3 * pow(2, -1, 81)) % 81
    assert _frac_vp(P3, x) == 1
    assert Fraction(1, 3).denominator % P3.p == 0


@pytest.mark.parametrize("modulus", [0, -27])
def test_residue_rejects_nonpositive_modulus(modulus):
    with pytest.raises(ValueError, match="modulus must be positive"):
        residue(Fraction(81, 5), modulus)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 101]), st.integers(0, 600), st.integers(1, 40))
@example(3, 0, 1)
@example(3, 729, 3)  # k!! carries p^v with v > 2
@example(101, 203, 1)
def test_staircase_residue_is_residue_of_the_fraction(p, k, e):
    # The integer route strips p from k!! and inverts the rest; residue
    # reduces the Fraction p^k / k!! itself.
    prime = Prime(p)
    x = seq_a(prime, k) if k % 2 else seq_b(prime, k)
    assert staircase_residue(prime, k, p**e) == residue(x, p**e)


def test_staircase_residue_rejects_negative_index():
    with pytest.raises(ValueError):
        staircase_residue(P3, -1, 27)


@pytest.mark.parametrize("p", [3, 5, 101])
def test_staircase_parts_join_to_the_texts(p):
    # Digits, or digits "/" digits: nothing a JSON or CSV writer escapes.
    # Column j holds X_j, then X_k for every k < j of the other parity.
    for j in (0, 1, 2, 301, 302):
        parts = list(staircase_parts(Prime(p), j))
        ks = [j, *range(j - 1, -1, -2)]
        assert list(map("".join, parts)) == [str(seq_a(Prime(p), k) if k % 2 else seq_b(Prime(p), k)) for k in ks]
        for value in parts:
            assert len(value) in (1, 3) and value[1:2] in ((), ("/",))
            assert all(part.isdigit() for part in value[::2])
