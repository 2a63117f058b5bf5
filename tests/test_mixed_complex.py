"""The normalized mixed complex of R//p, built from its chains in
``mixed_complex``, against the package: the three identities of a mixed
complex, HH against ``hochschild``'s closed form and HC against the
staircase oracle.  Nothing here reads a staircase or a closed form to
build the complex, so this checks the paper's reduction itself."""

import pytest
from hypothesis import given, settings, strategies as st

from cychom.homology import hc_oracle, hochschild
from cychom.linalg import IntMatrix, snf
from cychom.padic import Prime, vp
from mixed_complex import apply, b, chains, connes_b, cyclic_homology, delta, hochschild_d, hochschild_homology, zp_pivots
from sweeps import size

SWEEP = "tests/test_mixed_complex.py::test_complex_gives_hh_and_hc_at_every_degree_of_the_sweep"


def test_chains_of_degree_n_are_counted_by_fibonacci():
    fib = [1, 1]  # F_1, F_2, ...
    while len(fib) < 15:
        fib.append(fib[-1] + fib[-2])
    assert [len(chains(n)) for n in range(15)] == fib
    assert chains(3) == [(0, 2), (1, 1), (3,)]
    assert chains(4) == [(0, 1, 1), (0, 3), (1, 2), (2, 1), (4,)]


def test_operators_on_x_bar_x():
    # x[x]: b is the graded commutator x x + x x, d x = p lands on the
    # coefficient (a 1 in the bar slot is 0), and B's two rotations agree.
    assert b((1, 1)) == {(2,): 2}
    assert delta((1, 1), 3) == {(0, 1): -3}
    assert connes_b((1, 1)) == {(0, 1, 1): 2}
    assert connes_b((0, 1)) == {}  # a0 = 1 would sit in a bar slot
    assert b((5,)) == {} and delta((5,), 3) == {(4,): 3} and delta((2, 2), 3) == {}


@st.composite
def _matrices(draw):
    """Integer matrices of both signs, rank-deficient as a product through
    a narrow middle dimension, with many entries divisible by p."""
    rows, inner, cols = (draw(st.integers(min_value=0, max_value=6)) for _ in range(3))
    entries = st.sampled_from([0, 0, 1, -1, 2, 3, -3, 5, 9, -25, 27, 49, 6, -10, 14])
    left = [[draw(entries) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(entries) for _ in range(cols)] for _ in range(inner)]
    return [[sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]


@settings(max_examples=200, deadline=None)
@given(_matrices(), st.sampled_from([3, 5, 7]))
def test_zp_pivots_are_the_valuations_of_the_integer_snf(data, q):
    rows = [{c: x for c, x in enumerate(row) if x} for row in data]
    factors = snf(IntMatrix(data)).invariant_factors
    assert sorted(zp_pivots(rows, Prime(q))) == sorted(vp(Prime(q), f) for f in factors)
    assert rows == [{c: x for c, x in enumerate(row) if x} for row in data]  # not modified


def _sum(*vectors):
    out = {}
    for vector in vectors:
        for chain, c in vector.items():
            out[chain] = out.get(chain, 0) + c
    return {chain: c for chain, c in out.items() if c}


@pytest.mark.parametrize("q", [3, 5, 7])
def test_complex_gives_hh_and_hc_at_every_degree_of_the_sweep(q):
    # (b + delta)^2, (b + delta) B + B (b + delta) and B^2 vanish on every
    # chain that the complexes to degree top + 1 hold; then HH is
    # hochschild's closed form and HC the oracle's staircase in every
    # degree to top, exactly.
    p, top = Prime(q), size(SWEEP)

    def d(vector):
        return apply(lambda chain: hochschild_d(chain, q), vector)

    for n in range(top + 2):
        for chain in chains(n):
            one = {chain: 1}
            assert d(d(one)) == {}, ("(b + delta)^2", chain)
            assert _sum(d(apply(connes_b, one)), apply(connes_b, d(one))) == {}, ("(b + delta) B + B (b + delta)", chain)
            assert apply(connes_b, apply(connes_b, one)) == {}, ("B^2", chain)
    assert hochschild_homology(p, top) == [hochschild(p, n).shape for n in range(top + 1)]
    assert cyclic_homology(p, top) == [hc_oracle(p, n).shape for n in range(top + 1)]
