"""Loday's small mixed complex of R//p, ``small_complex``, against the
chain-level complex of ``mixed_complex`` where both run, and against the
package's staircases at every degree of a sweep.  The model reads no
staircase, valuation sequence or window, so these check the paper's
reduction to staircases itself."""

from collections import Counter

import pytest

import mixed_complex
import small_complex
from cychom.homology import _staircase, hc_oracle, hochschild
from cychom.linalg import ModuleShape, staircase_cokernels
from cychom.padic import Prime
from mixed_complex import apply
from sweeps import size

SWEEP = "tests/test_small_complex.py::test_small_complex_gives_hh_and_hc_at_every_degree_of_the_sweep"
CHAIN_SWEEP = "tests/test_mixed_complex.py::test_complex_gives_hh_and_hc_at_every_degree_of_the_sweep"


def test_maps_make_a_mixed_complex():
    # (b + delta)^2 and B^2 vanish, and (b + delta) B = -B (b + delta), on
    # every generator.
    def d(vector):
        return apply(lambda g: small_complex.hochschild_d(g, 3), vector)

    for n in range(40):
        for g in small_complex.generators(n):
            one = {g: 1}
            assert d(d(one)) == {}, ("(b + delta)^2", g)
            after = apply(small_complex.connes_b, d(one))
            assert d(apply(small_complex.connes_b, one)) == {h: -x for h, x in after.items()}, g
            assert apply(small_complex.connes_b, apply(small_complex.connes_b, one)) == {}, ("B^2", g)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_small_complex_has_the_chain_level_homology(q):
    # Every degree of the chain-level sweep: the two complexes are
    # quasi-isomorphic, so HH and HC agree factor for factor.
    p, top = Prime(q), size(CHAIN_SWEEP)
    assert small_complex.hochschild_homology(p, top) == mixed_complex.hochschild_homology(p, top)
    assert small_complex.cyclic_homology(p, top) == mixed_complex.cyclic_homology(p, top)


@pytest.mark.parametrize("q", [3, 5, 7, 101])
def test_small_complex_gives_hh_and_hc_at_every_degree_of_the_sweep(q):
    # Odd degrees included: the oracle answers them without a walk.
    p, top = Prime(q), size(SWEEP)
    assert small_complex.hochschild_homology(p, top) == [hochschild(p, n).shape for n in range(top + 1)]
    assert small_complex.cyclic_homology(p, top) == [hc_oracle(p, n).shape for n in range(top + 1)]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_negative_truncations_are_the_negative_staircase_blocks(q):
    # H_m(T_K) is the cokernel of the (K+1)-square negative staircase at
    # offset m, the block hc_neg_truncation_probe reads.
    p = Prime(q)
    for m in range(2, 121, 2):
        for K in range(0, 31, 3):
            for pivots, tail in staircase_cokernels(_staircase(p, 2, 2, m, K + 1)):
                pass
            assert small_complex.negative_truncation(p, m, K) == ModuleShape(pivots + Counter(tail)), (m, K)
