"""How far each exhaustive sweep goes, keyed by the test that reads it.

Each entry is (tier-1's size, the wide size).  ``CYCHOM_WIDE=1`` selects
the wide column.  Run as a script, this prints the keys of ``SIZES``, one
a line, and CI's wide step runs exactly those tests:

    CYCHOM_WIDE=1 PYTHONPATH=src python -m pytest -q $(python tests/sweeps.py)
"""

import os

SIZES = {
    # Every even degree of the walk against local_snf and cokernel_shape.
    "tests/test_linalg.py::test_walk_matches_local_snf_at_every_even_degree": (600, 2000),
    # Every odd i of Z1/Z2 membership against the definition.
    "tests/test_gaps.py::test_point_queries_against_wide_window_brute_force": (20001, 200_000),
    # Every even degree of the oracle against the closed forms, its Connes
    # lengths, Pieri steps and HP stabilization, and the census.
    "tests/test_homology.py::test_two_routes_agree_at_every_even_degree_of_the_sweep": (10**4, 2 * 10**5),
    # Every odd index below it of the colimit presentation against the walk.
    "tests/test_homology.py::test_presentation_matches_the_walk_at_every_odd_index_of_the_sweep": (200, 4000),
    # Every degree of the mixed complex of R//p, built from its chains,
    # against hochschild and the oracle, and its three identities.
    "tests/test_mixed_complex.py::test_complex_gives_hh_and_hc_at_every_degree_of_the_sweep": (12, 16),
    # Every degree of Loday's small mixed complex of R//p against
    # hochschild and the oracle, odd degrees included.
    "tests/test_small_complex.py::test_small_complex_gives_hh_and_hc_at_every_degree_of_the_sweep": (400, 800),
}

WIDE = os.environ.get("CYCHOM_WIDE") == "1"


def size(test: str) -> int:
    """The size the sweep ``test`` (a key of ``SIZES``) runs to."""
    return SIZES[test][WIDE]


if __name__ == "__main__":
    print("\n".join(SIZES))
