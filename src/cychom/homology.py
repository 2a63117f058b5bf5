"""Hochschild, cyclic, negative cyclic, and periodic homology of R//p over R.

R//p is the universal differential graded algebra R[x], |x| = 1, dx = p,
over a p-torsion-free Z_(p)-algebra R.  It is the tensor algebra on x, so
Loday's small mixed complex gives its homology (Cyclic Homology, 3.1):
alpha_0 = 1, alpha_m = x^m and beta_m = x^(m-1) (x) x for m >= 1, with
b(beta_m) = 2 alpha_m and d(beta_m) = p beta_(m-1) for even m,
B(alpha_m) = m beta_m and d(alpha_m) = p alpha_(m-1) for odd m, else 0.
Along its one path, the boundary into even degree N reads p, 2, p,
N - 1, p, 2, p, N - 3, ..., p, 2, p, 1, p.  Each 2, a unit at odd p,
merges its neighbours p, p into one entry of valuation 2; what is left,
read from the other end, is ``_staircase(p, 1, 2, 0, N/2 + 1)``, and the
negative complex's truncations reduce alike.  So every homology module
in sight is the cokernel of an explicit lower-bidiagonal "staircase"
matrix:

  * cyclic, even degree i > 0:   (i/2+1)-square, diagonal (p, p^2, ..., p^2),
    subdiagonal (1, 3, 5, ..., i-1);
  * periodic, even degree:       the same map on a countable product, so a
    K-square truncation of the cyclic pattern;
  * negative cyclic, even degree m > 0: diagonal all p^2, subdiagonal
    (m+1, m+3, m+5, ...), again on a product.

Their cokernels come exactly from the valuations of their entries, so
each matrix is stated by those alone; a staircase's, in path order, go
through one left-to-right walk that gives every leading square block at
once (the oracle route, :func:`cychom.linalg.staircase_cokernels`).
Independently, closed-form decompositions are available whenever
the degree avoids the gap windows of :mod:`cychom.gaps`; they are driven by
the coefficient sequences of :mod:`cychom.padic`.  The verify_* operations
pit the two routes against each other.  Hochschild homology is a closed
form alone.  The tests hold the small complex (``tests/small_complex.py``)
to the chain-level mixed complex in low degrees, and HH, HC and the
negative staircase's blocks to it at every degree of a sweep.

Degree bookkeeping: the staircase colimit with top odd index i computes
cyclic homology in degree i+1; the kernel of the limit over the colimit at
index i computes negative cyclic homology in degree i+3; the full inverse
limit is periodic homology in degree 0.  Only homological degrees appear
in public signatures.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from itertools import chain, count, islice, repeat

from .gaps import in_z1, in_z2
from .linalg import (
    TRIVIAL_SHAPE,
    ModuleShape,
    cokernel_shape,
    staircase_cokernels,
    submodule_equal_mod,
)
from .padic import Prime, _check_phi_indices, a_val, b_val, odd_valuations, seq_a, staircase_residue, vp


HomologyResult = namedtuple("HomologyResult", "theory degree shape method")
HomologyResult.__doc__ = """One homology module: theory "HH" | "HC" | "HCneg" | "HP", its degree,
its ModuleShape (which holds the cut of an infinite product), and the
method "oracle" | "closed_form"."""

Check = namedtuple("Check", "name ok detail", defaults=("",))
Check.__doc__ = """One verify check: its name, whether it passed, and what it found
("" when there is nothing to add)."""


def _staircase(p: Prime, head_v: int, diag_v: int, offset: int, n: int) -> Iterator[int]:
    """The valuations of an n-square staircase in path order, made as they
    are read: head_v at (0, 0), diag_v down the rest of the diagonal, and
    those of offset + 1, offset + 3, ... below it."""
    below = map(vp, repeat(p), range(offset + 1, offset + 2 * n - 2, 2))
    return chain([head_v], chain.from_iterable(zip(below, repeat(diag_v))))


def cyclic_matrix(p: Prime, i: int) -> list[dict[int, int]]:
    """Presentation matrix of cyclic homology in even degree i >= 2, as
    sparse rows {column: entry}.

    >>> cyclic_matrix(Prime(3), 4)
    [{0: 3}, {0: 1, 1: 9}, {1: 3, 2: 9}]
    """
    if i < 2 or i % 2 == 1:
        raise ValueError(f"cyclic presentation needs even degree >= 2, got {i}")
    return [{0: p.p}] + [{k - 1: 2 * k - 1, k: p.p**2} for k in range(1, i // 2 + 1)]


def hochschild(p: Prime, i: int) -> HomologyResult:
    """Hochschild homology of R//p in degree i, in closed form: R/p at 0,
    R/p^2 in positive even degrees, 0 in odd ones.  The tests hold it to
    the normalized Hochschild complex of R//p, built from its chains."""
    if i < 0:
        raise ValueError("negative degree")
    shape = TRIVIAL_SHAPE if i % 2 else ModuleShape((2 if i else 1,))
    return HomologyResult("HH", i, shape, "closed_form")


def _hc_walk(p: Prime, i_max: int) -> Iterator[tuple[Counter, list[int]]]:
    """``staircase_cokernels`` over the (i_max//2 + 1)-square cyclic
    staircase: its leading (i/2 + 1)-square block presents cyclic homology
    in even degree i, and the map out of odd degree i + 1."""
    return staircase_cokernels(_staircase(p, 1, 2, 0, i_max // 2 + 1))


def hc_oracle(p: Prime, i: int) -> HomologyResult:
    """Cyclic homology in degree i from the staircase presentation, exactly.

    Odd degrees vanish because the staircase map is injective: its
    entries are all nonzero, so it has full rank, and no walk is needed.
    """
    if i < 0:
        raise ValueError("negative degree")
    if i % 2:
        return HomologyResult("HC", i, TRIVIAL_SHAPE, "oracle")
    for pivots, tail in _hc_walk(p, i):
        pass
    return HomologyResult("HC", i, ModuleShape(pivots + Counter(tail)), "oracle")


def hc_closed_form(p: Prime, i: int) -> HomologyResult | None:
    """Closed-form cyclic homology in even degree i >= 2, when covered.

    Covered degrees: i-1 in Z1 gives head exponent a_{i-1} + 2; failing
    that, i+1 in Z2 gives head exponent a_{i+1}.  Both carry the same tail,
    the torsion of HP cut at i-1, R/1 x R/3 x ... x R/(i-1), read off
    ``hp``: so every covered degree that ``verify`` checks ties the HP
    closed form to the oracle.  Returns None outside both sets.
    """
    if i % 2 == 1:
        raise ValueError("closed forms exist in even degrees only")
    if i < 2:
        raise ValueError("closed form needs degree >= 2")
    if in_z1(p, i - 1):
        head = a_val(p, i - 1) + 2
    elif in_z2(p, i + 1):
        head = a_val(p, i + 1)
    else:
        return None
    counts = dict(hp(p, 0, i - 1).shape.torsion)
    counts[head] = counts.get(head, 0) + 1
    return HomologyResult("HC", i, ModuleShape(counts), "closed_form")


def _product(p: Prime, start: int, n_max: int) -> ModuleShape:
    """The completion of R times R/start x R/(start+2) x ..., shown up to
    R/n_max, which must be odd and positive."""
    if n_max < 1 or n_max % 2 == 0:
        raise ValueError("n_max must be an odd positive integer")
    return ModuleShape(odd_valuations(p, start, n_max), complete_rank=1, n_max=n_max)


def hp(p: Prime, i: int, n_max: int) -> HomologyResult:
    """Periodic homology in degree i, displayed up to torsion factor R/n_max.

    Even degrees all agree: one copy of the p-adic completion of R times
    R/1 x R/3 x R/5 x ...; odd degrees vanish.  n_max must be odd.
    """
    shape = _product(p, 1, n_max)
    return HomologyResult("HP", i, TRIVIAL_SHAPE if i % 2 else shape, "closed_form")


def hc_neg_closed_form(p: Prime, m: int, n_max: int) -> HomologyResult | None:
    """Closed-form negative cyclic homology in degree m, when covered.

    Non-positive even m gives the periodic answer.  Positive even m with
    m-1 in Z2 gives the completion times R/(m-1) x R/(m+1) x ...; other
    positive even m are not covered (None).  Odd m vanishes.  n_max must
    be odd.
    """
    shape = _product(p, max(m - 1, 1), n_max)
    if m % 2 == 1:
        return HomologyResult("HCneg", m, TRIVIAL_SHAPE, "closed_form")
    if m > 0 and not in_z2(p, m - 1):
        return None
    return HomologyResult("HCneg", m, shape, "closed_form")


CoeffVector = namedtuple("CoeffVector", "head components")
CoeffVector.__doc__ = """Coefficients of the index-j staircase generator inside the regular
colimit with top index i: a head entry (a Fraction) plus one
(odd modulus n, Fraction) pair per component."""


def phi_coeffs(p: Prime, j: int, i: int) -> CoeffVector:
    """The image of the index-j generator in R + R/1 + R/3 + ... + R/i.

    Head coordinate A_j; coordinate at odd n <= i is B_{j-n} for n <= j and
    zero for n > j.  B_0, B_2, ..., B_{j-1} come from one pass of
    B_k = p^2 B_{k-2} / k.
    """
    from fractions import Fraction

    _check_phi_indices(j, i)
    p2 = p.p * p.p
    b = [Fraction(1)]
    for k in range(2, j, 2):
        b.append(b[-1] * p2 / k)
    comps = tuple((n, b[(j - n) // 2] if n <= j else Fraction(0)) for n in range(1, i + 1, 2))
    return CoeffVector(seq_a(p, j), comps)


def _colimit_rows(p: Prime, i: int) -> list[dict[int, int]]:
    """The colimit with top index i and its head relation imposed, as rows
    of {column: valuation}: the relation's 2 + a_i in row 0 and 2 + b_{i-n}
    in row k of column 0, and v_p of the modulus n = (2k - 1)p in column k.

    Only the odd multiples n of p have a row.  For n prime to p the factor
    R/n is 0: its row's pendant entry has valuation 0, so it pivots first
    and leaves no fill, and dropping that row and its column leaves the
    cokernel, free_rank included, as it was."""
    return [{0: 2 + a_val(p, i)}] + [
        {0: 2 + b_val(p, i - n), k: vp(p, n)} for k, n in enumerate(range(p.p, i + 1, 2 * p.p), 1)
    ]


def verify_presentation(p: Prime, i: int, shape: ModuleShape) -> Check:
    """Check the head-relation presentation of the colimit against
    ``shape``, the oracle's cyclic homology in degree i + 1.

    The colimit with top index i, with its head relation p^2 * (index-i
    generator image) imposed, presents cyclic homology in degree i+1.  The
    relation's entries, p^2 A_i at the head and p^2 B_{i-n} at each odd
    n <= i, are all nonzero.  Their column is a star, and each modulus a
    pendant edge on one of its rows, so by ``cokernel_shape`` their
    valuations 2 + a_i and 2 + b_{i-n}, with the moduli's v_p(n), decide
    the cokernel: the relation is rebuilt from those valuations alone.
    The star lists only the odd multiples of p: a factor R/n with n prime
    to p is 0, and its row changes nothing (``_colimit_rows``).
    """
    if i < 1 or i % 2 == 0:
        raise ValueError("colimit index must be odd and positive")
    rebuilt = cokernel_shape(_colimit_rows(p, i))
    ok = rebuilt == shape
    return Check(f"colimit presentation {i}", ok, "" if ok else f"rebuilt {rebuilt} vs oracle {shape}")


def verify_kernel_generators(p: Prime, i: int, upto: int) -> bool:
    """Finite-truncation check of the kernel generator description.

    For i in Z2, the generators psi_{i}(1), psi_{i+2}(1), ..., psi_{i+upto}(1)
    span the same submodule as A_i * e_head, e_i, e_{i+2}, ..., e_{i+upto}
    after truncating the head to Z/p^T, T = a_i + 6.  A coordinate n of
    psi_j is B_{j-n} mod p^{v_p(n)}, which is 0 without reducing B_{j-n}
    when b_{j-n} >= v_p(n).  So psi_j is a sparse row of the head and its
    live coordinates, which are n in [i, j]: a live n < i has
    0 < i - n <= j - n <= g(n), which puts i in n's window.  Every other
    coordinate is zero in every generator on both sides, so each quotient
    that ``submodule_equal_mod`` measures splits off the same product of
    the Z/p^{v_p(n)} there and the verdict cannot depend on them: the
    product is the head and the odd multiples of p in [i, i + upto] alone.
    Every residue comes from integers (``staircase_residue``).  Raises for
    i outside Z2 (the description needs the membership).
    """
    if i % 2 == 0 or i < 1:
        raise ValueError("index must be odd and positive")
    if upto < 0 or upto % 2 == 1:
        raise ValueError("generator range must be even and nonnegative")
    if not in_z2(p, i):
        raise ValueError(f"closed form requires Z2 membership, {i} is excluded")
    head_mod = p.p ** (a_val(p, i) + 6)
    coords = [(n, v) for n in range(i, i + upto + 1, 2) if (v := vp(p, n)) > 0]
    moduli = [head_mod] + [p.p**v for _, v in coords]

    def psi_row(j: int) -> dict[int, int]:
        row = {0: staircase_residue(p, j, head_mod)}
        for k, (n, v) in enumerate(coords, 1):
            if n <= j and b_val(p, j - n) < v:
                row[k] = staircase_residue(p, j - n, p.p**v)
        return row

    gens_a = [psi_row(j) for j in range(i, i + upto + 1, 2)]
    gens_b = [{0: staircase_residue(p, i, head_mod)}] + [{k: 1} for k in range(1, len(moduli))]
    return submodule_equal_mod(p, gens_a, gens_b, moduli)


def connes_length_check(lengths: list[int]) -> Check:
    """Total p-length of HC is i + 1 in each even degree i, so it grows by
    exactly 2 each even degree: a wrong step has a wrong length at one of
    its ends, so the step needs no clause of its own.

    ``lengths`` are the p-lengths of the oracle's HC shapes in the even
    degrees 0, 2, 4, ..., in that order.  The detail names each degree of
    wrong length.
    """
    mismatches = [f"degree {i}: length {n} != {i + 1}" for i, n in zip(count(0, 2), lengths) if n != i + 1]
    return Check("connes length recursion", not mismatches, "; ".join(mismatches))


def hp_stabilization_check(heads: list[int]) -> Check:
    """Watch finite cyclic homology converge onto the periodic closed form.

    ``heads`` are the largest exponents of the oracle's HC shapes in the
    even degrees 0, 2, 4, ..., in order.  HH vanishes in odd degrees, so
    Connes' SBI sequence makes HC_{i-2} a quotient of HC_i: the heads never
    fall, in covered degrees or not.  Along the Z1 degrees the ``hc
    degree`` records compare them too.  The detail names each fall.
    """
    falls = [f"head exponents decrease: {prev} -> {nxt}" for prev, nxt in zip(heads, heads[1:]) if nxt < prev]
    return Check("hp stabilization", not falls, "; ".join(falls))


def verify_checks(p: Prime, hc_max: int) -> Iterator[Check]:
    """The ``verify`` battery, one check at a time: oracle against closed
    form, whose tail is HP's, in every even degree 2..hc_max, both
    shapes named on a mismatch only; the Connes lengths and every even
    degree's head; the kernel generators at the first three Z2 indices
    past 1, each asked of ``in_z2`` in turn, so no member list is made;
    and the colimit presentation at every odd index below
    min(hc_max, 12).  Hochschild homology has one route, its closed
    form, so no record.  One walk to hc_max gives the oracle's shapes, a
    block at a time: each is dropped once its ``hc degree`` record is
    out, and only each p-length and head, and the shapes up to degree
    12, are kept.  Z1 membership is asked in ``hc_closed_form`` alone.
    hc_max < 2 raises before the first record."""
    if hc_max < 2:
        raise ValueError("hc_max must be >= 2")
    lengths, heads, low = [], [], []
    for i, (pivots, tail) in zip(count(0, 2), _hc_walk(p, hc_max)):
        shape = ModuleShape(pivots + Counter(tail))
        lengths.append(shape.p_length)
        heads.append(shape.torsion[0][0])
        if i <= 12:
            low.append(shape)
        if i == 0:
            continue
        closed = hc_closed_form(p, i)
        if closed is None:
            yield Check(f"hc degree {i}", True, "not covered by a closed form")
        else:
            ok = closed.shape == shape
            yield Check(f"hc degree {i}", ok, "" if ok else f"oracle {shape} vs closed {closed.shape}")
    yield connes_length_check(lengths)
    yield hp_stabilization_check(heads)
    for i in islice((i for i in count(3, 2) if in_z2(p, i)), 3):
        yield Check(f"kernel generators at {i}", verify_kernel_generators(p, i, upto=8))
    for i in range(1, min(hc_max, 12), 2):
        yield verify_presentation(p, i, low[(i + 1) // 2])


TruncationProbeReport = namedtuple("TruncationProbeReport", "ok vacuous stable_prefix covered_up_to details")
TruncationProbeReport.__doc__ = """Outcome of hc_neg_truncation_probe: the stable valuations as runs,
(e, count) pairs with e ascending, and the odd modulus they cover up
to (or None)."""


def hc_neg_truncation_probe(p: Prime, m: int, truncation: int) -> TruncationProbeReport:
    """Compare truncated negative-staircase cokernels with the closed form.

    A pivot, once emitted, is emitted by every longer walk, so the factors
    R/p^e that the walk to the K-square truncation has pivoted out, the
    unit factors left aside, are factors of every truncation past K: they
    are the stable prefix (reported as runs, e ascending).  It must match
    the closed-form torsion R/(m-1) x R/(m+1) x ... cut at some odd point,
    reported as covered_up_to.  That torsion counts v_p(n) for the odd n
    from m - 1 to the cut, so the probe compares the prefix's counts with
    ``odd_valuations``' there.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if not in_z2(p, m - 1):
        raise ValueError(f"closed form requires Z2 membership, {m - 1} is excluded")
    # Block K, the last of the K-square staircase; in_z2 has made sure
    # that m is even and >= 2.
    stable, _ = next(islice(staircase_cokernels(_staircase(p, 2, 2, m, truncation)), truncation - 1, None))
    del stable[0]  # the unit factors
    if not stable:
        return TruncationProbeReport(True, True, (), None, "no stabilized prefix")
    runs = tuple(sorted(stable.items()))
    # The closed form's factors from R/(m-1) on are nontrivial only at the
    # odd multiples of p, and m - 1 is none, so the one cut with as many
    # factors as the prefix ends at the N-th odd multiple of p past m - 1.
    # Cuts past truncation + 3 odd steps from m - 1 are not tried.
    n = stable.total()
    covered = p.p * ((((m - 1) // p.p + 1) | 1) + 2 * (n - 1))
    if covered <= m - 1 + 2 * (truncation + 3) and stable == odd_valuations(p, m - 1, covered):
        details = f"stabilized factors match the closed form up to R/{covered}"
        return TruncationProbeReport(True, False, runs, covered, details)
    return TruncationProbeReport(False, False, runs, None, "no truncation offset matches")
