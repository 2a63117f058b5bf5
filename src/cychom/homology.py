"""Hochschild, cyclic, negative cyclic, and periodic homology of R//p over R.

R//p is the universal differential graded algebra R[x], |x| = 1, dx = p,
over a p-torsion-free Z_(p)-algebra R.  After reducing the standard
bicomplexes, every homology module in sight is the cokernel of an explicit
lower-bidiagonal integer "staircase" matrix:

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
pit the two routes against each other.

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
from .padic import Prime, a_val, b_val, odd_valuations, seq_a, staircase_parts, staircase_residue, vp


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
    """Hochschild homology of R//p in degree i, oracle-checked.

    The closed form (R/p at 0, R/p^2 in positive even degrees, 0 otherwise)
    is recomputed from the valuations of the two-term total-complex blocks'
    entries (p, 2, p), and the two must agree exactly.
    """
    if i < 0:
        raise ValueError("negative degree")
    mat = [{0: 1}] if i < 2 else [{0: 1, 1: 0}, {1: 1}]
    if i % 2 == 0:
        closed = ModuleShape((2 if i else 1,))
        oracle = cokernel_shape(mat)
    else:
        closed = TRIVIAL_SHAPE
        # The differential out of an odd degree is injective, so the
        # homology there is zero: its matrix has full rank.
        if cokernel_shape(mat).free_rank:
            raise ArithmeticError(f"HH differential out of degree {i} is not injective")
        oracle = TRIVIAL_SHAPE
    if oracle != closed:
        raise ArithmeticError(f"HH oracle {oracle} disagrees with closed form {closed}")
    return HomologyResult("HH", i, closed, "closed_form")


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


def hc_oracle_shapes(p: Prime, i_max: int) -> dict[int, ModuleShape]:
    """``hc_oracle(p, i).shape`` for every even degree i = 0, 2, ..., i_max,
    from one walk over the largest staircase, whose leading blocks are
    the smaller ones."""
    if i_max < 0:
        raise ValueError("negative degree")
    return {2 * k: ModuleShape(pivots + Counter(tail)) for k, (pivots, tail) in enumerate(_hc_walk(p, i_max))}


def hc_closed_form(p: Prime, i: int) -> HomologyResult | None:
    """Closed-form cyclic homology in even degree i >= 2, when covered.

    Covered degrees: i-1 in Z1 gives head exponent a_{i-1} + 2; failing
    that, i+1 in Z2 gives head exponent a_{i+1}.  Both carry the same tail
    R/1 x R/3 x ... x R/(i-1).  Returns None outside both sets.
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
    shape = ModuleShape(Counter(odd_valuations(p, 3, i - 1)) + Counter([head]))
    return HomologyResult("HC", i, shape, "closed_form")


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


def _check_phi_indices(j: int, i: int) -> None:
    if j % 2 == 0 or i % 2 == 0 or j < 1 or i < j:
        raise ValueError("need odd indices 1 <= j <= i")


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


def phi_coeff_texts(p: Prime, j: int, i: int) -> tuple[str, int, Iterator[tuple[int, tuple[str, ...], int | None]]]:
    """``phi_coeffs(p, j, i)`` in decimal text: (head, head valuation, rows).

    A row is (n, value, valuation) for each odd n <= i, in order, with the
    value the parts whose join is ``str`` of its Fraction (digits and "/"
    only) and valuation None for a zero component.  The texts come from
    ``staircase_parts``, in time linear in the digits, and the valuations
    from ``a_val``/``b_val``; no Fraction is built.  The rows come lazily,
    each text made as its row is read, but every exact product is made
    before this returns.
    """
    _check_phi_indices(j, i)
    parts = staircase_parts(p, j)
    head = "".join(next(parts))
    rows = chain(
        ((n, value, b_val(p, j - n)) for n, value in zip(range(1, j + 1, 2), parts)),
        ((n, ("0",), None) for n in range(j + 2, i + 1, 2)),
    )
    return head, a_val(p, j), rows


def _colimit_rows(p: Prime, i: int) -> list[dict[int, int]]:
    """The colimit with top index i and its head relation imposed, as rows
    of {column: valuation}: the relation's 2 + a_i in row 0 and 2 + b_{i-n}
    in row k of column 0, and v_p of the modulus n = 2k - 1 in column k."""
    return [{0: 2 + a_val(p, i)}] + [
        {0: 2 + b_val(p, i - n), k: vp(p, n)} for k, n in enumerate(range(1, i + 1, 2), 1)
    ]


def verify_presentation(p: Prime, i: int, shapes: dict[int, ModuleShape]) -> Check:
    """Check the head-relation presentation of the colimit against the
    oracle's cyclic homology in degree i + 1, ``shapes[i + 1]``.

    The colimit with top index i, with its head relation p^2 * (index-i
    generator image) imposed, presents cyclic homology in degree i+1.  The
    relation's entries, p^2 A_i at the head and p^2 B_{i-n} at each odd
    n <= i, are all nonzero.  Their column is a star, and each modulus a
    pendant edge on one of its rows, so by ``cokernel_shape`` their
    valuations 2 + a_i and 2 + b_{i-n}, with the moduli's v_p(n), decide
    the cokernel: the relation is rebuilt from those valuations alone.
    """
    if i < 1 or i % 2 == 0:
        raise ValueError("colimit index must be odd and positive")
    rebuilt = cokernel_shape(_colimit_rows(p, i))
    oracle = shapes[i + 1]
    ok = rebuilt == oracle
    return Check(f"colimit presentation {i}", ok, "" if ok else f"rebuilt {rebuilt} vs oracle {oracle}")


def verify_kernel_generators(p: Prime, i: int, upto: int) -> bool:
    """Finite-truncation check of the kernel generator description.

    For i in Z2, the generators psi_{i}(1), psi_{i+2}(1), ..., psi_{i+upto}(1)
    span the same submodule as A_i * e_head, e_i, e_{i+2}, ..., e_{i+upto}
    after truncating the head to Z/p^T, T = a_i + 6, and dropping
    coordinates above n_max = 4i + 1, which must cover i + upto.  A
    coordinate n of psi_j is B_{j-n} mod p^{v_p(n)}, which is 0 without
    reducing B_{j-n} when b_{j-n} >= v_p(n).  So psi_j is a sparse row
    of the head and its live coordinates, which are n in [i, j]: a live
    n < i has 0 < i - n <= j - n <= g(n), which puts i in n's window.
    Every residue comes from integers (``staircase_residue``).  Raises for
    i outside Z2 (the description needs the membership).
    """
    if i % 2 == 0 or i < 1:
        raise ValueError("index must be odd and positive")
    if upto < 0 or upto % 2 == 1:
        raise ValueError("generator range must be even and nonnegative")
    if not in_z2(p, i):
        raise ValueError(f"closed form requires Z2 membership, {i} is excluded")
    n_max = 4 * i + 1
    if n_max < i + upto:
        raise ValueError("n_max must cover every generator index")
    head_mod = p.p ** (a_val(p, i) + 6)
    coords = [(n, v) for n in range(1, n_max + 1, 2) if (v := vp(p, n)) > 0]
    moduli = [head_mod] + [p.p**v for _, v in coords]

    def psi_row(j: int) -> dict[int, int]:
        row = {0: staircase_residue(p, j, head_mod)}
        for k, (n, v) in enumerate(coords, 1):
            if i <= n <= j and b_val(p, j - n) < v:
                row[k] = staircase_residue(p, j - n, p.p**v)
        return row

    gens_a = [psi_row(i + j) for j in range(0, upto + 1, 2)]
    gens_b = [{0: staircase_residue(p, i, head_mod)}]
    gens_b += [{k: 1} for k, (n, _) in enumerate(coords, 1) if i <= n <= i + upto]
    return submodule_equal_mod(p, gens_a, gens_b, moduli)


def _even_run(shapes: dict[int, ModuleShape]) -> list[int]:
    """The keys of ``shapes``, which must be the even degrees 0, 2, ..., i_max."""
    degrees = sorted(shapes)
    if degrees != list(range(0, 2 * len(degrees), 2)):
        raise ValueError("need the HC shapes of the even degrees 0, 2, ..., i_max")
    return degrees


def connes_length_check(shapes: dict[int, ModuleShape]) -> Check:
    """Total p-length of HC grows by exactly 2 each even degree (so = i+1).

    ``shapes`` maps each even degree 0, 2, ..., i_max to its HC shape, as
    the oracle computed it.  The detail lists the mismatches.
    """
    mismatches = []
    prev = None
    for i in _even_run(shapes):
        length = shapes[i].p_length
        if length != i + 1:
            mismatches.append(f"degree {i}: length {length} != {i + 1}")
        if prev is not None and length != prev + 2:
            mismatches.append(f"degree {i}: length step {length - prev} != 2")
        prev = length
    return Check("connes length recursion", not mismatches, "; ".join(mismatches))


def hp_stabilization_check(p: Prime, shapes: dict[int, ModuleShape]) -> Check:
    """Watch finite cyclic homology converge onto the periodic closed form.

    ``shapes`` maps each even degree 0, 2, ..., i_max (i_max >= 2) to its
    HC shape, as the oracle computed it.  Over even degrees 2 <= i <= i_max
    with i-1 in Z1: below its single largest torsion exponent, the
    oracle's torsion must equal the periodic torsion truncated at i-1, and
    the largest exponents a_{i-1}+2 must be nondecreasing along the tested
    degrees.  The detail lists the mismatches.
    """
    i_max = max(_even_run(shapes), default=0)
    if i_max < 2:
        raise ValueError("i_max must be >= 2")
    heads = []
    mismatches = []
    for i in range(2, i_max + 1, 2):
        if not in_z1(p, i - 1):
            continue
        head = shapes[i].torsion[0][0]
        counts = Counter(dict(shapes[i].torsion))
        counts[head] -= 1
        tail, periodic = ModuleShape(counts), hp(p, 0, i - 1).shape
        expected_head = a_val(p, i - 1) + 2
        if head != expected_head:
            mismatches.append(f"degree {i}: head {head} != a+2 = {expected_head}")
        if tail.torsion != periodic.torsion:
            mismatches.append(
                f"degree {i}: tail {tail.torsion_exponents} != periodic {periodic.torsion_exponents}"
            )
        heads.append(head)
    for prev, nxt in zip(heads, heads[1:]):
        if nxt < prev:
            mismatches.append(f"head exponents decrease: {prev} -> {nxt}")
    return Check("hp stabilization", not mismatches, "; ".join(mismatches))


def verify_checks(p: Prime, hc_max: int, hh_max: int) -> Iterator[Check]:
    """The ``verify`` battery, one check at a time: Hochschild in every
    degree 0..hh_max; oracle against closed form in every even degree
    2..hc_max, and the Connes and stabilization checks, all from one walk
    to hc_max; the kernel generators at the first three Z2 indices past
    1, each asked of ``in_z2`` in turn, so no member list is made; and
    the colimit presentation at every odd index below min(hc_max, 12)."""
    for i in range(hh_max + 1):
        try:
            hochschild(p, i)
        except ArithmeticError as exc:
            yield Check(f"hochschild degree {i}", False, str(exc))
        else:
            yield Check(f"hochschild degree {i}", True)
    shapes = hc_oracle_shapes(p, hc_max)
    for i in range(2, hc_max + 1, 2):
        closed = hc_closed_form(p, i)
        if closed is None:
            yield Check(f"hc degree {i}", True, "not covered by a closed form")
        else:
            yield Check(f"hc degree {i}", closed.shape == shapes[i], f"oracle {shapes[i]} vs closed {closed.shape}")
    yield connes_length_check(shapes)
    yield hp_stabilization_check(p, shapes)
    for i in islice((i for i in count(3, 2) if in_z2(p, i)), 3):
        yield Check(f"kernel generators at {i}", verify_kernel_generators(p, i, upto=8))
    for i in range(1, min(hc_max, 12), 2):
        yield verify_presentation(p, i, shapes)


TruncationProbeReport = namedtuple("TruncationProbeReport", "ok vacuous stable_prefix covered_up_to details")
TruncationProbeReport.__doc__ = """Outcome of hc_neg_truncation_probe: the stable valuations as runs,
(e, count) pairs with e ascending, and the odd modulus they cover up
to (or None)."""


def hc_neg_truncation_probe(p: Prime, m: int, truncation: int) -> TruncationProbeReport:
    """Compare truncated negative-staircase cokernels with the closed form.

    Nothing ties a K-square truncation to the inverse-limit answer a
    priori, so the probe is empirical.  The largest invariant factor of a
    truncation absorbs the boundary (it plays the completion), and the
    count of unit factors keeps growing, so the stable signal is the
    multiset of nonzero valuations below the head: whatever agrees there
    between truncations K and K+1 (the stable prefix, reported as runs,
    e ascending) must match the closed-form torsion R/(m-1) x R/(m+1) x
    ... cut at some odd point, reported as covered_up_to.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if not in_z2(p, m - 1):
        raise ValueError(f"closed form requires Z2 membership, {m - 1} is excluded")

    def subhead(pivots: Counter, tail: list[int]) -> Counter:
        counts = pivots + Counter(tail)  # unit factors come back as 0
        counts[max(counts)] -= 1
        counts.pop(0, None)
        return +counts

    # Truncations K and K + 1 are the last two leading blocks of the
    # (K+1)-square staircase; in_z2 has made sure that m is even and >= 2.
    blocks = islice(staircase_cokernels(_staircase(p, 2, 2, m, truncation + 1)), truncation - 1, None)
    vals_k = subhead(*next(blocks))
    vals_k1 = subhead(*next(blocks))
    if truncation == 1 or not (vals_k or vals_k1):
        return TruncationProbeReport(True, True, (), None, "no stabilized prefix")
    stable = vals_k & vals_k1
    prefix = ModuleShape(stable)
    # The closed form's factors from R/(m-1) on are nontrivial only at the
    # odd multiples of p, and m - 1 is none, so the one cut with as many
    # factors as the prefix ends at the N-th odd multiple of p past m - 1,
    # or at m - 1 when N = 0.  Cuts past truncation + 3 odd steps from
    # m - 1 are not tried.
    n = sum(count for _, count in prefix.torsion)
    covered = p.p * ((((m - 1) // p.p + 1) | 1) + 2 * (n - 1)) if n else m - 1
    if covered <= m - 1 + 2 * (truncation + 3) and hc_neg_closed_form(p, m, covered).shape.torsion == prefix.torsion:
        return TruncationProbeReport(
            True,
            False,
            prefix.torsion[::-1],
            covered,
            f"stabilized factors match the closed form up to R/{covered}"
            + ("" if stable == vals_k else "; later factors not yet stable"),
        )
    return TruncationProbeReport(False, False, prefix.torsion[::-1], None, "no truncation offset matches")
