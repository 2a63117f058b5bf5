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

Finite cokernels are computed exactly by Smith normal form over Z/p^N,
N from the determinant (the oracle route, :func:`cychom.linalg.local_snf`).
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
from fractions import Fraction
from math import lcm

from .gaps import gap, in_z1, in_z2
from .linalg import TRIVIAL_SHAPE, IntMatrix, ModuleShape, cokernel_shape, local_snf, submodule_equal_mod
from .padic import Prime, a_val, b_val, odd_valuations, residue, seq_a, seq_b, staircase_texts, vp


class HomologyResult(
    namedtuple("HomologyResult", "theory degree shape method n_max", defaults=(None,))
):
    """One homology module: theory "HH" | "HC" | "HCneg" | "HP", its degree,
    its ModuleShape, the method "oracle" | "closed_form" | "stabilized",
    and the display cutoff n_max of a truncated product (else None)."""

    __slots__ = ()


def cyclic_matrix(p: Prime, i: int) -> IntMatrix:
    """Presentation matrix of cyclic homology in even degree i >= 2.

    >>> cyclic_matrix(Prime(3), 4).data
    [[3, 0, 0], [1, 9, 0], [0, 3, 9]]
    """
    if i < 2 or i % 2 == 1:
        raise ValueError(f"cyclic presentation needs even degree >= 2, got {i}")
    size = i // 2 + 1
    m = IntMatrix.zero(size, size)
    m.data[0][0] = p.p
    for k in range(1, size):
        m.data[k][k] = p.p * p.p
        m.data[k][k - 1] = 2 * k - 1
    return m


def negative_matrix(p: Prime, m: int, truncation: int) -> IntMatrix:
    """K-square truncation of the negative staircase map in even degree m >= 2.

    >>> negative_matrix(Prime(3), 6, 3).data
    [[9, 0, 0], [7, 9, 0], [0, 9, 9]]
    """
    if m < 2 or m % 2 == 1:
        raise ValueError(f"negative presentation needs even degree >= 2, got {m}")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    mat = IntMatrix.zero(truncation, truncation)
    p2 = p.p * p.p
    for k in range(truncation):
        mat.data[k][k] = p2
        if k > 0:
            mat.data[k][k - 1] = m + 2 * k - 1
    return mat


def hochschild(p: Prime, i: int) -> HomologyResult:
    """Hochschild homology of R//p in degree i, oracle-checked.

    The closed form (R/p at 0, R/p^2 in positive even degrees, 0 otherwise)
    is recomputed from the two-term total-complex blocks and the two must
    agree exactly.
    """
    if i < 0:
        raise ValueError("negative degree")
    block = IntMatrix([[p.p, 2], [0, p.p]])
    if i == 0:
        closed = ModuleShape((1,))
        oracle = cokernel_shape(IntMatrix([[p.p]]), p)
    elif i % 2 == 0:
        closed = ModuleShape((2,))
        oracle = cokernel_shape(block, p)
    else:
        closed = TRIVIAL_SHAPE
        mat = IntMatrix([[p.p]]) if i == 1 else block
        # The differential out of an odd degree is injective, so the
        # homology there is zero; the matrix is triangular, so injectivity
        # is a diagonal without zeros.
        if not all(mat.diagonal()):
            raise ArithmeticError(f"HH differential out of degree {i} is not injective")
        oracle = TRIVIAL_SHAPE
    if oracle != closed:
        raise ArithmeticError(f"HH oracle {oracle} disagrees with closed form {closed}")
    return HomologyResult("HH", i, closed, "closed_form")


def hc_oracle(p: Prime, i: int) -> HomologyResult:
    """Cyclic homology in degree i from the staircase presentation, exactly.

    Odd degrees vanish because the staircase map is injective, which for
    the triangular staircase is a diagonal without zeros.
    """
    if i < 0:
        raise ValueError("negative degree")
    if i % 2 == 1:
        mat = IntMatrix([[p.p]]) if i == 1 else cyclic_matrix(p, i - 1)
        if not all(mat.diagonal()):
            raise ArithmeticError("staircase map unexpectedly not injective")
        return HomologyResult("HC", i, TRIVIAL_SHAPE, "oracle")
    mat = IntMatrix([[p.p]]) if i == 0 else cyclic_matrix(p, i)
    return HomologyResult("HC", i, cokernel_shape(mat, p), "oracle")


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
    shape = ModuleShape((head, *odd_valuations(p, 3, i - 1)))
    return HomologyResult("HC", i, shape, "closed_form")


def hp(p: Prime, i: int, n_max: int) -> HomologyResult:
    """Periodic homology in degree i, displayed up to torsion factor R/n_max.

    Even degrees all agree: one copy of the p-adic completion of R times
    R/1 x R/3 x R/5 x ...; odd degrees vanish.  The shape is truncated at
    n_max (odd).
    """
    if n_max < 1 or n_max % 2 == 0:
        raise ValueError("n_max must be an odd positive integer")
    if i % 2 == 1:
        return HomologyResult("HP", i, TRIVIAL_SHAPE, "closed_form")
    shape = ModuleShape(tuple(odd_valuations(p, 1, n_max)), complete_rank=1, truncated=True)
    return HomologyResult("HP", i, shape, "closed_form", n_max=n_max)


def hc_neg_closed_form(p: Prime, m: int, n_max: int) -> HomologyResult | None:
    """Closed-form negative cyclic homology in degree m, when covered.

    Non-positive even m gives the periodic answer.  Positive even m with
    m-1 in Z2 gives the completion times R/(m-1) x R/(m+1) x ...; other
    positive even m are not covered (None).  Odd m vanishes.
    """
    if n_max < 1 or n_max % 2 == 0:
        raise ValueError("n_max must be an odd positive integer")
    if m % 2 == 1:
        return HomologyResult("HCneg", m, TRIVIAL_SHAPE, "closed_form")
    if m <= 0:
        shape = hp(p, 0, n_max).shape
        return HomologyResult("HCneg", m, shape, "closed_form", n_max=n_max)
    if not in_z2(p, m - 1):
        return None
    shape = ModuleShape(tuple(odd_valuations(p, m - 1, n_max)), complete_rank=1, truncated=True)
    return HomologyResult("HCneg", m, shape, "closed_form", n_max=n_max)


class CoeffVector(namedtuple("CoeffVector", "prime j i head components")):
    """Coefficients of the index-j staircase generator inside the regular
    colimit with top index i: a head entry (a Fraction) plus one
    (odd modulus n, Fraction) pair per component."""

    __slots__ = ()

    def component(self, n: int) -> Fraction:
        for k, v in self.components:
            if k == n:
                return v
        raise KeyError(n)


def _check_phi_indices(j: int, i: int) -> None:
    if j % 2 == 0 or i % 2 == 0 or j < 1 or i < j:
        raise ValueError("need odd indices 1 <= j <= i")


def phi_coeffs(p: Prime, j: int, i: int) -> CoeffVector:
    """The image of the index-j generator in R + R/1 + R/3 + ... + R/i.

    Head coordinate A_j; coordinate at odd n <= i is B_{j-n} for n <= j and
    zero for n > j.  B_0, B_2, ..., B_{j-1} come from one pass of
    B_k = p^2 B_{k-2} / k.
    """
    _check_phi_indices(j, i)
    p2 = p.p * p.p
    b = [Fraction(1)]
    for k in range(2, j, 2):
        b.append(b[-1] * p2 / k)
    comps = tuple((n, b[(j - n) // 2] if n <= j else Fraction(0)) for n in range(1, i + 1, 2))
    return CoeffVector(p, j, i, seq_a(p, j), comps)


def phi_coeff_texts(p: Prime, j: int, i: int) -> tuple[str, int, list[tuple[int, str, int | None]]]:
    """``phi_coeffs(p, j, i)`` in decimal text: (head, head valuation, rows).

    A row is (n, value, valuation) for each odd n <= i, with the value
    written as ``str`` of its Fraction and valuation None for a zero
    component.  The texts come from ``staircase_texts``, in time linear in
    the digits, and the valuations from ``a_val``/``b_val``; no Fraction is
    built.
    """
    _check_phi_indices(j, i)
    texts = staircase_texts(p, j)
    rows = [
        (n, texts[(n + 1) // 2], b_val(p, j - n)) if n <= j else (n, "0", None)
        for n in range(1, i + 1, 2)
    ]
    return texts[0], a_val(p, j), rows


class PresentationReport(namedtuple("PresentationReport", "ok colimit_index rebuilt oracle")):
    """Outcome of verify_presentation: the rebuilt and oracle ModuleShapes."""

    __slots__ = ()


def verify_presentation(p: Prime, i: int) -> PresentationReport:
    """Check the head-relation presentation of the colimit against the oracle.

    The colimit with top index i, with its head relation p^2 * (index-i
    generator image) imposed, presents cyclic homology in degree i+1.  The
    relation has p-local rational entries; scaling it by the prime-to-p
    lcm of the denominators (a unit) clears it to integers without moving
    the p-primary part.
    """
    if i < 1 or i % 2 == 0:
        raise ValueError("colimit index must be odd and positive")
    coeffs = phi_coeffs(p, i, i)
    odds = list(range(1, i + 1, 2))
    entries = [coeffs.head] + [coeffs.component(n) for n in odds]
    scale = lcm(*(e.denominator for e in entries))
    p2 = p.p * p.p
    relation = [int(e * p2 * scale) for e in entries]
    rows = len(entries)
    mat = IntMatrix.zero(rows, rows + 1)
    for idx, n in enumerate(odds):
        mat.data[idx + 1][idx + 1] = n  # modulus column; head column stays zero
    for r in range(rows):
        mat.data[r][rows] = relation[r]
    rebuilt = cokernel_shape(mat, p)
    oracle = hc_oracle(p, i + 1).shape
    return PresentationReport(rebuilt == oracle, i, rebuilt, oracle)


def verify_kernel_generators(
    p: Prime,
    i: int,
    upto: int,
    head_precision: int | None = None,
    n_max: int | None = None,
) -> bool:
    """Finite-truncation check of the kernel generator description.

    For i in Z2, the generators psi_{i}(1), psi_{i+2}(1), ..., psi_{i+upto}(1)
    span the same submodule as A_i * e_head, e_i, e_{i+2}, ..., e_{i+upto}
    after truncating the head to Z/p^T and dropping coordinates above n_max
    (defaults T = a_i + 6, n_max = 4i + 1).  A coordinate n of psi_j is
    B_{j-n} mod p^{v_p(n)}, which is 0 without forming B_{j-n} when
    b_{j-n} >= v_p(n).  Raises for i outside Z2 (the description needs the
    membership).
    """
    if i % 2 == 0 or i < 1:
        raise ValueError("index must be odd and positive")
    if upto < 0 or upto % 2 == 1:
        raise ValueError("generator range must be even and nonnegative")
    if not in_z2(p, i):
        raise ValueError(f"closed form requires Z2 membership, {i} is excluded")
    if head_precision is None:
        head_precision = a_val(p, i) + 6
    if n_max is None:
        n_max = 4 * i + 1
    if n_max < i + upto:
        raise ValueError("n_max must cover every generator index")
    head_mod = p.p**head_precision
    coords = [(n, v) for n in range(1, n_max + 1, 2) if (v := vp(p, n)) > 0]
    moduli = [head_mod] + [p.p**v for _, v in coords]

    def psi_vector(j: int) -> list[int]:
        vec = [residue(seq_a(p, j), head_mod)]
        for n, v in coords:
            live = n <= j and b_val(p, j - n) < v
            vec.append(residue(seq_b(p, j - n), p.p**v) if live else 0)
        return vec

    gens_a = [psi_vector(i + j) for j in range(0, upto + 1, 2)]
    gens_b = [[residue(seq_a(p, i), head_mod)] + [0] * len(coords)]
    for k, (n, _) in enumerate(coords):
        if i <= n <= i + upto:
            e = [0] * len(moduli)
            e[1 + k] = 1
            gens_b.append(e)
    return submodule_equal_mod(p, gens_a, gens_b, moduli)


class ConnesReport(namedtuple("ConnesReport", "ok lengths mismatches")):
    """Outcome of connes_length_check: (degree, p-length) pairs and the
    mismatch messages."""

    __slots__ = ()


def connes_length_check(p: Prime, i_max: int) -> ConnesReport:
    """Total p-length of HC grows by exactly 2 each even degree (so = i+1)."""
    if i_max < 0 or i_max % 2 == 1:
        raise ValueError("i_max must be even and nonnegative")
    lengths = []
    mismatches = []
    prev = None
    for i in range(0, i_max + 1, 2):
        length = hc_oracle(p, i).shape.p_length
        lengths.append((i, length))
        if length != i + 1:
            mismatches.append(f"degree {i}: length {length} != {i + 1}")
        if prev is not None and length != prev + 2:
            mismatches.append(f"degree {i}: length step {length - prev} != 2")
        prev = length
    return ConnesReport(not mismatches, tuple(lengths), tuple(mismatches))


class DipProbeReport(namedtuple("DipProbeReport", "ok vacuous witness details")):
    """Outcome of a_minimality_probe: the first dip index (or None)."""

    __slots__ = ()


def a_minimality_probe(p: Prime, i: int, horizon: int) -> DipProbeReport:
    """Check that the first dip of the head valuation past i sits in a window.

    Scans odd n in (i, i+horizon].  If no n has a_n < a_i the probe is
    vacuous.  Otherwise the first such n must satisfy v_p(n) >= 3,
    b_{n-i} < v_p(n), and n - i <= g(n).
    """
    if i < 1 or i % 2 == 0 or i % p.p == 0:
        raise ValueError("index must be odd, positive, and prime to p")
    ai = a_val(p, i)
    for n in range(i + 2, i + horizon + 1, 2):
        if a_val(p, n) < ai:
            v = vp(p, n)
            ok = v >= 3 and b_val(p, n - i) < v and n - i <= gap(p, n)
            detail = f"first dip at n={n}: v_p={v}, b_{{n-i}}={b_val(p, n - i)}, g={gap(p, n)}"
            return DipProbeReport(ok, False, n, detail)
    return DipProbeReport(True, True, None, f"no dip below a_{i}={ai} within horizon")


class StabilizationReport(namedtuple("StabilizationReport", "ok degrees heads mismatches")):
    """Outcome of hp_stabilization_check: the degrees tested, their head
    exponents, and the mismatch messages."""

    __slots__ = ()


def hp_stabilization_check(p: Prime, i_max: int, n_max: int | None = None) -> StabilizationReport:
    """Watch finite cyclic homology converge onto the periodic closed form.

    Over even degrees i <= i_max with i-1 in Z1 (and i-1 <= n_max): below
    its single largest torsion exponent, the oracle's torsion must equal
    the periodic torsion truncated at i-1, and the largest exponents
    a_{i-1}+2 must be nondecreasing along the tested degrees.
    """
    if i_max < 2 or i_max % 2 == 1:
        raise ValueError("i_max must be even and >= 2")
    if n_max is None:
        n_max = i_max - 1
    degrees = [i for i in range(2, i_max + 1, 2) if i - 1 <= n_max and in_z1(p, i - 1)]
    heads = []
    mismatches = []
    for i in degrees:
        tors = list(hc_oracle(p, i).shape.torsion_exponents)  # descending
        head, tail = tors[0], tors[1:]
        expected_head = a_val(p, i - 1) + 2
        if head != expected_head:
            mismatches.append(f"degree {i}: head {head} != a+2 = {expected_head}")
        expected_tail = list(hp(p, 0, i - 1).shape.torsion_exponents)
        if tail != expected_tail:
            mismatches.append(f"degree {i}: tail {tail} != periodic {expected_tail}")
        heads.append(head)
    for prev, nxt in zip(heads, heads[1:]):
        if nxt < prev:
            mismatches.append(f"head exponents decrease: {prev} -> {nxt}")
    return StabilizationReport(not mismatches, tuple(degrees), tuple(heads), tuple(mismatches))


class TruncationProbeReport(
    namedtuple("TruncationProbeReport", "ok vacuous stable_prefix covered_up_to details")
):
    """Outcome of hc_neg_truncation_probe: the stable valuations and the
    odd modulus they cover up to (or None)."""

    __slots__ = ()


def hc_neg_truncation_probe(p: Prime, m: int, truncation: int | None = None) -> TruncationProbeReport:
    """Compare truncated negative-staircase cokernels with the closed form.

    Nothing ties a K-square truncation to the inverse-limit answer a
    priori, so the probe is empirical.  The largest invariant factor of a
    truncation absorbs the boundary (it plays the completion), and the
    count of unit factors keeps growing, so the stable signal is the
    ascending list of nonzero valuations below the head: whatever agrees
    there between truncations K and K+1 must match, as a multiset, the
    closed-form torsion R/(m-1) x R/(m+1) x ... cut at some odd point,
    reported as covered_up_to.
    """
    if truncation is None:
        truncation = m + 6
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if not in_z2(p, m - 1):
        raise ValueError(f"closed form requires Z2 membership, {m - 1} is excluded")

    def subhead(k: int) -> list[int]:
        # The K-square staircase is triangular with diagonal p^2, so its
        # determinant has valuation 2K; unit factors come back as 0.
        vals = local_snf(negative_matrix(p, m, k), p, 2 * k + 1, k)  # ascending
        return [v for v in vals[:-1] if v > 0]

    vals_k = subhead(truncation)
    vals_k1 = subhead(truncation + 1)
    if truncation == 1 or not (vals_k or vals_k1):
        return TruncationProbeReport(True, True, (), None, "no stabilized prefix")
    stable = Counter(vals_k) & Counter(vals_k1)
    prefix = sorted(stable.elements())
    want = list(prefix)
    have: list[int] = []
    for steps in range(truncation + 5):
        if sorted(have) == want:
            covered = m - 1 + 2 * (steps - 1) if steps else m - 1
            closed = hc_neg_closed_form(p, m, n_max=covered)
            okc = closed is not None and sorted(closed.shape.torsion_exponents) == want
            return TruncationProbeReport(
                okc,
                False,
                tuple(prefix),
                covered,
                f"stabilized factors match the closed form up to R/{covered}"
                + ("" if prefix == vals_k else "; later factors not yet stable"),
            )
        v = vp(p, m - 1 + 2 * steps)
        if v > 0:
            have.append(v)
    return TruncationProbeReport(False, False, tuple(prefix), None, "no truncation offset matches")
