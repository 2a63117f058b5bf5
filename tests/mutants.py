"""Mutants as a checked table: each row of ``MUTANTS`` is a one-place change
to the package or to a test reference, and the test that must fail under
it.  Run it from anywhere, with no options:

    python tests/mutants.py

For each row it copies the checkout, less its history and caches, to a
fresh temporary directory, replaces the row's old text by its new text,
and runs only the row's test node there (``python -m pytest NODE`` with
``PYTHONPATH=src``, at tier-1's sizes).  The row is killed when the node
fails, or when it is still running at the row's timeout: a mutant that
never ends, such as ``snf`` without its column pass, would hang any
suite that reaches it.  First it runs every node once on an unmutated
copy, where each must pass.  Then the rows run ``os.cpu_count()`` at a
time, each in its own pytest child.  It prints a line a row, in table
order, and exits 1 if a mutant survives, if pytest cannot run a node (a
usage or collection error kills nothing), or if a row's old text does
not occur exactly once in its file.

``EQUIVALENT`` lists mutants that no test can kill, each with its reason;
they are not run.  ``tests/test_mutants.py`` checks in tier-1 that the old
text of every row of both tables still occurs exactly once, so a change
that moves one updates its row with the code.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# Left out of each copy: history and caches, which no test reads.
SKIPPED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks")


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the checkout's root
    old: str  # occurs exactly once in the file
    new: str
    node: str  # the pytest node that must fail
    timeout: float  # seconds; a node still running then counts as killed


class Equivalent(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    reason: str


CLI, GAPS, HOMOLOGY, LINALG, PADIC = (f"src/cychom/{name}.py" for name in ("cli", "gaps", "homology", "linalg", "padic"))
LOADS = "tests/test_cli.py::test_loads_no_module_it_does_not_run"
SPAN = "tests/test_linalg.py::test_submodule_equal_matches_span_enumeration"
ANCHOR = "tests/test_acceptance.py::test_criterion_2_snf_anchor"
REFUSED = "tests/test_cli.py::test_refused_with_one_error_line_before_any_work"
MIXED, SMALL = "tests/mixed_complex.py", "tests/small_complex.py"
B_SIGN = "(-1) ** (n * i + s * (total - s))"
DELTA_ON_BETA = '    if kind == "b" and m % 2 == 0:\n        return {("b", m - 1): q}\n'
RESCALE = (
    "            if u != 1:\n"
    "                for c, a in row.items():\n"
    "                    if c not in pivot_row:\n"
    "                        row[c] = a * u\n"
)
PUSH = "                    row_vals[c] = vz\n                    heapq.heappush(heap, (vz, r, c))\n"
# Why any reach from L = bit_length(i) on gives the same sets.
POINT_RULE = (
    "each level's test is exact at any reach, and every level that can hit is reached once the reach is L: "
    "d never falls as v rises, g(p^v) = 0 for v <= 2, and for v >= 3 a level that hits has "
    "d <= g(p^v) < 4v/3 and p^v <= i + d, so L > log2(i) > log2(3^v - 4v/3) > 4v/3 > d >= every earlier d"
)
HEAD = "        heads.append(shape.torsion[0][0])\n"
REACH = "0, 2 * i.bit_length()\n"

MUTANTS = [
    # The CLI's contracts: what each command loads, and what it refuses
    # before any work.
    Mutant("homology imports typing", HOMOLOGY, "from collections import Counter, namedtuple\n",
           "import typing\nfrom collections import Counter, namedtuple\n", f"{LOADS}[hh]", 300),
    Mutant("cli imports json at start-up", CLI, "import gc\n", "import gc\nimport json\n", f"{LOADS}[hc]", 300),
    Mutant("cli imports homology at start-up", CLI, "from operator import attrgetter\n",
           "from operator import attrgetter\n\nfrom . import homology\n", f"{LOADS}[import]", 300),
    Mutant("hcneg computes its closed form before the truncation checks", CLI,
           "    if args.truncation is not None:\n        if args.degree < 2",
           "    homology.hc_neg_closed_form(p, args.degree, _n_max(args))\n"
           "    if args.truncation is not None:\n        if args.degree < 2",
           f"{REFUSED}[hcneg --prime 3 --degree 6 --truncation 500001]", 300),
    Mutant("a cap refuses only past ceiling + 1", CLI, "    if value > ceiling:\n", "    if value > ceiling + 1:\n",
           f"{REFUSED}[hc --prime 3 --degree 1000001]", 300),
    Mutant("a cap refuses the ceiling itself", CLI, "    if value > ceiling:\n", "    if value >= ceiling:\n",
           f"{REFUSED}[zsets --prime 3 --max 10000001]", 300),
    Mutant("hcneg skips the probe", CLI, '        if res is None:\n            payload["probe"] = None\n',
           '        if True:\n            payload["probe"] = None\n',
           f"{REFUSED}[hcneg --prime 3 --degree 8 --truncation 500001]", 300),
    Mutant("the probe's ceiling below the README's", CLI, "HCNEG_MAX_TRUNCATION = 5 * 10**5\n",
           "HCNEG_MAX_TRUNCATION = 5 * 10**5 - 2\n", f"{REFUSED}[hcneg --prime 3 --degree 6 --truncation 500001]", 300),
    Mutant("coeffs' --j ceiling rounded up to odd", CLI, "10)) - 1) | 1", "10))) | 1",
           f"{REFUSED}[coeffs --prime 3317044064679887385961813 --j 2795 --i 2795]", 300),
    # verify's exit code when a check fails.
    Mutant("verify exits 1 on a failed check", CLI, "3 if failures else 0", "1 if failures else 0",
           "tests/test_cli.py::test_verify_writes_its_check_records[hc degree]", 300),
    # The writers: a run of more than 4096 items spans chunks.
    Mutant("a full chunk of a run drops an item", CLI, "(sep + text) * (n - 1)", "(sep + text) * (min(n, 4095) - 1)",
           "tests/test_cli.py::test_views_at_any_depth_write_their_lists", 300),
    Mutant("Prime takes the Miller-Rabin bound", PADIC, "    if n >= _MR_LIMIT:", "    if n > _MR_LIMIT:",
           "tests/test_padic.py::test_prime_refuses_beyond_certified_range", 300),
    Mutant("vp stops at a negative n", PADIC, "    while n % p.p == 0:", "    while n > 0 and n % p.p == 0:",
           "tests/test_padic.py::test_vp_of_prime_power_times_unit", 300),
    Mutant("factorial_vp takes m = -1", PADIC, "    if m < 0:", "    if m < -1:",
           "tests/test_padic.py::test_factorial_vp_refuses_a_negative_m", 300),
    Mutant("b_val reads v_p(j!)", PADIC, "return j - factorial_vp(p, j // 2)", "return j - factorial_vp(p, j)",
           "tests/test_acceptance.py::test_criterion_7_sequence_identities", 300),
    # seq_b's condition line is b_val's too; the message tells them apart.
    Mutant("b_val accepts an odd index", PADIC, 'j % 2 == 1:\n        raise ValueError(f"b defined',
           'j % 2 == 2:\n        raise ValueError(f"b defined', "tests/test_padic.py::test_seq_b_rejects_bad_indices[b_val-1]",
           300),
    # Z1/Z2 membership by the point rule: at reach L/2 it stops at i = 25
    # (Z2, p = 3) before level 3, whose window [27 - 2, 27 + 2] holds it.
    Mutant("the point rule stops at half its reach", GAPS, REACH, "0, i.bit_length() // 2\n",
           "tests/test_gaps.py::test_enumerate_agrees_with_point_queries", 300),
    Mutant("Z2 reads only the multiple above", GAPS, "d = min(d, (q - i) % (2 * q))", "d = (q - i) % (2 * q)",
           "tests/test_acceptance.py::test_criterion_4_set_enumeration", 300),
    Mutant("enumerate_z2 drops an odd top", GAPS, "range(1, upper + 1, 2), member_mask(p, upper, symmetric=True)",
           "range(1, upper, 2), member_mask(p, upper, symmetric=True)",
           "tests/test_gaps.py::test_sieve_matches_per_element_scan", 300),
    # g(n), the largest even j with b_j < v_p(n): the paper's values, and
    # the density's count of odd numbers.
    Mutant("g(n) takes the j with b_j = v_p(n)", GAPS, "        if b_val(p, j) < v:\n",
           "        if b_val(p, j) <= v:\n", "tests/test_acceptance.py::test_criterion_3_gap_values", 300),
    Mutant("density counts N // 2 + 1 odd numbers", GAPS, "    x_count = (upper + 1) // 2\n",
           "    x_count = upper // 2 + 1\n",
           "tests/test_gaps.py::test_member_mask_is_the_point_membership_and_density_counts_it", 300),
    # The closed form: its head, and the degrees it refuses.
    Mutant("the covered head read as a_(i+1)", HOMOLOGY, "head = a_val(p, i - 1) + 2", "head = a_val(p, i + 1)",
           "tests/test_homology.py::test_two_routes_agree_at_every_even_degree_of_the_sweep[3]", 300),
    Mutant("the closed form takes degree 0", HOMOLOGY, "    if i < 2:\n", "    if i < 0:\n",
           "tests/test_homology.py::test_hc_closed_form_tail_is_the_odd_valuations_from_3[3]", 300),
    # hc_oracle, the per-degree walk that hc runs.
    Mutant("hc_oracle walks to the degree below", HOMOLOGY, "    for pivots, tail in _hc_walk(p, i):\n",
           "    for pivots, tail in _hc_walk(p, max(i - 2, 0)):\n",
           "tests/test_homology.py::test_one_walk_gives_the_oracle_at_every_even_degree[5]", 300),
    # verify's kernel generator check.
    Mutant("kernel generators refuse i = 1", HOMOLOGY, "i % 2 == 0 or i < 1:", "i % 2 == 0 or i <= 1:",
           "tests/test_homology.py::test_kernel_generators", 300),
    Mutant("kernel generators take an even index", HOMOLOGY, "i % 2 == 0 or i < 1:", "i < 1:",
           "tests/test_homology.py::test_kernel_generators", 300),
    Mutant("kernel generators over no range", HOMOLOGY, "verify_kernel_generators(p, i, upto=8)",
           "verify_kernel_generators(p, i, upto=0)",
           "tests/test_homology.py::test_verify_kernel_generator_indices_are_the_first_three_z2_members_past_1", 300),
    Mutant("kernel generators' head modulo p^(a_i + 1)", HOMOLOGY, "head_mod = p.p ** (a_val(p, i) + 6)",
           "head_mod = p.p ** (a_val(p, i) + 1)",
           "tests/test_homology.py::test_verify_kernel_generator_check_takes_five_generators_mod_p_to_the_a_i_plus_6",
           300),
    Mutant("submodule length skips the first factor", LINALG,
           "snf(IntMatrix(dense)).invariant_factors)",
           "snf(IntMatrix(dense)).invariant_factors[1:])",
           SPAN, 300),
    Mutant("submodule length without the moduli", LINALG, "for row in rows + scaffold]", "for row in rows]", SPAN, 300),
    Mutant("submodules compared without A + B", LINALG,
           "return length(rows_a) == length(rows_a + rows_b) == length(rows_b)",
           "return length(rows_a) == length(rows_b)", SPAN, 300),
    # The chain-level mixed complex and Hochschild homology.
    Mutant("b's wrap-around sign flipped", MIXED, "(-1) ** (n + chain[n] * sum(chain[:n])))",
           "-(-1) ** (n + chain[n] * sum(chain[:n])))",
           "tests/test_mixed_complex.py::test_complex_gives_hh_and_hc_at_every_degree_of_the_sweep[3]", 300),
    Mutant("n dropped from delta's sign", MIXED, "p * (-1) ** (n + sum(chain[:i]))", "p * (-1) ** sum(chain[:i])",
           "tests/test_mixed_complex.py::test_complex_gives_hh_and_hc_at_every_degree_of_the_sweep[3]", 300),
    *(
        Mutant(f"B's sign flipped at {at}", MIXED, B_SIGN, f"(-1) ** (n * i + s * (total - s) + ({at}))",
               "tests/test_mixed_complex.py::test_complex_gives_hh_and_hc_at_every_degree_of_the_sweep[3]", 300)
        for at in ("i == 0", "i == 1", "i == n")
    ),
    Mutant("hochschild answers R/p in positive even degrees", HOMOLOGY, "ModuleShape((2 if i else 1,))",
           "ModuleShape((1,))", "tests/test_homology.py::test_hochschild_table", 300),
    Mutant("hochschild answers R/p from degree 8", HOMOLOGY, "ModuleShape((2 if i else 1,))",
           "ModuleShape((2 if 0 < i < 8 else 1,))", "tests/test_acceptance.py::test_criterion_1_hochschild_table", 300),
    # The probe with no pivot to compare claims nothing, and is ok.
    Mutant("the probe's vacuous report is not ok", HOMOLOGY, "TruncationProbeReport(True, True, (), None",
           "TruncationProbeReport(False, True, (), None",
           "tests/test_homology.py::test_truncation_probe_is_the_closed_form_comparison[p0]", 300),
    Mutant("the probe takes truncation 0", HOMOLOGY, "    if truncation < 1:", "    if truncation < 0:",
           "tests/test_homology.py::test_truncation_probe_is_the_closed_form_comparison[p0]", 300),
    # The colimit presentation against the walk.
    Mutant("the colimit's head relation reads 1 + a_i", HOMOLOGY, "[{0: 2 + a_val(p, i)}]", "[{0: 1 + a_val(p, i)}]",
           "tests/test_homology.py::test_presentation_matches_the_walk_at_every_odd_index_of_the_sweep[3]", 300),
    # The stabilization check reads every even degree's head.
    Mutant("heads gated by Z1", HOMOLOGY, HEAD,
           "        if i == 0 or in_z1(p, i - 1):\n    " + HEAD,
           "tests/test_homology.py::test_hp_stabilization_reads_the_head_of_every_degree", 300),
    Mutant("heads read only where a closed form covers", HOMOLOGY, HEAD,
           "        if i == 0 or hc_closed_form(p, i) is not None:\n    " + HEAD,
           "tests/test_homology.py::test_hp_stabilization_reads_the_head_of_every_degree[p2-30-z1_degrees2]", 300),
    Mutant("a fall of one is let through", HOMOLOGY, "zip(heads, heads[1:]) if nxt < prev]",
           "zip(heads, heads[1:]) if nxt < prev - 1]",
           "tests/test_homology.py::test_hp_stabilization_names_each_fall", 300),
    Mutant("the stabilization check fails an empty list", HOMOLOGY, 'return Check("hp stabilization", not falls',
           'return Check("hp stabilization", bool(heads) and not falls',
           "tests/test_homology.py::test_hp_stabilization_passes_a_raised_head_while_the_heads_rise", 300),
    # snf: a diagonalization plus the gcd/lcm rule.
    Mutant("snf without its gcd/lcm pass", LINALG, "    for s in range(len(diagonal)):", "    for s in range(0):",
           "tests/test_linalg.py::test_snf_basics", 300),
    Mutant("snf's lcm dropped", LINALG, "diagonal[s], diagonal[t] = g, diagonal[s] * diagonal[t] // g",
           "diagonal[s], diagonal[t] = g, diagonal[t]", "tests/test_linalg.py::test_snf_matches_gcd_of_minors", 300),
    Mutant("snf's pivot always splits", LINALG,
           "        if any(row[j] for row in a if row is not prow) or any(prow[:j] + prow[j + 1 :]):\n"
           "            continue\n", "", ANCHOR, 300),
    # Never ends: the test loops, and the timeout is the kill.
    Mutant("snf without its column pass", LINALG, "            if k != j and y:", "            if False:", ANCHOR, 30),
    Mutant("snf keeps the pivot's sign", LINALG, "diagonal.append(abs(pivot))", "diagonal.append(pivot)",
           "tests/test_linalg.py::test_snf_matches_gcd_of_minors", 300),
    # Loday's small mixed complex.
    Mutant("B's coefficient m read as m + 2", SMALL, '{("b", m): m} if kind == "a"', '{("b", m): m + 2} if kind == "a"',
           "tests/test_small_complex.py::test_small_complex_has_the_chain_level_homology[3]", 300),
    Mutant("delta on beta dropped", SMALL, DELTA_ON_BETA, "",
           "tests/test_small_complex.py::test_small_complex_has_the_chain_level_homology[3]", 300),
    Mutant("b's 1 - t read as 1 + t", SMALL, '{("a", m): 1 - t}', '{("a", m): 1 + t}',
           "tests/test_small_complex.py::test_small_complex_has_the_chain_level_homology[3]", 300),
    # coeffs: each valuation it prints is the one its single pass carries.
    Mutant("the valuation step skips stripping p from k", PADIC, "            chain[0] += step\n",
           "            chain[0] += 2\n",
           "tests/test_padic.py::test_staircase_term_valuations_are_legendres_at_the_coeffs_ceiling[3]", 300),
    Mutant("coeffs reads the head's term as the first row", CLI, "    head_valuation, *head = next(terms)\n",
           "    head_valuation, *head = next(padic.staircase_terms(p, j))\n",
           "tests/test_cli.py::test_coeffs_rows_match_phi_coeffs_at_every_odd_j_below_60", 300),
    Mutant("coeffs reads b_(j-n+2)", CLI, "_fraction_parts(*value), v) for",
           "_fraction_parts(*value), padic.b_val(p, j - n + 2)) for",
           "tests/test_cli.py::test_coeffs_rows_match_phi_coeffs_at_every_odd_j_below_60", 300),
    Mutant("coeffs gives every row the head's valuation", CLI, "_fraction_parts(*value), v) for",
           "_fraction_parts(*value), head_valuation) for",
           "tests/test_cli.py::test_coeffs_text_matches_fractions", 300),
    Mutant("coeffs lifts the int-to-str limit", CLI, "    terms = padic.staircase_terms(p, j)\n",
           "    sys.set_int_max_str_digits(0)\n    terms = padic.staircase_terms(p, j)\n",
           "tests/test_cli.py::test_coeffs_text_matches_fractions[3-4001-4005]", 300),
    # A value's parts join to its text, so the writers see no difference.
    Mutant("a fraction is written as one part", CLI, '(str(numerator), "/", str(denominator))',
           '(f"{numerator}/{denominator}",)', "tests/test_padic.py::test_staircase_texts_match_str_of_fraction[3]",
           300),
    Mutant("coeffs without its index check", CLI, "    padic._check_phi_indices(j, i)\n", "",
           "tests/test_cli.py::test_coeffs_refuses_the_indices_phi_coeffs_refuses", 300),
    # The walk's reference, local_snf: each is killed by an @example.
    Mutant("local_snf predicts the larger valuation", "tests/local_snf.py", "vz = min(va, w)", "vz = max(va, w)",
           "tests/test_linalg.py::test_local_snf_matches_integer_snf_with_non_unit_pivots", 300),
    Mutant("local_snf does not rescale by the pivot's unit", "tests/local_snf.py", RESCALE, "",
           "tests/test_linalg.py::test_local_snf_matches_integer_snf_with_non_unit_pivots", 300),
    Mutant("local_snf loses a valuation that falls", "tests/local_snf.py", PUSH, "                    row_vals[c] = vz\n",
           "tests/test_linalg.py::test_local_snf_matches_integer_snf_with_non_unit_pivots", 300),
]

EQUIVALENT = [
    Equivalent("b's 2 read as 1", SMALL, '{("a", m): 1 - t}', '{("a", m): (1 - t) // 2}',
               "2 is a unit of Z_(p) at every odd p, and the small complex runs at odd p only"),
    Equivalent("local_snf rescales by u = 1 too", "tests/local_snf.py", "            if u != 1:\n",
               "            if True:\n", "the test only skips a loop that would multiply by 1"),
    Equivalent("the probe's unit factors popped", HOMOLOGY, "    del stable[0]  # the unit factors",
               "    stable.pop(0, None)  # the unit factors",
               "stable is a Counter, whose del ignores a missing key as pop(0, None) does"),
    *(
        Equivalent(f"the point rule's reach {name}", GAPS, REACH, f"0, {new}\n", POINT_RULE)
        for name, new in (("L", "i.bit_length()"), ("2L + 2", "2 * i.bit_length() + 2"))
    ),
]


def _run(nodes: list[str], timeout: float, row: Mutant | None = None) -> tuple[int | None, str]:
    """pytest's exit code and output on ``nodes`` in a copy of the
    checkout with ``row`` applied; the code is None if pytest was still
    running at ``timeout`` seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "checkout")
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(*SKIPPED))
        if row is not None:
            path = root / row.file
            path.write_text(path.read_text().replace(row.old, row.new))
        env = {k: v for k, v in os.environ.items() if k != "CYCHOM_WIDE"}
        env.update(PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
        # A session of its own, so a timeout also stops what the node started.
        with subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              start_new_session=True) as proc:
            try:
                out, _ = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                out, _ = proc.communicate()
                return None, out.decode(errors="replace")
    return proc.returncode, out.decode(errors="replace")


def _timed(row: Mutant) -> tuple[float, int | None, str]:
    """The seconds that ``row``'s run took, and ``_run``'s code and output."""
    start = time.monotonic()
    code, out = _run([row.node], row.timeout, row)
    return time.monotonic() - start, code, out


def _tail(out: str) -> str:
    return " | ".join(out.strip().splitlines()[-3:])


def main() -> int:
    misplaced = [
        f"{row.id}: old text occurs {n} times in {row.file}"
        for row in MUTANTS + EQUIVALENT
        if (n := (ROOT / row.file).read_text().count(row.old)) != 1
    ]
    if misplaced:
        print("\n".join(misplaced))
        return 1
    start = time.monotonic()
    # A node that fails on the code as it is would kill every mutant.
    code, out = _run(list(dict.fromkeys(row.node for row in MUTANTS)), 600)
    if code != 0:
        print(f"the nodes fail on the unmutated copy (pytest exit {code}): {_tail(out)}")
        return 1
    live = 0
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for row, (seconds, code, out) in zip(MUTANTS, pool.map(_timed, MUTANTS)):
            verdict = {None: "killed (timeout)", 0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            live += not verdict.startswith("killed")
            print(f"{seconds:6.1f} s  {verdict:<16}  {row.id}", flush=True)
            if verdict.startswith("ERROR"):
                print(f"          {_tail(out)}")
    print(
        f"{len(MUTANTS) - live} of {len(MUTANTS)} mutants killed, {len(EQUIVALENT)} equivalent ones not run, "
        f"in {time.monotonic() - start:.0f} s"
    )
    return 1 if live else 0


if __name__ == "__main__":
    sys.exit(main())
