"""The names the benchmark's tracer wraps resolve, and removed names stay gone.

``perfbench/tracing.py`` looks up every (layer, name) of its ``LAYERS`` with
``getattr(cychom.<layer>, name)`` when a traced run starts, so a rename or a
removal there breaks the benchmark; this test breaks first.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cychom

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(layer, name) for layer, names in tracing.LAYERS.items() for name in names]


def test_tracing_layers_resolve():
    names = _traced_names()
    assert ("padic", "seq_a") in names and ("linalg", "snf") in names
    for layer, name in names:
        assert callable(getattr(importlib.import_module(f"cychom.{layer}"), name)), (layer, name)


REMOVED_FUNCTIONS = [
    ("padic", "PadicRational"),
    ("gaps", "count_shifted"),
    ("linalg", "diagonal"),
    ("homology", "a_minimality_probe"),
    ("homology", "DipProbeReport"),
    ("gaps", "GapWindow"),
    ("gaps", "gap_window"),
    ("gaps", "_GAP_CACHE"),
    ("cli", "_runs"),
    ("cli", "_Text"),
    ("cli", "_csv_row"),
    ("homology", "ConnesReport"),
    ("homology", "StabilizationReport"),
    ("homology", "PresentationReport"),
    ("gaps", "_max_gap_below"),
    ("gaps", "_largest_odd_multiple_leq"),
    ("gaps", "_hit_from_below"),
    ("gaps", "_upper_scan_radius"),
    ("linalg", "bareiss_rank"),
    ("homology", "negative_matrix"),
    ("padic", "staircase_texts"),
    ("gaps", "_excluded_sieve"),
    ("gaps", "_UNMARKED"),
    ("cli", "_exponent_list"),
    ("gaps", "_tail_sum"),
    ("cli", "_check_line"),
    ("padic", "residue"),
    ("homology", "hc_oracle_shapes"),
    ("homology", "_even_run"),
    ("gaps", "_iroot_floor"),
    ("gaps", "_root_floor"),
    ("gaps", "_pow_upper"),
    ("gaps", "_exact_exponent"),
    ("linalg", "local_snf"),
    ("linalg", "_pivot"),
    ("homology", "phi_coeff_texts"),
    ("padic", "staircase_parts"),
    ("padic", "_fraction_parts"),
]
REMOVED_MEMBERS = [
    ("linalg", "IntMatrix", "identity"),
    ("linalg", "IntMatrix", "copy"),
    ("linalg", "IntMatrix", "__getitem__"),
    ("linalg", "IntMatrix", "det"),
    ("linalg", "IntMatrix", "diagonal"),
    ("linalg", "IntMatrix", "is_lower_triangular"),
    ("linalg", "IntMatrix", "zero"),
    ("linalg", "ModuleShape", "is_trivial"),
    ("padic", "Prime", "__int__"),
    ("linalg", "SnfResult", "source_dim"),
    ("linalg", "SnfResult", "target_dim"),
    ("homology", "CoeffVector", "component"),
    ("homology", "CoeffVector", "prime"),
    ("homology", "CoeffVector", "j"),
    ("homology", "CoeffVector", "i"),
    ("linalg", "ModuleShape", "truncated"),
    ("homology", "HomologyResult", "n_max"),
    ("linalg", "SnfResult", "rank"),
]


@pytest.mark.parametrize("layer, name", REMOVED_FUNCTIONS)
def test_removed_names_are_gone(layer, name):
    assert name not in cychom.__all__
    assert not hasattr(cychom, name)
    assert not hasattr(importlib.import_module(f"cychom.{layer}"), name)


@pytest.mark.parametrize("layer, cls, member", REMOVED_MEMBERS)
def test_removed_members_are_gone(layer, cls, member):
    assert not hasattr(getattr(importlib.import_module(f"cychom.{layer}"), cls), member)


def test_every_exported_name_resolves_through_star_import_and_dir():
    # The names resolve on first use: dir lists them before any has been
    # used, and the star import fetches each one.  A fresh interpreter, as
    # the other tests have used some names already.
    probe = """if True:
        import cychom
        listed = dir(cychom)
        namespace = {}
        exec("from cychom import *", namespace)
        missing = [n for n in cychom.__all__ if n not in listed or n not in namespace]
        assert not missing, missing
        assert namespace["hc_oracle"] is cychom.homology.hc_oracle
        assert namespace["Prime"] is cychom.padic.Prime
    """
    env = dict(os.environ, PYTHONPATH=str(Path(cychom.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)
