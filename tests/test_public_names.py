"""The names the benchmark's tracer wraps resolve, and removed names stay gone.

``perfbench/tracing.py`` looks up every (layer, name) of its ``LAYERS`` with
``getattr(cychom.<layer>, name)`` when a traced run starts, so a rename or a
removal there breaks the benchmark; this test breaks first.
"""

import importlib
import importlib.util
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


REMOVED_FUNCTIONS = [("padic", "PadicRational"), ("gaps", "count_shifted")]
REMOVED_MEMBERS = [
    ("linalg", "IntMatrix", "identity"),
    ("linalg", "IntMatrix", "copy"),
    ("linalg", "IntMatrix", "__getitem__"),
    ("linalg", "ModuleShape", "is_trivial"),
    ("padic", "Prime", "__int__"),
]


@pytest.mark.parametrize("layer, name", REMOVED_FUNCTIONS)
def test_removed_names_are_gone(layer, name):
    assert name not in cychom.__all__
    assert not hasattr(cychom, name)
    assert not hasattr(importlib.import_module(f"cychom.{layer}"), name)


@pytest.mark.parametrize("layer, cls, member", REMOVED_MEMBERS)
def test_removed_members_are_gone(layer, cls, member):
    assert not hasattr(getattr(importlib.import_module(f"cychom.{layer}"), cls), member)


def test_residue_is_exported():
    assert "residue" in cychom.__all__ and cychom.residue is cychom.padic.residue
