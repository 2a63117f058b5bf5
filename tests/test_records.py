"""The result records are immutable values: fields read by name, set never."""

from fractions import Fraction

import pytest

from cychom import (
    CoeffVector,
    DensityReport,
    HomologyResult,
    ModuleShape,
    SnfResult,
)
from cychom.cli import Option
from cychom.homology import Check, TruncationProbeReport

SHAPE = ModuleShape((2, 1))

# Every public record, built by keyword, with the fields in declared order.
RECORDS = [
    (
        DensityReport,
        {
            "p": 3,
            "upper": 10,
            "empirical_z1": Fraction(1, 2),
            "empirical_z2": Fraction(1, 3),
            "bound_z1": Fraction(1, 4),
            "bound_z2": Fraction(1, 5),
            "bound_z1_asymptotic": Fraction(1, 6),
            "bound_z2_asymptotic": Fraction(1, 7),
            "bound_z1_geometric": Fraction(1, 8),
            "bound_z2_geometric": Fraction(1, 9),
            "lam": Fraction(3, 4),
        },
    ),
    (SnfResult, {"invariant_factors": (1, 9)}),
    (ModuleShape, {"torsion": ((2, 1), (1, 1)), "free_rank": 1, "complete_rank": 1, "n_max": 11}),
    (HomologyResult, {"theory": "HC", "degree": 2, "shape": SHAPE, "method": "oracle"}),
    (CoeffVector, {"head": Fraction(3), "components": ((1, Fraction(1)),)}),
    (Check, {"name": "hp stabilization", "ok": False, "detail": "head exponents decrease: 6 -> 5"}),
    (
        TruncationProbeReport,
        {"ok": True, "vacuous": False, "stable_prefix": ((1, 1),), "covered_up_to": 9, "details": "ok"},
    ),
]


# What a record is built from where that differs from what it holds: a
# ModuleShape takes its torsion as the exponents (or a mapping from exponent
# to count) and holds it as runs.
GIVEN = {ModuleShape: {"torsion": (2, 1)}}


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_is_an_immutable_value(cls, fields):
    given = {**fields, **GIVEN.get(cls, {})}
    rec = cls(*given.values())
    assert all(getattr(rec, name) == value for name, value in fields.items())
    assert rec == cls(**given)
    assert hash(rec) == hash(cls(**given))
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(rec, first, fields[first])
    with pytest.raises(AttributeError):
        rec.extra = 1
    args = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(rec) == f"{cls.__name__}({args})"


def test_record_defaults():
    assert ModuleShape((1,)) == ModuleShape(torsion=(1,), free_rank=0, complete_rank=0, n_max=None)
    assert Check("kernel generators at 5", True).detail == ""
    assert str(ModuleShape(())) == "0"
    with pytest.raises(TypeError):
        HomologyResult("HH", 0, SHAPE)


# Each record is its namedtuple class, with the first line of its docstring.
PLAIN = {
    HomologyResult: 'One homology module: theory "HH" | "HC" | "HCneg" | "HP", its degree,',
    Check: "One verify check: its name, whether it passed, and what it found",
    CoeffVector: "Coefficients of the index-j staircase generator inside the regular",
    TruncationProbeReport: "Outcome of hc_neg_truncation_probe: the stable valuations as runs,",
    SnfResult: "Invariant factors d_1 | d_2 | ... | d_r of an integer matrix.",
    DensityReport: "Empirical Z1/Z2 densities up to N against rigorous lower bounds.",
    Option: "One ``--flag value`` of a command: the value's type, whether it must",
}


@pytest.mark.parametrize("cls", PLAIN, ids=[cls.__name__ for cls in PLAIN])
def test_record_is_one_class(cls):
    assert cls.__mro__ == (cls, tuple, object)
    assert cls.__doc__.split("\n", 1)[0] == PLAIN[cls]


def test_module_shape_extends_its_namedtuple():
    # ModuleShape's subclass adds behaviour: the canonical torsion runs.
    base = ModuleShape.__mro__[1]
    assert base.__mro__ == (base, tuple, object)
    assert base._fields == ModuleShape._fields
    assert ModuleShape.__mro__ == (ModuleShape, base, tuple, object)
