"""The result records are immutable values: fields read by name, set never."""

from fractions import Fraction

import pytest

from cychom import (
    CoeffVector,
    DensityReport,
    GapWindow,
    HomologyResult,
    ModuleShape,
    Prime,
    SnfResult,
)
from cychom.homology import (
    ConnesReport,
    DipProbeReport,
    PresentationReport,
    StabilizationReport,
    TruncationProbeReport,
)

P3 = Prime(3)
SHAPE = ModuleShape((2, 1))

# Every public record, built by keyword, with the fields in declared order.
RECORDS = [
    (GapWindow, {"n": 9, "g": 2}),
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
    (SnfResult, {"invariant_factors": (1, 9), "source_dim": 2, "target_dim": 2}),
    (ModuleShape, {"torsion_exponents": (2, 1), "free_rank": 1, "complete_rank": 1, "truncated": True}),
    (HomologyResult, {"theory": "HC", "degree": 2, "shape": SHAPE, "method": "oracle", "n_max": 11}),
    (
        CoeffVector,
        {
            "prime": P3,
            "j": 1,
            "i": 1,
            "head": Fraction(3),
            "components": ((1, Fraction(1)),),
        },
    ),
    (PresentationReport, {"ok": True, "colimit_index": 1, "rebuilt": SHAPE, "oracle": SHAPE}),
    (ConnesReport, {"ok": True, "lengths": ((0, 1),), "mismatches": ()}),
    (DipProbeReport, {"ok": True, "vacuous": False, "witness": 7, "details": "dip"}),
    (StabilizationReport, {"ok": True, "degrees": (2,), "heads": (3,), "mismatches": ()}),
    (
        TruncationProbeReport,
        {"ok": True, "vacuous": False, "stable_prefix": (1,), "covered_up_to": 9, "details": "ok"},
    ),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_is_an_immutable_value(cls, fields):
    rec = cls(*fields.values())
    assert all(getattr(rec, name) == value for name, value in fields.items())
    assert rec == cls(**fields)
    assert hash(rec) == hash(cls(**fields))
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(rec, first, fields[first])
    with pytest.raises(AttributeError):
        rec.extra = 1
    args = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(rec) == f"{cls.__name__}({args})"


def test_record_defaults():
    assert ModuleShape((1,)) == ModuleShape(torsion_exponents=(1,), free_rank=0, complete_rank=0, truncated=False)
    assert HomologyResult("HH", 0, SHAPE, "closed_form").n_max is None
    assert str(ModuleShape(())) == "0"
    with pytest.raises(TypeError):
        GapWindow(9)
