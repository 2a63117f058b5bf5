"""Exact homology calculator for the universal dga R//p over R.

The public surface re-exports the valuation layer, the window/density
layer, the exact linear algebra, and the homology engine.
"""

from .padic import Prime, a_val, b_val, factorial_vp, odd_valuations, residue, seq_a, seq_b, vp
from .gaps import (
    DensityReport,
    density_bounds,
    enumerate_z1,
    enumerate_z2,
    gap,
    in_z1,
    in_z2,
)
from .linalg import (
    IntMatrix,
    ModuleShape,
    SnfResult,
    TRIVIAL_SHAPE,
    cokernel_shape,
    local_snf,
    snf,
    staircase_cokernels,
    submodule_equal_mod,
)
from .homology import (
    Check,
    CoeffVector,
    HomologyResult,
    connes_length_check,
    cyclic_matrix,
    hc_closed_form,
    hc_neg_closed_form,
    hc_neg_truncation_probe,
    hc_oracle,
    hc_oracle_shapes,
    hochschild,
    hp,
    hp_stabilization_check,
    phi_coeffs,
    verify_checks,
    verify_kernel_generators,
    verify_presentation,
)

__all__ = [
    "Check",
    "CoeffVector",
    "DensityReport",
    "HomologyResult",
    "IntMatrix",
    "ModuleShape",
    "Prime",
    "SnfResult",
    "TRIVIAL_SHAPE",
    "a_val",
    "b_val",
    "cokernel_shape",
    "connes_length_check",
    "cyclic_matrix",
    "density_bounds",
    "enumerate_z1",
    "enumerate_z2",
    "factorial_vp",
    "gap",
    "hc_closed_form",
    "hc_neg_closed_form",
    "hc_neg_truncation_probe",
    "hc_oracle",
    "hc_oracle_shapes",
    "hochschild",
    "hp",
    "hp_stabilization_check",
    "in_z1",
    "in_z2",
    "local_snf",
    "odd_valuations",
    "phi_coeffs",
    "residue",
    "seq_a",
    "seq_b",
    "snf",
    "staircase_cokernels",
    "submodule_equal_mod",
    "verify_checks",
    "verify_kernel_generators",
    "verify_presentation",
    "vp",
]

__version__ = "0.1.0"
