"""Exact homology calculator for the universal dga R//p over R.

The public surface re-exports the valuation layer, the window/density
layer, the exact linear algebra, and the homology engine.
"""

from .padic import Prime, a_val, b_val, factorial_vp, odd_valuations, residue, seq_a, seq_b, vp
from .gaps import (
    DensityReport,
    GapWindow,
    density_bounds,
    enumerate_z1,
    enumerate_z2,
    gap,
    gap_window,
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
    submodule_equal_mod,
)
from .homology import (
    CoeffVector,
    HomologyResult,
    a_minimality_probe,
    connes_length_check,
    cyclic_matrix,
    hc_closed_form,
    hc_neg_closed_form,
    hc_neg_truncation_probe,
    hc_oracle,
    hochschild,
    hp,
    hp_stabilization_check,
    negative_matrix,
    phi_coeffs,
    verify_kernel_generators,
    verify_presentation,
)

__all__ = [
    "CoeffVector",
    "DensityReport",
    "GapWindow",
    "HomologyResult",
    "IntMatrix",
    "ModuleShape",
    "Prime",
    "SnfResult",
    "TRIVIAL_SHAPE",
    "a_minimality_probe",
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
    "gap_window",
    "hc_closed_form",
    "hc_neg_closed_form",
    "hc_neg_truncation_probe",
    "hc_oracle",
    "hochschild",
    "hp",
    "hp_stabilization_check",
    "in_z1",
    "in_z2",
    "local_snf",
    "negative_matrix",
    "odd_valuations",
    "phi_coeffs",
    "residue",
    "seq_a",
    "seq_b",
    "snf",
    "submodule_equal_mod",
    "verify_kernel_generators",
    "verify_presentation",
    "vp",
]

__version__ = "0.1.0"
