"""Exact homology calculator for the universal dga R//p over R.

The public surface re-exports the valuation layer, the window/density
layer, the exact linear algebra, and the homology engine.  Each name
resolves on first use (PEP 562), from the module ``_HOMES`` gives it, so
importing ``cychom`` or one of its modules loads only what that module
imports: ``cychom.cli`` loads ``padic`` and ``gaps``, and ``linalg`` and
``homology`` load only when a command or a caller needs them.
"""

_HOMES = {
    "padic": "Prime a_val b_val factorial_vp odd_valuations seq_a seq_b vp",
    "gaps": "DensityReport density_bounds enumerate_z1 enumerate_z2 gap in_z1 in_z2",
    "linalg": "IntMatrix ModuleShape SnfResult TRIVIAL_SHAPE cokernel_shape snf"
    " staircase_cokernels submodule_equal_mod",
    "homology": "Check CoeffVector HomologyResult connes_length_check cyclic_matrix hc_closed_form"
    " hc_neg_closed_form hc_neg_truncation_probe hc_oracle hochschild hp"
    " hp_stabilization_check phi_coeffs verify_checks verify_kernel_generators verify_presentation",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
