"""Exact invariants of finitely presented multigraded modules.

Modules over a polynomial ring in m variables, graded by m-tuples of natural
numbers, with coefficients in a prime field (default characteristic 5) or the
rationals.  The package computes slice dimensions and transition ranks,
one-axis interval decompositions after inverting a variable, strip/quadrant
decompositions of two-parameter modules, fiber-product dimensions, section
solvers, support complexes with their combinatorial calculus, and the
three-legged quiver bridge for m = 3.

Importing the package registers every submodule in ``sys.modules`` without
running it; a submodule runs on first attribute access, so a command pays
only for the modules it uses.  The public names below resolve the same way.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# every submodule, with the public names the package root re-exports from it
_EXPORTS = {
    "cli": (),
    "complexes": (
        "SimplicialComplex",
        "SimpleDescriptor",
        "annihilated_by_monomial_power",
        "empty_complex",
        "enumerate_complexes",
        "face_ring",
        "full_simplex",
        "in_kernel",
        "in_kernel_by_nilpotence",
        "kdim",
        "kernel_complex",
        "minimal_missing_faces",
        "random_complex",
        "serre_chain",
        "serre_step",
        "simples",
        "skeleton",
        "supp_complex",
    ),
    "degrees": ("box", "join", "leq", "zero"),
    "errors": (
        "AmbientMismatchError",
        "DecompositionError",
        "DegreeOrderError",
        "HomogeneityError",
        "NotLocallyEpicError",
        "ParseError",
        "PreconditionError",
        "UnknownNameError",
    ),
    "examples": ("named_example", "example_names"),
    "fields": ("DEFAULT_FIELD", "Field", "Matrix", "Subspace"),
    "localization": (
        "Barcode",
        "Interval",
        "axis_rank_function",
        "barcode_by_reduction",
        "bars_from_rank_fn",
        "localize",
        "localized_barcode",
    ),
    "modfile": (),
    "presentation": (
        "GradedPresentation",
        "PresentationMap",
        "direct_sum",
        "free_module",
        "random_presentation",
        "zero_module",
    ),
    "quiver": (
        "QuiverRep",
        "endomorphism_basis",
        "in_leq_n",
        "is_indecomposable",
        "quiver_shape",
        "random_rep",
        "to_quiver_rep",
        "torsion_leg_split",
        "try_split",
    ),
    "svgplot": (),
    "twoparam": (
        "Decomposition",
        "SectionResult",
        "SectionWitness",
        "decompose",
        "delocalize_dim",
        "equivalent_after_localization",
        "intersection_rank",
        "intersection_table",
        "quadrant_corners",
        "reconstruct",
        "section_exists",
    ),
    "verify": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_RENAMED = {"example_names": "names"}  # public name -> its name in the submodule

__all__ = sorted(_HOME)

for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec


def __getattr__(name: str):
    """A public name, read from its submodule on first use and kept here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], _RENAMED.get(name, name))
    return value
