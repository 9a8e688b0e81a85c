"""Hand-written mutants of `src/persloc`, each run against the narrow tests that must see it.

Run from anywhere, with pytest importable:

    python tests/mutation.py            # every entry
    python tests/mutation.py NAME ...   # only the named entries
    python tests/mutation.py --list

pytest does not collect this file: its name does not start with `test_`.

Each entry names a file under `src/persloc/`, the exact old text, the new text,
the test node ids, and its verdict.  For each entry the script copies `src/`
to a fresh temporary directory, checks that the old text occurs there exactly
once, replaces it, and runs the node ids with `pytest -x` in a subprocess that
imports `persloc` from the copy (it checks `persloc.__file__` before the tests
start, so an installed `persloc` cannot shadow the mutant).  A `killed` entry
must make pytest report a failure; an `equivalent` entry must pass, and its
`why` says why no test can fail on it.  First, the unmutated copy must pass
every named test, so that a failure is the mutant's.  Then the entries run on
`os.cpu_count()` worker threads, each with its own copy and subprocess, and
the results print in table order.  The table is a check: a change that edits
or drops an entry says so in CHANGES.md.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# argv: the copy's src directory, then pytest's arguments
_BOOT = """
import os, sys
src = os.path.realpath(sys.argv[1])
sys.path.insert(0, src)
import persloc  # an import error exits with 1, which the unmutated run refuses
if not os.path.realpath(persloc.__file__).startswith(src + os.sep):
    print(f"persloc imported from {persloc.__file__}, not from the copy {src}")
    sys.exit(99)  # pytest itself exits with 0 to 5
import pytest
sys.exit(pytest.main(sys.argv[2:]))
"""


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple
    verdict: str  # "killed" or "equivalent"
    why: str = ""


_PRES = "tests/test_presentation.py::"
_CPLX = "tests/test_complexes.py::"
_QUIV = "tests/test_quiver.py::"
_MOD = "tests/test_modfile.py::"
_REC = "tests/test_records.py::"

_ROW_CHECK = '''        if any(len(c) != len(gen_degrees) for c in cols):
            raise AmbientMismatchError("relation coefficient vector length mismatch")
'''
_M_CHECK = '''        if m < 0:
            raise PreconditionError("need a nonnegative number of variables")
'''
_DEGREE_CHECK = '''        for d in gen_degrees + rel_degrees:
            if not dg.is_nonnegative(d):
                raise PreconditionError(f"negative degree {d}")
'''

_MAP_AMBIENT = '''        if source.m != target.m or source.field != target.field:
            raise AmbientMismatchError("map endpoints over different ambients")
'''
_MAP_SHAPE = '''        if coeffs.nrows != target.num_gens or coeffs.ncols != source.num_gens:
            raise AmbientMismatchError("map coefficient matrix shape mismatch")
'''
_MAP_FIELD = '''        if coeffs.field != source.field:
            raise AmbientMismatchError("map coefficients over wrong field")
'''

_MAKE_M = "        _require_variable_budget(m)\n"
_MAKE_FACES = '''        for f in faces:
            if any(v < 1 or v > m for v in f):
                raise PreconditionError(f"face {sorted(f)} outside 1..{m}")
            for v in f:
                if f - {v} not in faces:
                    raise PreconditionError(
                        f"family is not downward closed: {sorted(f)} present, "
                        f"{sorted(f - {v})} missing"
                    )
'''

_CONVERT_M = '''    if module.m != 3:
        raise PreconditionError("quiver conversion works over m = 3")
    _require_leg_length(n)
'''
_RANDOM_REP = '''    _require_leg_length(n)
    sink = 0 if sink_zero else rng.randint(0, max_dim)
    dims = (sink, *(rng.randint(0, max_dim) for _ in range(3 * n)))
'''
_CONVERT_MAPS = '''    if end_budget:
        _require_end_unknowns(dims)
    _require_map_entries(dims)
    return QuiverRep.from_flat(module.field, n, dims, [transition(at[s], at[t]) for s, t in _star(n)])
'''

# the sparse solve numbers column j as ncols - j, so its stored lows are the
# pivots of the dense reduced echelon form; the mutant numbers them j + 1
_SOLVE = '''def _reduce_system(field: Field, ncols: int, equations: Iterable[dict]) -> dict:
    """The stored rows of `solve`'s equations, column j reduced as ncols - j."""
    stored: dict = {}
    for eq in equations:
        _store_low(field, stored, {ncols - c: x for c, x in eq.items()})
    return stored


def reduced_rows(field: Field, ncols: int, equations: Iterable[dict]) -> list[dict] | None:
    """Equations as `solve` takes them, reduced to rows with distinct pivots,
    or None when they have no solution; `solve` takes the rows back unreduced."""
    stored = _reduce_system(field, ncols, equations)
    return None if 0 in stored else [{ncols - c: x for c, x in row.items()} for row in stored.values()]


def solve(field: Field, ncols: int, equations: Iterable[dict]) -> tuple | None:
    """One solution in F^ncols of sparse equations ({column: nonzero entry},
    the right-hand side at column ncols) with the free variables 0, or None.

    Column j is reduced as ncols - j, so the stored lows are the pivots of the
    dense reduced echelon form of [A | b], and the right-hand side's column,
    numbered 0, is a low exactly when there is none; only it is back-substituted.
    """
    stored = _reduce_system(field, ncols, equations)
    if 0 in stored:
        return None
    value = _back_substitute(field, stored, 0)
    return tuple(field.neg(value.get(ncols - j, 0)) for j in range(ncols))
'''
_SOLVE_FIRST_TO_LAST = (
    _SOLVE.replace("{ncols - c: x for c, x in eq.items()}", "{c + 1 if c < ncols else 0: x for c, x in eq.items()}")
    .replace("{ncols - c: x for c, x in row.items()}", "{c - 1 if c else ncols: x for c, x in row.items()}")
    .replace("value.get(ncols - j, 0)", "value.get(j + 1, 0)")
)

MUTANTS = (
    # -- the checks of outside input, all in `GradedPresentation.build` --
    Mutant(
        "build drops the row-length check",
        "presentation.py",
        _ROW_CHECK,
        "",
        (_PRES + "test_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "build drops the m >= 0 check",
        "presentation.py",
        _M_CHECK,
        "",
        (_PRES + "test_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "build drops the nonnegative-degree check",
        "presentation.py",
        _DEGREE_CHECK,
        "",
        (_PRES + "test_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "build drops the homogeneity check",
        "presentation.py",
        "if cols[j][i] != 0 and not dg.leq(gd, rd):",
        "if False:",
        (_PRES + "test_build_rejects_inhomogeneous",),
        "killed",
    ),
    Mutant(
        "build scans homogeneity relation-major",
        "presentation.py",
        """        for i, gd in enumerate(gen_degrees):
            for j, rd in enumerate(rel_degrees):
                if cols[j][i]""",
        """        for j, rd in enumerate(rel_degrees):
            for i, gd in enumerate(gen_degrees):
                if cols[j][i]""",
        (_PRES + "test_build_names_the_first_inhomogeneous_pair_generator_major",),
        "killed",
    ),
    Mutant(
        "build checks the degrees before the row lengths",
        "presentation.py",
        _ROW_CHECK + _M_CHECK + _DEGREE_CHECK,
        _M_CHECK + _DEGREE_CHECK + _ROW_CHECK,
        (_PRES + "test_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "build checks m >= 0 before the row lengths",
        "presentation.py",
        _ROW_CHECK + _M_CHECK,
        _M_CHECK + _ROW_CHECK,
        (_PRES + "test_build_refuses_bad_input_with_its_message",),
        "equivalent",
        "with m < 0 any degree fails in `dg.as_degree` before both checks, and with no degree there is no "
        "relation, so the row-length check cannot fire: the two checks never both apply",
    ),
    # -- degrees enter through one check --
    Mutant(
        "as_degree raises a plain ValueError",
        "degrees.py",
        'raise AmbientMismatchError(f"degree {d} has',
        'raise ValueError(f"degree {d} has',
        (_PRES + "test_build_refuses_a_degree_of_the_wrong_length_as_an_ambient_mismatch",),
        "killed",
    ),
    Mutant(
        "a map's slice skips the orthant check",
        "presentation.py",
        "d = dg.as_nonnegative(d, self.m)\n        ss = self.source._slice(d)",
        "d = dg.as_degree(d, self.m)\n        ss = self.source._slice(d)",
        (_PRES + "test_degrees_outside_the_orthant_are_refused_with_their_messages",),
        "killed",
    ),
    # -- the checks of a map from outside, all in `PresentationMap.build` --
    Mutant(
        "map build drops the ambient check",
        "presentation.py",
        _MAP_AMBIENT,
        "",
        (_PRES + "test_map_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "map build drops the shape check",
        "presentation.py",
        _MAP_SHAPE,
        "",
        (_PRES + "test_map_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "map build drops the field check",
        "presentation.py",
        _MAP_FIELD,
        "",
        (_PRES + "test_map_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "map build drops the degree condition",
        "presentation.py",
        "if coeffs.entries[i][j] != 0 and not dg.leq(td, sd):",
        "if False:",
        (_PRES + "test_map_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "map build drops the relation check",
        "presentation.py",
        "if coords is None or any(x != 0 for x in coords):",
        "if False:",
        (_PRES + "test_map_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "map build checks the shape before the ambients",
        "presentation.py",
        _MAP_AMBIENT + _MAP_SHAPE,
        _MAP_SHAPE + _MAP_AMBIENT,
        (_PRES + "test_map_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "map build checks the field before the shape",
        "presentation.py",
        _MAP_SHAPE + _MAP_FIELD,
        _MAP_FIELD + _MAP_SHAPE,
        (_PRES + "test_map_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "map build scans the degree condition source-major",
        "presentation.py",
        """        for i, td in enumerate(target.gen_degrees):
            for j, sd in enumerate(source.gen_degrees):""",
        """        for j, sd in enumerate(source.gen_degrees):
            for i, td in enumerate(target.gen_degrees):""",
        (_PRES + "test_map_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "modfile builds a map through the trusted constructor",
        "modfile.py",
        "PresentationMap.build(source, target,",
        "PresentationMap(source, target,",
        (_MOD + "test_map_file_is_checked_by_build",),
        "killed",
    ),
    # -- derived modules, written out for the trusted constructor --
    Mutant(
        "reconstruct puts a strip's relation on the next generator",
        "twoparam.py",
        "one if j == i else zero",
        "one if i == j + 1 else zero",
        ("tests/test_twoparam.py::test_reconstruct_is_the_direct_sum_of_strips_and_quadrants",),
        "killed",
    ),
    Mutant(
        "cyclic module flips a face's monomial",
        "complexes.py",
        "tuple(1 if v in f else 0 for v in range(1, m + 1))",
        "tuple(0 if v in f else 1 for v in range(1, m + 1))",
        (_CPLX + "test_face_ring_small_cases",),
        "killed",
    ),
    # -- the checks of outside input, in `QuiverRep.build` (a budget is never dropped) --
    Mutant(
        "rep build drops the n >= 1 check",
        "quiver.py",
        "        _require_leg_length(n)\n        if len(leg_dims) != 3",
        "        _require_leg_length(max(n, 1))\n        if len(leg_dims) != 3",
        (_QUIV + "test_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "rep build drops the leg-count check",
        "quiver.py",
        "if len(leg_dims) != 3 or len(arrows) != 3:",
        "if False:",
        (_QUIV + "test_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "rep build drops the leg-length check",
        "quiver.py",
        "if any(len(leg) != n for leg in (*leg_dims, *arrows)):",
        "if False:",
        (_QUIV + "test_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "rep build drops the arrow shape check",
        "quiver.py",
        "if mat.ncols != dims[s] or mat.nrows != dims[t]:",
        "if False:",
        (_QUIV + "test_bad_arrow_shape_names_the_arrow",),
        "killed",
    ),
    Mutant(
        "rep build drops the arrow field check",
        "quiver.py",
        "if mat.field != field:",
        "if False:",
        (_QUIV + "test_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "rep build checks an arrow's field before its shape",
        "quiver.py",
        "if mat.ncols != dims[s] or mat.nrows != dims[t]:",
        "if mat.field == field and (mat.ncols != dims[s] or mat.nrows != dims[t]):",
        (_QUIV + "test_build_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "modfile builds a rep through the trusted constructor",
        "modfile.py",
        "quiver.QuiverRep.build(fld, n,",
        "quiver.QuiverRep(fld, n,",
        (_MOD + "test_rep_over_the_vertex_budget_is_refused_with_its_location",),
        "killed",
    ),
    # -- the conversion's checks and the one End budget, in `quiver` --
    Mutant(
        "conversion drops the m = 3 check",
        "quiver.py",
        _CONVERT_M,
        "    _require_leg_length(n)\n",
        (_QUIV + "test_to_quiver_rep_refuses_in_a_fixed_order",),
        "killed",
    ),
    Mutant(
        "conversion drops the in_leq_n refusal",
        "quiver.py",
        "    if not in_leq_n(module, n):",
        "    if False:",
        (_QUIV + "test_to_quiver_rep_refuses_in_a_fixed_order",),
        "killed",
    ),
    Mutant(
        "conversion checks the End budget after building the maps",
        "quiver.py",
        _CONVERT_MAPS,
        "    maps = [transition(at[s], at[t]) for s, t in _star(n)]\n"
        + _CONVERT_MAPS.replace("[transition(at[s], at[t]) for s, t in _star(n)]", "maps"),
        (_QUIV + "test_end_budget_refuses_large_vertex_dimensions_before_any_map",),
        "killed",
    ),
    Mutant(
        "conversion checks the map budget after building the maps",
        "quiver.py",
        _CONVERT_MAPS,
        _CONVERT_MAPS.replace(
            "    _require_map_entries(dims)\n    return QuiverRep.from_flat(module.field, n, dims, "
            "[transition(at[s], at[t]) for s, t in _star(n)])",
            "    maps = [transition(at[s], at[t]) for s, t in _star(n)]\n    _require_map_entries(dims)\n"
            "    return QuiverRep.from_flat(module.field, n, dims, maps)",
        ),
        (_QUIV + "test_map_budget_refuses_large_vertex_dimensions_before_any_map",),
        "killed",
    ),
    Mutant(
        "map budget refuses its own bound",
        "quiver.py",
        "    if total > _MAX_MAP_ENTRIES:",
        "    if total >= _MAX_MAP_ENTRIES:",
        (_QUIV + "test_map_budget_boundary",),
        "killed",
    ),
    Mutant(
        "End budget refuses its own bound",
        "quiver.py",
        "    if total > _MAX_END_UNKNOWNS:",
        "    if total >= _MAX_END_UNKNOWNS:",
        (_QUIV + "test_end_budget_boundary",),
        "killed",
    ),
    Mutant(
        "random_rep checks the leg length after drawing the dimensions",
        "quiver.py",
        _RANDOM_REP,
        _RANDOM_REP.replace("    _require_leg_length(n)\n", "") + "    _require_leg_length(n)\n",
        (_QUIV + "test_random_rep_refuses_a_leg_length_before_it_draws",),
        "killed",
    ),
    # -- the checks of outside input, in `SimplicialComplex.make` --
    Mutant(
        "variable budget drops the m >= 1 check",
        "complexes.py",
        "    if m < 1:\n",
        "    if False:\n",
        (_CPLX + "test_complex_builders_refuse_m_before_any_subset_walk",),
        "killed",
    ),
    Mutant(
        "make drops the m >= 1 check",
        "complexes.py",
        _MAKE_M,
        "        _require_variable_budget(max(m, 1))\n",
        (_CPLX + "test_make_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "make drops the face range check",
        "complexes.py",
        "if any(v < 1 or v > m for v in f):",
        "if False:",
        (_CPLX + "test_make_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "make drops the downward-closure check",
        "complexes.py",
        "if f - {v} not in faces:",
        "if False:",
        (_CPLX + "test_complex_requires_downward_closure",),
        "killed",
    ),
    Mutant(
        "make checks the faces before m",
        "complexes.py",
        _MAKE_M + _MAKE_FACES,
        _MAKE_FACES + _MAKE_M,
        (_CPLX + "test_make_refuses_bad_input_with_its_message",),
        "killed",
    ),
    Mutant(
        "modfile builds a complex through the trusted constructor",
        "modfile.py",
        "complexes.SimplicialComplex.make(m, faces)",
        "complexes.SimplicialComplex(m, frozenset(map(frozenset, faces)))",
        (_MOD + "test_complex_file_is_checked_by_make",),
        "killed",
    ),
    # -- the one record constructor and the CLI's file reading --
    Mutant(
        "record constructor drops the arity check",
        "fields.py",
        """        if len(values) != len(setters):
            raise TypeError(f"{self._signature} takes {len(setters)} fields, got {len(values)}")
""",
        "",
        (_REC + "test_wrong_constructor_calls_raise_type_error",),
        "killed",
    ),
    Mutant(
        "record setters are looked up in the class's own dict",
        "fields.py",
        "getattr(cls, n).__set__",
        "cls.__dict__[n].__set__",
        (_REC + "test_a_subclass_instance_is_not_equal_to_its_parent_instance",),
        "killed",
    ),
    Mutant(
        "record constructor accepts a field given twice",
        "fields.py",
        "rest = self._fields[len(values):]",
        "rest = self._fields",
        (_REC + "test_wrong_constructor_calls_raise_type_error",),
        "killed",
    ),
    Mutant(
        "sparse solve numbers the columns first to last",
        "fields.py",
        _SOLVE,
        _SOLVE_FIRST_TO_LAST,
        ("tests/test_fields.py::test_solve_sets_the_free_variables_to_zero",),
        "killed",
    ),
    Mutant(
        "Matrix gets its own constructor",
        "fields.py",
        '''    __slots__ = ("field", "nrows", "ncols", "entries")
''',
        '''    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, *values) -> None:
        super().__init__(*values)
''',
        (_REC + "test_only_record_sets_fields",),
        "killed",
    ),
    Mutant(
        "a complex sets its faces with object.__setattr__",
        "complexes.py",
        "        return cls(m, faces)\n",
        "        k = cls(m, frozenset())\n        object.__setattr__(k, 'faces', faces)\n        return k\n",
        (_REC + "test_only_record_sets_fields",),
        "killed",
    ),
    Mutant(
        "CLI file reading catches the wrong decode error",
        "cli.py",
        "except UnicodeDecodeError as exc:",
        "except UnicodeEncodeError as exc:",
        ("tests/test_cli.py::test_non_utf8_file_is_one_domain_envelope",),
        "killed",
    ),
    # -- the nilpotence walk on the generator-coordinate grid --
    Mutant(
        "nilpotence walk drops the first generator's coordinates",
        "complexes.py",
        "d in module.gen_degrees})",
        "d in module.gen_degrees[1:]})",
        (_CPLX + "test_annihilated_by_monomial_power",),
        "killed",
    ),
    Mutant(
        "nilpotence walk drops the last generator's coordinates",
        "complexes.py",
        "d in module.gen_degrees})",
        "d in module.gen_degrees[:-1]})",
        (_CPLX + "test_annihilated_by_monomial_power",),
        "killed",
    ),
    Mutant(
        "nilpotence walk reads relation coordinates instead",
        "complexes.py",
        "d in module.gen_degrees})",
        "d in module.rel_degrees})",
        (_CPLX + "test_annihilated_by_monomial_power",),
        "killed",
    ),
    Mutant(
        "nilpotence walk also visits relation coordinates",
        "complexes.py",
        "d in module.gen_degrees})",
        "d in module.gen_degrees + module.rel_degrees})",
        (_CPLX + "test_nilpotence_walk_visits_generator_coordinates_only",),
        "killed",
    ),
    Mutant(
        "nilpotence walk also visits 0",
        "complexes.py",
        "sorted({d[i] for d in module.gen_degrees})",
        "sorted({0, *(d[i] for d in module.gen_degrees)})",
        (_CPLX + "test_nilpotence_walk_visits_generator_coordinates_only",),
        "killed",
    ),
    # -- the critical-value grid of the slices --
    Mutant(
        "grid prefix masks off by one",
        "presentation.py",
        "accumulate(bits.values(), operator.or_, initial=0)",
        "accumulate(bits.values(), operator.or_)",
        (_PRES + "test_grid_axis_with_no_degree_at_zero",),
        "killed",
    ),
    Mutant(
        "grid bisects left",
        "presentation.py",
        "from bisect import bisect_right",
        "from bisect import bisect_left as bisect_right",
        (_PRES + "test_grid_axis_with_no_degree_at_zero",),
        "killed",
    ),
    Mutant(
        "first-slice scan compares the wrong way",
        "presentation.py",
        "if dg.leq(e, d)), ()",
        "if dg.leq(d, e)), ()",
        (_PRES + "test_grid_axis_with_no_degree_at_zero",),
        "killed",
    ),
    Mutant(
        "every slice request scans",
        "presentation.py",
        "if not self._slices:",
        "if True:",
        (_PRES + "test_a_module_sliced_once_builds_no_grid",),
        "killed",
    ),
    Mutant(
        "relation bits shifted by one",
        "presentation.py",
        "enumerate(bits[ng:])",
        "enumerate(bits[ng + 1:])",
        (_PRES + "test_grid_axis_with_no_degree_at_zero",),
        "killed",
    ),
    # -- the Fitting split and the restricted arrows --
    Mutant(
        "Fitting split swaps the full and zero images",
        "quiver.py",
        "rows = () if k.dim else Matrix.identity(x.field, k.ambient).entries",
        "rows = Matrix.identity(x.field, k.ambient).entries if k.dim else ()",
        (_QUIV + "test_split_along_equals_the_kernel_and_image_reference[F_5]",),
        "killed",
    ),
    Mutant(
        "Fitting split reduces the image at a nilpotent vertex too",
        "quiver.py",
        "if 0 < k.dim < k.ambient:",
        "if 0 < k.dim <= k.ambient:",
        (_QUIV + "test_fitting_image_is_reduced_only_at_a_mixed_vertex",),
        "killed",
    ),
    Mutant(
        "restricted arrow skips the membership check for a zero target",
        "quiver.py",
        "if not full and not tgt.contains_vector(img):",
        "if tgt.dim and not full and not tgt.contains_vector(img):",
        (_QUIV + "test_restrict_arrow_refuses_a_non_invariant_subspace",),
        "killed",
    ),
    Mutant(
        "restricted arrow returns A whenever the target is full",
        "quiver.py",
        "if full and src.dim == src.ambient:",
        "if full:",
        (_QUIV + "test_restrict_arrow_refuses_a_non_invariant_subspace",),
        "killed",
    ),
)


def _run(src: str, tests) -> tuple[int, str]:
    """pytest's exit status for `tests` against the persloc package under `src`, and its output."""
    argv = [sys.executable, "-c", _BOOT, src, "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return done.returncode, done.stdout


def _shown(status: int, output: str) -> int:
    """`_run`'s exit status, with its output shown when the status is not a verdict."""
    if status not in (0, 1):
        sys.stdout.write(output[-2000:])
    return status


def _copy(where: str) -> str:
    src = os.path.join(where, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _apply(src: str, mutant: Mutant) -> None:
    path = os.path.join(src, "persloc", mutant.file)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {count} times in {mutant.file}, expected once")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(mutant.old, mutant.new))


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for mutant in MUTANTS:
            print(f"{mutant.verdict:<10} {mutant.name}")
        return 0
    chosen = [mutant for mutant in MUTANTS if not argv or mutant.name in argv]
    if unknown := set(argv) - {mutant.name for mutant in MUTANTS}:
        raise SystemExit(f"unknown entries {sorted(unknown)}; see --list")
    for mutant in chosen:
        if mutant.verdict not in ("killed", "equivalent") or (mutant.verdict == "equivalent") != bool(mutant.why):
            raise SystemExit(f"{mutant.name}: verdict {mutant.verdict!r} needs a `why` exactly when equivalent")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="persloc-mutation-") as where:
        tests = list(dict.fromkeys(t for mutant in chosen for t in mutant.tests))
        status = _shown(*_run(_copy(os.path.join(where, "base")), tests))
        if status != 0:
            print(f"the unmutated copy does not pass the named tests (exit status {status})")
            return 1

        def mutated(k: int) -> tuple[int, str]:
            src = _copy(os.path.join(where, str(k)))
            _apply(src, chosen[k])
            return _run(src, chosen[k].tests)

        wrong = 0
        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            for mutant, result in zip(chosen, pool.map(mutated, range(len(chosen)))):
                status = _shown(*result)
                # 1: a test failed; 0: all passed; anything else is a usage, collection or import problem
                got = {0: "equivalent", 1: "killed"}.get(status, f"error (exit status {status})")
                wrong += got != mutant.verdict
                print(f"{'ok' if got == mutant.verdict else 'WRONG':<6} {got:<10} {mutant.name}", flush=True)
    print(f"{len(chosen)} mutants, {wrong} not as the table says, {time.perf_counter() - start:.1f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
