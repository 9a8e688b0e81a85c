"""JSON formats for modules, maps, complexes, quiver reps, and results.

Every loader validates shape and content and raises ParseError with a
location: syntax errors carry the line and column from the JSON parser,
semantic errors carry an index-precise path such as ``relations[2].coeffs``.
Serializers emit canonical JSON (sorted keys, compact separators) so that
identical values produce identical bytes.  Barcode and decomposition reports
are output only; nothing reads them back.

Files produced by the CLI wrap their payload in a report envelope; loaders
unwrap one envelope level automatically, so command output can be piped back
in as input.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .complexes import SimplicialComplex, empty_complex, full_simplex, skeleton
from .errors import HomogeneityError, ParseError, PreconditionError
from .fields import Field, Matrix
from .localization import Barcode, Interval
from .presentation import GradedPresentation, PresentationMap
from .quiver import QuiverRep
from .twoparam import Decomposition


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def loads(text: str, source: str = "input") -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError(f"{source}: JSON nested too deeply") from exc


def unwrap_envelope(obj: object) -> object:
    """Peel one CLI report envelope so outputs can be re-used as inputs."""
    if isinstance(obj, dict) and "format" in obj and "result" in obj:
        return obj["result"]
    return obj


def _expect(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise ParseError(f"{where}: {msg}")


def _get(obj: dict, key: str, where: str):
    _expect(isinstance(obj, dict), where, f"expected an object with key {key!r}")
    _expect(key in obj, where, f"missing key {key!r}")
    return obj[key]


def _int(value, where: str, minimum: int | None = None) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), where, "expected an integer")
    if minimum is not None:
        _expect(value >= minimum, where, f"expected a value >= {minimum}, got {value}")
    return value


def _degree(value, m: int, where: str) -> tuple[int, ...]:
    _expect(isinstance(value, list), where, "expected a degree list")
    _expect(len(value) == m, where, f"expected {m} components, got {len(value)}")
    return tuple(_int(v, f"{where}[{i}]", minimum=0) for i, v in enumerate(value))


def scalar_to_json(value):
    """Exact scalar -> JSON value: int, or 'p/q' string for true fractions."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return int(value)


def _scalar(field: Field, value, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError(f"{where}: expected an integer or 'p/q' string")
    try:
        return field.coerce(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def field_from_obj(obj: dict, where: str) -> Field:
    char = _int(_get(obj, "characteristic", where), f"{where}.characteristic", minimum=0)
    try:
        return Field(char)
    except ValueError as exc:
        raise ParseError(f"{where}.characteristic: {exc}") from exc


# -- modules --------------------------------------------------------------


def module_to_obj(module: GradedPresentation) -> dict:
    return {
        "characteristic": module.field.char,
        "m": module.m,
        "generators": [list(d) for d in module.gen_degrees],
        "relations": [
            {
                "degree": list(module.rel_degrees[j]),
                "coeffs": [
                    scalar_to_json(module.rel_coeffs.entries[i][j])
                    for i in range(module.num_gens)
                ],
            }
            for j in range(module.num_rels)
        ],
    }


def module_from_obj(obj: object, where: str = "module") -> GradedPresentation:
    obj = unwrap_envelope(obj)
    _expect(isinstance(obj, dict), where, "expected a module object")
    fld = field_from_obj(obj, where)
    m = _int(_get(obj, "m", where), f"{where}.m", minimum=1)
    gens_raw = _get(obj, "generators", where)
    _expect(isinstance(gens_raw, list), f"{where}.generators", "expected a list")
    gens = [
        _degree(g, m, f"{where}.generators[{i}]") for i, g in enumerate(gens_raw)
    ]
    rels_raw = _get(obj, "relations", where)
    _expect(isinstance(rels_raw, list), f"{where}.relations", "expected a list")
    relations = []
    for j, rel in enumerate(rels_raw):
        rwhere = f"{where}.relations[{j}]"
        deg = _degree(_get(rel, "degree", rwhere), m, f"{rwhere}.degree")
        coeffs_raw = _get(rel, "coeffs", rwhere)
        _expect(isinstance(coeffs_raw, list), f"{rwhere}.coeffs", "expected a list")
        _expect(
            len(coeffs_raw) == len(gens),
            f"{rwhere}.coeffs",
            f"expected {len(gens)} entries (one per generator), got {len(coeffs_raw)}",
        )
        coeffs = [
            _scalar(fld, c, f"{rwhere}.coeffs[{i}]") for i, c in enumerate(coeffs_raw)
        ]
        relations.append((deg, coeffs))
    try:
        return GradedPresentation.build(m, fld, gens, relations)
    except (HomogeneityError, PreconditionError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


# -- maps -----------------------------------------------------------------


def map_to_obj(f: PresentationMap) -> dict:
    return {
        "source": module_to_obj(f.source),
        "target": module_to_obj(f.target),
        "coeffs": [
            [scalar_to_json(x) for x in row] for row in f.coeffs.entries
        ],
    }


def map_from_obj(obj: object, where: str = "map") -> PresentationMap:
    obj = unwrap_envelope(obj)
    _expect(isinstance(obj, dict), where, "expected a map object")
    source = module_from_obj(_get(obj, "source", where), f"{where}.source")
    target = module_from_obj(_get(obj, "target", where), f"{where}.target")
    _expect(
        source.field == target.field,
        where,
        "source and target have different characteristics",
    )
    rows_raw = _get(obj, "coeffs", where)
    _expect(isinstance(rows_raw, list), f"{where}.coeffs", "expected a list of rows")
    _expect(
        len(rows_raw) == target.num_gens,
        f"{where}.coeffs",
        f"expected {target.num_gens} rows (one per target generator), got {len(rows_raw)}",
    )
    rows = []
    for i, row in enumerate(rows_raw):
        rwhere = f"{where}.coeffs[{i}]"
        _expect(isinstance(row, list), rwhere, "expected a list")
        _expect(
            len(row) == source.num_gens,
            rwhere,
            f"expected {source.num_gens} entries (one per source generator), got {len(row)}",
        )
        rows.append([_scalar(source.field, x, f"{rwhere}[{j}]") for j, x in enumerate(row)])
    mat = (
        Matrix.from_rows(source.field, rows)
        if rows
        else Matrix(source.field, 0, source.num_gens, ())
    )
    try:
        return PresentationMap(source, target, mat)
    except (HomogeneityError, PreconditionError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


# -- simplicial complexes --------------------------------------------------


def complex_to_obj(k: SimplicialComplex) -> dict:
    return {"m": k.m, "faces": [sorted(f) for f in k.sorted_faces()]}


def complex_from_obj(obj: object, where: str = "complex") -> SimplicialComplex:
    obj = unwrap_envelope(obj)
    _expect(isinstance(obj, dict), where, "expected a complex object")
    m = _int(_get(obj, "m", where), f"{where}.m", minimum=1)
    faces_raw = _get(obj, "faces", where)
    _expect(isinstance(faces_raw, list), f"{where}.faces", "expected a list of faces")
    faces = []
    for i, face in enumerate(faces_raw):
        fwhere = f"{where}.faces[{i}]"
        _expect(isinstance(face, list), fwhere, "expected a vertex list")
        faces.append([_int(v, f"{fwhere}[{j}]", minimum=1) for j, v in enumerate(face)])
    try:
        return SimplicialComplex.make(m, faces)
    except PreconditionError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def complex_from_shorthand(text: str) -> SimplicialComplex | None:
    """Parse 'skeleton:m:i', 'full:m', 'empty:m'; None if not a shorthand."""
    head, _, tail = text.strip().lower().partition(":")
    if head not in ("skeleton", "full", "empty"):
        return None
    parts = tail.split(":") if tail else []
    try:
        nums = [int(x) for x in parts]
    except ValueError as exc:
        raise ParseError(f"complex shorthand {text!r}: parameters must be integers") from exc
    try:
        if head == "skeleton":
            if len(nums) != 2:
                raise ParseError(f"complex shorthand {text!r}: expected skeleton:m:i")
            return skeleton(nums[0], nums[1])
        if len(nums) != 1:
            raise ParseError(f"complex shorthand {text!r}: expected {head}:m")
        return full_simplex(nums[0]) if head == "full" else empty_complex(nums[0])
    except PreconditionError as exc:
        raise ParseError(f"complex shorthand {text!r}: {exc}") from exc


# -- quiver representations -------------------------------------------------


def rep_to_obj(rep: QuiverRep) -> dict:
    return {
        "characteristic": rep.field.char,
        "n": rep.n,
        "sink_dim": rep.sink_dim,
        "legs": [
            {
                "dims": list(rep.leg_dims[leg]),
                "maps": [
                    [[scalar_to_json(x) for x in row] for row in mat.entries]
                    for mat in rep.arrows[leg]
                ],
            }
            for leg in range(3)
        ],
    }


def rep_from_obj(obj: object, where: str = "rep") -> QuiverRep:
    obj = unwrap_envelope(obj)
    _expect(isinstance(obj, dict), where, "expected a quiver representation object")
    fld = field_from_obj(obj, where)
    n = _int(_get(obj, "n", where), f"{where}.n", minimum=1)
    sink_dim = _int(_get(obj, "sink_dim", where), f"{where}.sink_dim", minimum=0)
    legs_raw = _get(obj, "legs", where)
    _expect(isinstance(legs_raw, list) and len(legs_raw) == 3, f"{where}.legs", "expected exactly 3 legs")
    leg_dims = []
    arrows = []
    for leg, leg_obj in enumerate(legs_raw):
        lwhere = f"{where}.legs[{leg}]"
        dims_raw = _get(leg_obj, "dims", lwhere)
        _expect(
            isinstance(dims_raw, list) and len(dims_raw) == n,
            f"{lwhere}.dims",
            f"expected {n} vertex dimensions",
        )
        dims = tuple(_int(d, f"{lwhere}.dims[{j}]", minimum=0) for j, d in enumerate(dims_raw))
        maps_raw = _get(leg_obj, "maps", lwhere)
        _expect(
            isinstance(maps_raw, list) and len(maps_raw) == n,
            f"{lwhere}.maps",
            f"expected {n} maps (the last one into the sink)",
        )
        maps = []
        for j, rows_raw in enumerate(maps_raw):
            mwhere = f"{lwhere}.maps[{j}]"
            tgt = dims[j + 1] if j + 1 < n else sink_dim
            src = dims[j]
            _expect(
                isinstance(rows_raw, list) and len(rows_raw) == tgt,
                mwhere,
                f"expected {tgt} rows",
            )
            rows = []
            for r, row in enumerate(rows_raw):
                _expect(
                    isinstance(row, list) and len(row) == src,
                    f"{mwhere}[{r}]",
                    f"expected {src} entries",
                )
                rows.append([_scalar(fld, x, f"{mwhere}[{r}][{c}]") for c, x in enumerate(row)])
            maps.append(
                Matrix.from_rows(fld, rows) if rows else Matrix(fld, 0, src, ())
            )
        leg_dims.append(dims)
        arrows.append(tuple(maps))
    try:
        return QuiverRep(fld, n, sink_dim, tuple(leg_dims), tuple(arrows))
    except PreconditionError as exc:
        raise ParseError(f"{where}: {exc}") from exc


# -- barcodes and decompositions --------------------------------------------


def interval_to_obj(iv: Interval, mult: int) -> dict:
    return {
        "start": iv.start,
        "end": "inf" if iv.end is None else iv.end,
        "mult": mult,
    }


def barcode_to_obj(bc: Barcode) -> dict:
    return {"axis": bc.axis, "bars": [interval_to_obj(iv, m) for iv, m in bc.bars]}


def decomposition_to_obj(deco: Decomposition) -> dict:
    return {
        "vertical_strips": [
            {"a": iv.start, "b": iv.end, "mult": m} for iv, m in deco.vertical
        ],
        "horizontal_strips": [
            {"a": iv.start, "b": iv.end, "mult": m} for iv, m in deco.horizontal
        ],
        "quadrants": [
            {"corner": list(c), "mult": m} for c, m in deco.quadrants
        ],
    }
