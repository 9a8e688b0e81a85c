"""Command-line surface.

Every result is one canonical-JSON report on standard output:

    {"format": 1, "command": [...], "field": "F_5", "input_digest": ..., "result": {...}}

Identical invocations produce byte-identical standard output; wall-clock
timing goes to standard error only.  Exit codes: 0 success, 1 domain errors
(malformed files, violated operation domains), 2 usage errors (arguments the
parser rejects, bad argument literals, degree pairs out of order).  Errors
are reports too; only ``--help`` prints plain text.

Module and map arguments accept a JSON file path or a built-in example name
(see ``persloc random --help`` and the README for formats).  Complex
arguments accept a file path or the shorthands ``skeleton:m:i``, ``full:m``,
``empty:m``.  Report envelopes produced by one command are accepted as input
files by the next.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from . import modfile
from .complexes import (
    MAX_VARIABLES,
    in_kernel,
    in_kernel_by_nilpotence,
    face_ring,
    kdim,
    minimal_missing_faces,
    serre_chain,
    serre_step,
    simples,
    supp_complex,
)
from .degrees import box as degree_box
from .degrees import join as degree_join
from .errors import (
    DecompositionError,
    DegreeOrderError,
    HomogeneityError,
    ParseError,
    PreconditionError,
    UnknownNameError,
)
from .examples import named_example, names as example_names
from .fields import Field
from .localization import localized_barcode, localized_dim, localized_rank
from .presentation import GradedPresentation, PresentationMap, direct_sum, random_presentation
from .quiver import (
    QuiverRep,
    endomorphism_basis,
    is_indecomposable,
    quiver_shape,
    to_quiver_rep,
    torsion_leg_split,
)
from .svgplot import render_svg
from .twoparam import (
    decompose,
    delocalize_dim,
    equivalent_after_localization,
    intersection_rank,
    reconstruct,
    section_exists,
)
from .verify import CHECKS, run_all


class UsageError(Exception):
    """A malformed argument literal or inconsistent flag combination."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose failures raise UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# -- argument parsing helpers ----------------------------------------------


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r}: expected comma-separated integers") from exc


def _parse_degree(text: str, m: int, what: str) -> tuple[int, ...]:
    d = _parse_ints(text, what)
    if len(d) != m:
        raise UsageError(f"{what} {text!r} has {len(d)} components, module has {m}")
    return d


# most degrees a `dims` or `delocalize` table may hold
_MAX_BOX_DEGREES = 100_000


def _box_limit(text: str | None, m: int, default: tuple[int, ...]) -> tuple[int, ...]:
    """The box limit a table iterates: --box if given, else the default."""
    limit = _parse_degree(text, m, "--box") if text else default
    if min(limit) < 0:
        raise UsageError(f"--box {text!r} has a negative component")
    size = math.prod(x + 1 for x in limit)
    if size > _MAX_BOX_DEGREES:
        raise PreconditionError(
            f"box {list(limit)} holds {size} degrees, more than {_MAX_BOX_DEGREES}"
        )
    return limit


def _read_json(path: str):
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"{path}: no such file")
    return modfile.loads(p.read_text(encoding="utf-8"), source=path)


def _looks_like_path(spec: str) -> bool:
    return spec.endswith(".json") or "/" in spec or Path(spec).is_file()


def _resolve_module(spec: str, fld: Field, inputs: list) -> GradedPresentation:
    if _looks_like_path(spec):
        module = modfile.module_from_obj(_read_json(spec), where=spec)
    else:
        try:
            module = named_example(spec, fld)
        except UnknownNameError as exc:
            raise ParseError(
                f"{spec}: not a file and not a built-in example "
                f"(available: {', '.join(example_names())})"
            ) from exc
        if not isinstance(module, GradedPresentation):
            raise ParseError(f"{spec}: names a map, expected a module")
    inputs.append(modfile.module_to_obj(module))
    return module


def _resolve_map(spec: str, fld: Field, inputs: list) -> PresentationMap:
    if _looks_like_path(spec):
        pmap = modfile.map_from_obj(_read_json(spec), where=spec)
    else:
        try:
            pmap = named_example(spec, fld)
        except UnknownNameError as exc:
            raise ParseError(
                f"{spec}: not a file and not a built-in example "
                f"(available: {', '.join(example_names())})"
            ) from exc
        if not isinstance(pmap, PresentationMap):
            raise ParseError(f"{spec}: names a module, expected a map")
    inputs.append(modfile.map_to_obj(pmap))
    return pmap


def _resolve_complex(spec: str, inputs: list):
    shorthand = modfile.complex_from_shorthand(spec)
    if shorthand is not None:
        k = shorthand
    else:
        if not _looks_like_path(spec):
            raise ParseError(
                f"{spec}: not a complex shorthand (skeleton:m:i, full:m, empty:m) "
                "and not a file"
            )
        k = modfile.complex_from_obj(_read_json(spec), where=spec)
    inputs.append(modfile.complex_to_obj(k))
    return k


def _resolve_rep(spec: str, fld: Field, inputs: list, n: int | None) -> QuiverRep:
    """A quiver-rep file, or a module (file or example name) converted at -n."""
    if _looks_like_path(spec):
        obj = modfile.unwrap_envelope(_read_json(spec))
        if isinstance(obj, dict) and "legs" not in obj and isinstance(obj.get("rep"), dict):
            obj = obj["rep"]
        if isinstance(obj, dict) and "legs" in obj:
            rep = modfile.rep_from_obj(obj, where=spec)
            if n is not None and n != rep.n:
                raise UsageError(f"-n {n} conflicts with the file's leg length {rep.n}")
            inputs.append(modfile.rep_to_obj(rep))
            return rep
        module = modfile.module_from_obj(obj, where=spec)
        inputs.append(modfile.module_to_obj(module))
    else:
        module = _resolve_module(spec, fld, inputs)
    if n is None:
        raise UsageError("converting a module needs -n LEG_LENGTH")
    return to_quiver_rep(module, n)


def _mat_obj(mat) -> list:
    return [[modfile.scalar_to_json(x) for x in row] for row in mat.entries]


# -- subcommand handlers -----------------------------------------------------


def _cmd_dims(args, fld: Field, inputs: list) -> dict:
    module = _resolve_module(args.module, fld, inputs)
    bound = module.stabilization_bound()
    limit = _box_limit(args.box, module.m, bound)
    sigma = list(_parse_ints(args.sigma, "--sigma")) if args.sigma else None
    table = []
    for d in degree_box(limit):
        dim = localized_dim(module, sigma, d) if sigma else module.dim_at(d)
        table.append({"degree": list(d), "dim": dim})
    return {
        "m": module.m,
        "characteristic": module.field.char,
        "bound": list(bound),
        "box": list(limit),
        "sigma": sigma,
        "dims": table,
    }


def _cmd_rank(args, fld: Field, inputs: list) -> dict:
    module = _resolve_module(args.module, fld, inputs)
    a = _parse_degree(args.a, module.m, "degree a")
    b = _parse_degree(args.b, module.m, "degree b")
    if args.sigma:
        sigma = list(_parse_ints(args.sigma, "--sigma"))
        value = localized_rank(module, sigma, a, b)
    else:
        sigma = None
        value = module.rank_invariant(a, b)
    return {"a": list(a), "b": list(b), "sigma": sigma, "rank": value}


def _cmd_ibar(args, fld: Field, inputs: list) -> dict:
    module = _resolve_module(args.module, fld, inputs)
    a = _parse_degree(args.a, module.m, "degree a")
    b = _parse_degree(args.b, module.m, "degree b")
    c = _parse_degree(args.c, module.m, "degree c")
    return {
        "a": list(a),
        "b": list(b),
        "c": list(c),
        "rank": intersection_rank(module, a, b, c),
    }


def _cmd_barcode(args, fld: Field, inputs: list) -> dict:
    module = _resolve_module(args.module, fld, inputs)
    return modfile.barcode_to_obj(localized_barcode(module, args.axis))


def _cmd_decompose(args, fld: Field, inputs: list) -> dict:
    module = _resolve_module(args.module, fld, inputs)
    deco = decompose(module)
    result = modfile.decomposition_to_obj(deco)
    if args.same_as:
        other = _resolve_module(args.same_as, fld, inputs)
        result["equivalent"] = equivalent_after_localization(module, other)
    if args.reconstruct:
        result["reconstruction"] = modfile.module_to_obj(reconstruct(deco, module.field))
    if args.svg:
        Path(args.svg).write_text(render_svg(deco), encoding="utf-8")
        result["svg"] = args.svg
    return result


def _cmd_delocalize(args, fld: Field, inputs: list) -> dict:
    module = _resolve_module(args.module, fld, inputs)
    default = degree_join(module.stabilization_bound(), (3,) * module.m)
    limit = _box_limit(args.box, module.m, default)
    table = [
        {"degree": list(d), "dim": delocalize_dim(module, d)} for d in degree_box(limit)
    ]
    return {"box": list(limit), "dims": table}


def _cmd_support(args, fld: Field, inputs: list) -> dict:
    module = _resolve_module(args.module, fld, inputs)
    return modfile.complex_to_obj(supp_complex(module))


def _cmd_in_kernel(args, fld: Field, inputs: list) -> dict:
    module = _resolve_module(args.module, fld, inputs)
    k = _resolve_complex(args.complex, inputs)
    by_support = in_kernel(module, k)
    by_nilpotence = in_kernel_by_nilpotence(module, k)
    return {
        "complex": modfile.complex_to_obj(k),
        "in_kernel": by_support,
        "by_nilpotence": by_nilpotence,
        "agree": by_support == by_nilpotence,
    }


def _cmd_face_ring(args, fld: Field, inputs: list) -> dict:
    k = _resolve_complex(args.complex, inputs)
    return modfile.module_to_obj(face_ring(k, fld, all_missing=args.all_missing))


def _cmd_simples(args, fld: Field, inputs: list) -> dict:
    k = _resolve_complex(args.complex, inputs)
    out = []
    for desc, module in simples(k, fld):
        out.append(
            {
                "sigma": list(desc.sigma),
                "shift": list(desc.shift),
                "module": modfile.module_to_obj(module),
            }
        )
    return {"simples": out}


def _cmd_kdim(args, fld: Field, inputs: list) -> dict:
    k = _resolve_complex(args.complex, inputs)
    return {"kdim": kdim(k)}


def _cmd_serre_step(args, fld: Field, inputs: list) -> dict:
    k = _resolve_complex(args.complex, inputs)
    if args.iterate:
        chain = serre_chain(k)
        return {
            "chain": [modfile.complex_to_obj(c) for c in chain],
            "steps": len(chain) - 1,
        }
    added = sorted(sorted(f) for f in minimal_missing_faces(k))
    return {
        "complex": modfile.complex_to_obj(serre_step(k)),
        "added_faces": added,
    }


def _cmd_quiverize(args, fld: Field, inputs: list) -> dict:
    module = _resolve_module(args.module, fld, inputs)
    rep = to_quiver_rep(module, args.n)
    return {
        "rep": modfile.rep_to_obj(rep),
        "shape": quiver_shape(args.n),
    }


def _cmd_endo(args, fld: Field, inputs: list) -> dict:
    rep = _resolve_rep(args.input, fld, inputs, args.n)
    basis = endomorphism_basis(rep)
    return {
        "dimension": len(basis),
        "basis": [
            {
                "sink": _mat_obj(e.sink),
                "legs": [[_mat_obj(m) for m in leg] for leg in e.legs],
            }
            for e in basis
        ],
    }


def _cmd_indec(args, fld: Field, inputs: list) -> dict:
    rep = _resolve_rep(args.input, fld, inputs, args.n)
    res = is_indecomposable(rep)
    witness = None
    if res.witness is not None:
        witness = [modfile.rep_to_obj(part) for part in res.witness]
    return {"verdict": res.verdict, "endo_dim": res.endo_dim, "witness": witness}


def _cmd_split_legs(args, fld: Field, inputs: list) -> dict:
    rep = _resolve_rep(args.input, fld, inputs, args.n)
    split = torsion_leg_split(rep)
    if split is None:
        return {"torsion": False, "legs": None}
    return {
        "torsion": True,
        "legs": [
            [modfile.interval_to_obj(iv, mult) for iv, mult in leg] for leg in split
        ],
    }


def _cmd_section_exists(args, fld: Field, inputs: list) -> dict:
    pmap = _resolve_map(args.map, fld, inputs)
    res = section_exists(pmap)
    witness = None
    if res.witness is not None:
        w = res.witness
        witness = {
            "degrees": [list(d) for d in w.degrees],
            "axis1": [
                {"slice": list(s), "vector": [modfile.scalar_to_json(x) for x in v]}
                for s, v in zip(w.axis1_slices, w.axis1_vectors)
            ],
            "axis2": [
                {"slice": list(s), "vector": [modfile.scalar_to_json(x) for x in v]}
                for s, v in zip(w.axis2_slices, w.axis2_vectors)
            ],
        }
    return {
        "exists": res.exists,
        "axis1_solvable": res.axis1_solvable,
        "axis2_solvable": res.axis2_solvable,
        "witness": witness,
    }


# largest value each --params key may take: m as for complexes, and the draw
# sizes so that one sample stays about a second of work
_PARAM_BUDGET = {"m": MAX_VARIABLES, "max_gens": 1_000, "max_rels": 1_000, "max_degree": 1_000}


def _cmd_random(args, fld: Field, inputs: list) -> dict:
    params = {"m": 2, "max_gens": 5, "max_rels": 8, "max_degree": 6}
    if args.params:
        for piece in args.params.split(","):
            key, sep, value = piece.partition("=")
            key = key.strip()
            if not sep or key not in _PARAM_BUDGET:
                raise UsageError(
                    f"bad --params entry {piece!r}: expected key=value with key in {tuple(_PARAM_BUDGET)}"
                )
            try:
                params[key] = int(value)
            except ValueError as exc:
                raise UsageError(f"bad --params value in {piece!r}") from exc
            if params[key] > _PARAM_BUDGET[key]:
                raise PreconditionError(
                    f"--params {key}={params[key]} is more than {_PARAM_BUDGET[key]}"
                )
    if args.seeds:
        seeds = list(_parse_ints(args.seeds, "--seeds"))
    elif args.seed is not None:
        seeds = [args.seed]
    else:
        raise UsageError("need --seed S or --seeds S1,S2,...")
    samples = [
        random_presentation(
            s,
            m=params["m"],
            max_gens=params["max_gens"],
            max_rels=params["max_rels"],
            max_degree=params["max_degree"],
            fld=fld,
        )
        for s in seeds
    ]
    module = direct_sum(*samples)
    if args.shift:
        module = module.shift(_parse_degree(args.shift, params["m"], "--shift"))
    return modfile.module_to_obj(module)


def _cmd_verify_paper(args, fld: Field, inputs: list) -> dict:
    if args.list:
        return {
            "checks": [{"id": cid, "description": desc} for cid, desc, _ in CHECKS]
        }
    report = run_all(fld)
    return {"checks": report, "all_ok": all(c["ok"] for c in report)}


# -- parser and main ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--char",
        type=int,
        default=5,
        metavar="P",
        help="field characteristic for generated inputs (prime, or 0 for rationals); "
        "files carry their own",
    )
    parser = _Parser(
        prog="persloc",
        description="Exact invariants of finitely presented multigraded modules.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("dims", parents=[common], help="slice dimension table over a box")
    p.add_argument("module")
    p.add_argument("--box", metavar="D1,D2,...", help="box limit (default: stabilization bound)")
    p.add_argument("--sigma", metavar="I,J,...", help="invert these variables first")
    p.set_defaults(handler=_cmd_dims)

    p = sub.add_parser("rank", parents=[common], help="rank of the transition map a -> b")
    p.add_argument("module")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--sigma", metavar="I,J,...", help="invert these variables first")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser(
        "ibar", parents=[common], help="dimension of im(a -> c) meet im(b -> c)"
    )
    p.add_argument("module")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.set_defaults(handler=_cmd_ibar)

    p = sub.add_parser("barcode", parents=[common], help="one-axis interval decomposition")
    p.add_argument("module")
    p.add_argument("--axis", type=int, required=True)
    p.set_defaults(handler=_cmd_barcode)

    p = sub.add_parser(
        "decompose", parents=[common], help="strips and quadrants of a two-parameter module"
    )
    p.add_argument("module")
    p.add_argument("--svg", metavar="PATH", help="also draw the decomposition")
    p.add_argument(
        "--same-as",
        metavar="OTHER",
        help="also test whether OTHER has the same decomposition",
    )
    p.add_argument(
        "--reconstruct",
        action="store_true",
        help="also emit a presentation realizing the decomposition",
    )
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser(
        "delocalize", parents=[common], help="fiber-product dimension table over a box"
    )
    p.add_argument("module")
    p.add_argument("--box", metavar="D1,D2")
    p.set_defaults(handler=_cmd_delocalize)

    p = sub.add_parser("support", parents=[common], help="support complex of a module")
    p.add_argument("module")
    p.set_defaults(handler=_cmd_support)

    p = sub.add_parser(
        "in-kernel",
        parents=[common],
        help="does the module die after inverting along the complex",
    )
    p.add_argument("module")
    p.add_argument("complex")
    p.set_defaults(handler=_cmd_in_kernel)

    p = sub.add_parser("face-ring", parents=[common], help="cyclic module presenting a complex")
    p.add_argument("complex")
    p.add_argument("--all-missing", action="store_true", help="one relation per missing face")
    p.set_defaults(handler=_cmd_face_ring)

    p = sub.add_parser("simples", parents=[common], help="simple objects of the quotient")
    p.add_argument("complex")
    p.set_defaults(handler=_cmd_simples)

    p = sub.add_parser("kdim", parents=[common], help="iterated-quotient dimension invariant")
    p.add_argument("complex")
    p.set_defaults(handler=_cmd_kdim)

    p = sub.add_parser("serre-step", parents=[common], help="adjoin the minimal missing faces")
    p.add_argument("complex")
    p.add_argument("--iterate", action="store_true", help="iterate to the full simplex")
    p.set_defaults(handler=_cmd_serre_step)

    p = sub.add_parser(
        "quiverize", parents=[common], help="three-parameter module to star-quiver rep"
    )
    p.add_argument("module")
    p.add_argument("-n", type=int, required=True, help="leg length")
    p.set_defaults(handler=_cmd_quiverize)

    p = sub.add_parser("endo", parents=[common], help="endomorphism algebra basis")
    p.add_argument("input", help="quiver-rep file, or module (then -n is required)")
    p.add_argument("-n", type=int, default=None, help="leg length for module input")
    p.set_defaults(handler=_cmd_endo)

    p = sub.add_parser("indec", parents=[common], help="certified indecomposability check")
    p.add_argument("input", help="quiver-rep file, or module (then -n is required)")
    p.add_argument("-n", type=int, default=None, help="leg length for module input")
    p.set_defaults(handler=_cmd_indec)

    p = sub.add_parser(
        "split-legs", parents=[common], help="per-leg intervals of a sink-zero rep"
    )
    p.add_argument("input", help="quiver-rep file, or module (then -n is required)")
    p.add_argument("-n", type=int, default=None, help="leg length for module input")
    p.set_defaults(handler=_cmd_split_legs)

    p = sub.add_parser(
        "section-exists", parents=[common], help="compatible section pair of a localized epi"
    )
    p.add_argument("map", help="map file or built-in map name")
    p.set_defaults(handler=_cmd_section_exists)

    p = sub.add_parser("random", parents=[common], help="seeded random presentation")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seeds", metavar="S1,S2,...", help="direct sum of several samples")
    p.add_argument(
        "--params",
        metavar="K=V,...",
        help="m, max_gens, max_rels, max_degree (defaults 2,5,8,6)",
    )
    p.add_argument("--shift", metavar="E1,E2,...", help="shift the result by this degree")
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser(
        "verify-paper", parents=[common], help="run the built-in verification suite"
    )
    p.add_argument("--list", action="store_true", help="list checks without running them")
    p.set_defaults(handler=_cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    tokens = list(sys.argv[1:]) if argv is None else list(argv)
    started = time.perf_counter()
    echo = ["persloc"] + tokens
    inputs: list = []
    exit_code = 0
    try:
        try:
            args = build_parser().parse_args(tokens)
        except SystemExit as exc:  # --help printed its text
            return exc.code if isinstance(exc.code, int) else 2
        try:
            fld = Field(args.char)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        result = args.handler(args, fld, inputs)
        if args.subcommand == "verify-paper" and not args.list and not result["all_ok"]:
            exit_code = 1
        # file inputs carry their own field; report the one actually used
        used = fld
        for obj in inputs:
            if isinstance(obj, dict) and "characteristic" in obj:
                used = Field(obj["characteristic"])
                break
        report = {
            "format": 1,
            "command": echo,
            "field": str(used),
            "input_digest": modfile.digest(inputs) if inputs else None,
            "result": result,
        }
    except (UsageError, DegreeOrderError) as exc:
        report = _error_report(echo, "usage", exc)
        exit_code = 2
    except (
        ParseError,
        HomogeneityError,
        UnknownNameError,
        PreconditionError,
        DecompositionError,
        OSError,
    ) as exc:
        report = _error_report(echo, "domain", exc)
        exit_code = 1
    print(modfile.canonical_json(report))
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    print(f"elapsed_ms={elapsed_ms}", file=sys.stderr)
    return exit_code


def _error_report(echo: list[str], kind: str, exc: Exception) -> dict:
    message = str(exc)
    if isinstance(exc, KeyError) and message.startswith(("'", '"')):
        message = message[1:-1]
    return {
        "format": 1,
        "command": echo,
        "error": {"kind": kind, "type": type(exc).__name__, "message": message},
    }
