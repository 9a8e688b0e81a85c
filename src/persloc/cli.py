"""Command-line surface.

Every result is one canonical-JSON report on standard output:

    {"format": 1, "command": [...], "field": "F_5", "input_digest": ..., "result": {...}}

Identical invocations produce byte-identical standard output; wall-clock
timing goes to standard error only.  Exit codes: 0 success, 1 domain errors
(malformed files, violated operation domains), 2 usage errors (arguments the
parser rejects, bad argument literals, degree pairs out of order).  Errors
are reports too; only ``--help`` prints plain text.

Module and map arguments accept a JSON file path or a built-in example name
(formats: README, "File formats"; the error report for an unknown name lists
the examples).  Complex arguments accept a file path or the shorthands
``skeleton:m:i``, ``full:m``, ``empty:m``.  Report envelopes produced by one
command are accepted as input files by the next.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import complexes, examples, localization, modfile, quiver, svgplot, twoparam, verify
from . import degrees as dg
from .errors import (
    AmbientMismatchError,
    DecompositionError,
    DegreeOrderError,
    HomogeneityError,
    ParseError,
    PreconditionError,
    UnknownNameError,
)
from .fields import Field
from .presentation import GradedPresentation, PresentationMap, direct_sum, random_presentation


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


def _box_limit(text: str | None, m: int, default: tuple[int, ...]) -> tuple[int, ...]:
    """The box limit a table iterates: --box if given, else the default."""
    limit = _parse_degree(text, m, "--box") if text else default
    if min(limit) < 0:
        raise UsageError(f"--box {text!r} has a negative component")
    dg.require_box_budget(limit)
    return limit


def _read_json(path: str):
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"{path}: no such file")
    try:
        return modfile.loads(p.read_text(encoding="utf-8"), source=path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _looks_like_path(spec: str) -> bool:
    return spec.endswith(".json") or "/" in spec or Path(spec).is_file()


# expected type -> (file loader, serializer, its noun, the other noun)
_KINDS = {
    GradedPresentation: (modfile.module_from_obj, modfile.module_to_obj, "module", "map"),
    PresentationMap: (modfile.map_from_obj, modfile.map_to_obj, "map", "module"),
}


def _resolve(spec: str, fld: Field, inputs: list, kind: type):
    """A module or map (as `kind` says) from a file or a built-in example name.

    Each resolved input is recorded in `inputs` with its field.
    """
    load, dump, noun, other = _KINDS[kind]
    if _looks_like_path(spec):
        value = load(_read_json(spec), where=spec)
    else:
        try:
            value = examples.named_example(spec, fld)
        except UnknownNameError as exc:
            raise ParseError(
                f"{spec}: not a file and not a built-in example "
                f"(available: {', '.join(examples.names())})"
            ) from exc
        if not isinstance(value, kind):
            raise ParseError(f"{spec}: names a {other}, expected a {noun}")
    inputs.append((dump(value), value.field))
    return value


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
    inputs.append((modfile.complex_to_obj(k), None))
    return k


def _resolve_rep(spec: str, fld: Field, inputs: list, n: int | None, end_budget: bool = False) -> quiver.QuiverRep:
    """A quiver-rep file, or a module (file or example name) converted at -n; with
    `end_budget`, a module whose End is over budget is refused before any map is built."""
    if _looks_like_path(spec):
        obj = modfile.unwrap_envelope(_read_json(spec))
        if isinstance(obj, dict) and "legs" not in obj and isinstance(obj.get("rep"), dict):
            obj = obj["rep"]
        if isinstance(obj, dict) and "legs" in obj:
            rep = modfile.rep_from_obj(obj, where=spec)
            if n is not None and n != rep.n:
                raise UsageError(f"-n {n} conflicts with the file's leg length {rep.n}")
            inputs.append((modfile.rep_to_obj(rep), rep.field))
            return rep
        module = modfile.module_from_obj(obj, where=spec)
        inputs.append((modfile.module_to_obj(module), module.field))
    else:
        module = _resolve(spec, fld, inputs, GradedPresentation)
    if n is None:
        raise UsageError("converting a module needs -n LEG_LENGTH")
    return quiver.to_quiver_rep(module, n, end_budget)


# -- subcommand handlers -----------------------------------------------------


def _invert(args, module: GradedPresentation):
    """--sigma as given (None without it), the localized module, and M's degrees -> its degrees."""
    sigma = list(_parse_ints(args.sigma, "--sigma")) if args.sigma else None
    inverted = frozenset(sigma or ())
    return sigma, localization.localize(module, inverted), lambda d: dg.drop(d, inverted)


def _cmd_dims(args, fld: Field, inputs: list) -> dict:
    module = _resolve(args.module, fld, inputs, GradedPresentation)
    bound = module.stabilization_bound()
    limit = _box_limit(args.box, module.m, bound)
    sigma, local, to_local = _invert(args, module)
    table = [{"degree": list(d), "dim": local.dim_at(to_local(d))} for d in dg.box(limit)]
    return {
        "m": module.m,
        "characteristic": module.field.char,
        "bound": list(bound),
        "box": list(limit),
        "sigma": sigma,
        "dims": table,
    }


def _cmd_rank(args, fld: Field, inputs: list) -> dict:
    module = _resolve(args.module, fld, inputs, GradedPresentation)
    a = _parse_degree(args.a, module.m, "degree a")
    b = _parse_degree(args.b, module.m, "degree b")
    sigma, local, to_local = _invert(args, module)
    la, lb = to_local(a), to_local(b)
    # with --sigma the degree checks name the module's own degrees
    if sigma and not dg.is_nonnegative(la):
        raise PreconditionError(f"degree {a} negative outside sigma")
    if sigma and not dg.leq(la, lb):
        raise DegreeOrderError(f"{a} not <= {b} outside sigma")
    return {"a": list(a), "b": list(b), "sigma": sigma, "rank": local.rank_invariant(la, lb)}


def _cmd_ibar(args, fld: Field, inputs: list) -> dict:
    module = _resolve(args.module, fld, inputs, GradedPresentation)
    a = _parse_degree(args.a, module.m, "degree a")
    b = _parse_degree(args.b, module.m, "degree b")
    c = _parse_degree(args.c, module.m, "degree c")
    return {
        "a": list(a),
        "b": list(b),
        "c": list(c),
        "rank": twoparam.intersection_rank(module, a, b, c),
    }


def _cmd_barcode(args, fld: Field, inputs: list) -> dict:
    module = _resolve(args.module, fld, inputs, GradedPresentation)
    return modfile.barcode_to_obj(localization.localized_barcode(module, args.axis))


def _cmd_decompose(args, fld: Field, inputs: list) -> dict:
    module = _resolve(args.module, fld, inputs, GradedPresentation)
    deco = twoparam.decompose(module)
    result = modfile.decomposition_to_obj(deco)
    if args.same_as:
        other = _resolve(args.same_as, fld, inputs, GradedPresentation)
        if other.field != module.field:  # before `decompose` refuses an m != 2
            raise AmbientMismatchError("modules over different fields")
        result["equivalent"] = deco == twoparam.decompose(other)
    if args.reconstruct:
        result["reconstruction"] = modfile.module_to_obj(twoparam.reconstruct(deco, module.field))
    if args.svg:
        Path(args.svg).write_text(svgplot.render_svg(deco), encoding="utf-8")
        result["svg"] = args.svg
    return result


def _cmd_delocalize(args, fld: Field, inputs: list) -> dict:
    module = _resolve(args.module, fld, inputs, GradedPresentation)
    default = dg.join(module.stabilization_bound(), (3,) * module.m)
    limit = _box_limit(args.box, module.m, default)
    table = [
        {"degree": list(d), "dim": twoparam.delocalize_dim(module, d)} for d in dg.box(limit)
    ]
    return {"box": list(limit), "dims": table}


def _cmd_support(args, fld: Field, inputs: list) -> dict:
    module = _resolve(args.module, fld, inputs, GradedPresentation)
    return modfile.complex_to_obj(complexes.supp_complex(module))


def _cmd_in_kernel(args, fld: Field, inputs: list) -> dict:
    module = _resolve(args.module, fld, inputs, GradedPresentation)
    k = _resolve_complex(args.complex, inputs)
    by_support = complexes.in_kernel(module, k)
    by_nilpotence = complexes.in_kernel_by_nilpotence(module, k)
    return {
        "complex": modfile.complex_to_obj(k),
        "in_kernel": by_support,
        "by_nilpotence": by_nilpotence,
        "agree": by_support == by_nilpotence,
    }


def _cmd_face_ring(args, fld: Field, inputs: list) -> dict:
    k = _resolve_complex(args.complex, inputs)
    return modfile.module_to_obj(complexes.face_ring(k, fld, all_missing=args.all_missing))


def _cmd_simples(args, fld: Field, inputs: list) -> dict:
    k = _resolve_complex(args.complex, inputs)
    out = []
    for desc, module in complexes.simples(k, fld):
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
    return {"kdim": complexes.kdim(k)}


def _cmd_serre_step(args, fld: Field, inputs: list) -> dict:
    k = _resolve_complex(args.complex, inputs)
    if args.iterate:
        chain = complexes.serre_chain(k)
        return {
            "chain": [modfile.complex_to_obj(c) for c in chain],
            "steps": len(chain) - 1,
        }
    added = sorted(sorted(f) for f in complexes.minimal_missing_faces(k))
    return {
        "complex": modfile.complex_to_obj(complexes.serre_step(k)),
        "added_faces": added,
    }


def _cmd_quiverize(args, fld: Field, inputs: list) -> dict:
    module = _resolve(args.module, fld, inputs, GradedPresentation)
    rep = quiver.to_quiver_rep(module, args.n)
    return {
        "rep": modfile.rep_to_obj(rep),
        "shape": quiver.quiver_shape(args.n),
    }


def _cmd_endo(args, fld: Field, inputs: list) -> dict:
    rep = _resolve_rep(args.input, fld, inputs, args.n, end_budget=True)
    basis = quiver.endomorphism_basis(rep)
    return {
        "dimension": len(basis),
        "basis": [
            {
                "sink": modfile.matrix_to_obj(e[0]),
                "legs": [[modfile.matrix_to_obj(m) for m in leg] for leg in quiver._by_leg(rep.n, e[1:])],
            }
            for e in basis
        ],
    }


def _cmd_indec(args, fld: Field, inputs: list) -> dict:
    rep = _resolve_rep(args.input, fld, inputs, args.n, end_budget=True)
    res = quiver.is_indecomposable(rep)
    witness = None
    if res.witness is not None:
        witness = [modfile.rep_to_obj(part) for part in res.witness]
    return {"verdict": res.verdict, "endo_dim": res.endo_dim, "witness": witness}


def _cmd_split_legs(args, fld: Field, inputs: list) -> dict:
    rep = _resolve_rep(args.input, fld, inputs, args.n)
    split = quiver.torsion_leg_split(rep)
    if split is None:
        return {"torsion": False, "legs": None}
    return {
        "torsion": True,
        "legs": [
            [modfile.interval_to_obj(iv, mult) for iv, mult in leg] for leg in split
        ],
    }


def _cmd_section_exists(args, fld: Field, inputs: list) -> dict:
    pmap = _resolve(args.map, fld, inputs, PresentationMap)
    res = twoparam.section_exists(pmap)
    witness = None
    if res.witness is not None:
        w = res.witness
        witness = {"degrees": [list(d) for d in w.degrees]}
        for axis, slices, vectors in (
            ("axis1", w.axis1_slices, w.axis1_vectors),
            ("axis2", w.axis2_slices, w.axis2_vectors),
        ):
            witness[axis] = [
                {"slice": list(s), "vector": [modfile.scalar_to_json(x) for x in v]}
                for s, v in zip(slices, vectors)
            ]
    return {
        "exists": res.exists,
        "axis1_solvable": res.axis1_solvable,
        "axis2_solvable": res.axis2_solvable,
        "witness": witness,
    }


# largest value each draw size of --params may take, so that one sample stays
# about a second of work; the generators and relations drawn over all --seeds
# share the same budget (m is held to the complexes' variable budget)
_PARAM_BUDGET = {"max_gens": 1_000, "max_rels": 1_000, "max_degree": 1_000}


def _cmd_random(args, fld: Field, inputs: list) -> dict:
    params = {"m": 2, "max_gens": 5, "max_rels": 8, "max_degree": 6}
    budget = {"m": complexes.MAX_VARIABLES, **_PARAM_BUDGET}
    if args.params:
        for piece in args.params.split(","):
            key, sep, value = piece.partition("=")
            key = key.strip()
            if not sep or key not in budget:
                raise UsageError(
                    f"bad --params entry {piece!r}: expected key=value with key in {tuple(budget)}"
                )
            try:
                params[key] = int(value)
            except ValueError as exc:
                raise UsageError(f"bad --params value in {piece!r}") from exc
            if params[key] > budget[key]:
                raise PreconditionError(
                    f"--params {key}={params[key]} is more than {budget[key]}"
                )
    if args.seeds:
        seeds = list(_parse_ints(args.seeds, "--seeds"))
    elif args.seed is not None:
        seeds = [args.seed]
    else:
        raise UsageError("need --seed S or --seeds S1,S2,...")
    for key in ("max_gens", "max_rels"):
        if len(seeds) * params[key] > budget[key]:
            raise PreconditionError(
                f"{len(seeds)} seeds at {key}={params[key]} draw more than {budget[key]} in total"
            )
    samples = [random_presentation(s, fld=fld, **params) for s in seeds]
    module = direct_sum(*samples)
    if args.shift:
        module = module.shift(_parse_degree(args.shift, params["m"], "--shift"))
    return modfile.module_to_obj(module)


def _cmd_verify_paper(args, fld: Field, inputs: list) -> dict:
    if args.list:
        return {
            "checks": [{"id": cid, "description": desc} for cid, desc, _ in verify.CHECKS]
        }
    seconds: dict = {}
    report = verify.run_all(fld, seconds)
    for cid, s in seconds.items():
        print(f"check_ms {cid}={int(s * 1000)}", file=sys.stderr)
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

    def command(name: str, help_text: str, handler, *positionals: str) -> argparse.ArgumentParser:
        """A subcommand with the common options, these plain positionals and this handler."""
        p = sub.add_parser(name, parents=[common], help=help_text)
        for dest in positionals:
            p.add_argument(dest)
        p.set_defaults(handler=handler)
        return p

    p = command("dims", "slice dimension table over a box", _cmd_dims, "module")
    p.add_argument("--box", metavar="D1,D2,...", help="box limit (default: stabilization bound)")
    p.add_argument("--sigma", metavar="I,J,...", help="invert these variables first")

    p = command("rank", "rank of the transition map a -> b", _cmd_rank, "module", "a", "b")
    p.add_argument("--sigma", metavar="I,J,...", help="invert these variables first")

    command("ibar", "dimension of im(a -> c) meet im(b -> c)", _cmd_ibar, "module", "a", "b", "c")

    p = command("barcode", "one-axis interval decomposition", _cmd_barcode, "module")
    p.add_argument("--axis", type=int, required=True)

    p = command("decompose", "strips and quadrants of a two-parameter module", _cmd_decompose, "module")
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

    p = command("delocalize", "fiber-product dimension table over a box", _cmd_delocalize, "module")
    p.add_argument("--box", metavar="D1,D2")

    command("support", "support complex of a module", _cmd_support, "module")
    command(
        "in-kernel", "does the module die after inverting along the complex", _cmd_in_kernel, "module", "complex"
    )

    p = command("face-ring", "cyclic module presenting a complex", _cmd_face_ring, "complex")
    p.add_argument("--all-missing", action="store_true", help="one relation per missing face")

    command("simples", "simple objects of the quotient", _cmd_simples, "complex")
    command("kdim", "iterated-quotient dimension invariant", _cmd_kdim, "complex")

    p = command("serre-step", "adjoin the minimal missing faces", _cmd_serre_step, "complex")
    p.add_argument("--iterate", action="store_true", help="iterate to the full simplex")

    p = command("quiverize", "three-parameter module to star-quiver rep", _cmd_quiverize, "module")
    p.add_argument("-n", type=int, required=True, help="leg length")

    for name, help_text, handler in (
        ("endo", "endomorphism algebra basis", _cmd_endo),
        ("indec", "certified indecomposability check", _cmd_indec),
        ("split-legs", "per-leg intervals of a sink-zero rep", _cmd_split_legs),
    ):
        p = command(name, help_text, handler)
        p.add_argument("input", help="quiver-rep file, or module (then -n is required)")
        p.add_argument("-n", type=int, default=None, help="leg length for module input")

    p = command("section-exists", "compatible section pair of a localized epi", _cmd_section_exists)
    p.add_argument("map", help="map file or built-in map name")

    p = command("random", "seeded random presentation", _cmd_random)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seeds", metavar="S1,S2,...", help="direct sum of several samples")
    p.add_argument(
        "--params",
        metavar="K=V,...",
        help="m, max_gens, max_rels, max_degree (defaults 2,5,8,6)",
    )
    p.add_argument("--shift", metavar="E1,E2,...", help="shift the result by this degree")

    p = command("verify-paper", "run the built-in verification suite", _cmd_verify_paper)
    p.add_argument("--list", action="store_true", help="list checks without running them")

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
        used = next((f for _, f in inputs if f is not None), fld)
        report = {
            "format": 1,
            "command": echo,
            "field": str(used),
            "input_digest": modfile.digest([obj for obj, _ in inputs]) if inputs else None,
            "result": result,
        }
    except (UsageError, DegreeOrderError) as exc:
        report = _error_report(echo, "usage", exc)
        exit_code = 2
    except (ParseError, HomogeneityError, PreconditionError, DecompositionError, OSError) as exc:
        report = _error_report(echo, "domain", exc)
        exit_code = 1
    try:
        print(modfile.canonical_json(report))
    except BrokenPipeError:
        # the reader closed early: send what is left, and the exit flush, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    print(f"elapsed_ms={elapsed_ms}", file=sys.stderr)
    return exit_code


def _error_report(echo: list[str], kind: str, exc: Exception) -> dict:
    return {
        "format": 1,
        "command": echo,
        "error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)},
    }
