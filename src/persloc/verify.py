"""Built-in verification suite over the named examples.

Each check recomputes one of the library's flagship facts from scratch and
compares against the expected value.  Checks are addressed by stable ids so
the CLI can list and report them; `overrides` lets a caller substitute its
own object for a named example (used to prove the suite actually detects
corrupted inputs).
"""

from __future__ import annotations

from typing import Callable

from .complexes import (
    empty_complex,
    enumerate_complexes,
    face_ring,
    full_simplex,
    kdim,
    serre_chain,
    serre_step,
    skeleton,
    supp_complex,
)
from .examples import named_example
from .fields import DEFAULT_FIELD, Field
from .presentation import GradedPresentation
from .quiver import in_leq_n, is_indecomposable, quiver_shape, to_quiver_rep
from .twoparam import decompose, delocalize_dim, section_exists

Getter = Callable[[str], object]


def _check_same_rank_pair(get: Getter, fld: Field) -> tuple[bool, str]:
    m = get("samerank_m")
    n = get("samerank_n")
    for a1 in range(4):
        for a2 in range(4):
            for b1 in range(a1, 4):
                for b2 in range(a2, 4):
                    ra = m.rank_invariant((a1, a2), (b1, b2))
                    rb = n.rank_invariant((a1, a2), (b1, b2))
                    if ra != rb:
                        return False, (
                            f"rank tables differ at {(a1, a2)} -> {(b1, b2)}: "
                            f"{ra} vs {rb}"
                        )
    dm = decompose(m)
    dn = decompose(n)
    expect_m = (((0, 0), 1), ((1, 1), 1))
    expect_n = (((0, 1), 1), ((1, 0), 1))
    if dm.vertical or dm.horizontal or dn.vertical or dn.horizontal:
        return False, "unexpected strip parts in the rank-two pair"
    if dm.quadrants != expect_m:
        return False, f"first module decomposed to {dm.quadrants}, expected {expect_m}"
    if dn.quadrants != expect_n:
        return False, f"second module decomposed to {dn.quadrants}, expected {expect_n}"
    return True, (
        "identical rank tables on [0,3]^2, corners {(0,0),(1,1)} vs {(0,1),(1,0)}"
    )


def _check_non_split_section(get: Getter, fld: Field) -> tuple[bool, str]:
    res = section_exists(get("notsplit_map"))
    if res.exists:
        return False, "the non-split inclusion reported a section"
    if not (res.axis1_solvable and res.axis2_solvable):
        return False, (
            "per-axis systems should be solvable, got "
            f"axis1={res.axis1_solvable} axis2={res.axis2_solvable}"
        )
    control = section_exists(get("split_projection"))
    if not control.exists or control.witness is None:
        return False, "the split projection control failed to produce a section"
    return True, "no compatible section, though each single axis splits; control splits"


def _check_rank2_indecomposable(get: Getter, fld: Field) -> tuple[bool, str]:
    module = get("m3_indecomposable")
    if not in_leq_n(module, 2):
        return False, "transitions do not stabilize past degree 2"
    rep = to_quiver_rep(module, 2)
    if rep.sink_dim != 2:
        return False, f"sink dimension {rep.sink_dim}, expected 2"
    for leg in range(3):
        for mat in rep.arrows[leg]:
            if mat.rank() != mat.ncols:
                return False, "a leg map is not injective (torsion present)"
    verdict = is_indecomposable(rep)
    if verdict.endo_dim > 6:
        return False, f"endomorphism dimension {verdict.endo_dim} exceeds the certification gate"
    if verdict.verdict != "yes":
        return False, f"indecomposability verdict was {verdict.verdict!r}"
    return True, (
        f"rank-two rep certified indecomposable (endomorphism dimension {verdict.endo_dim})"
    )


def _check_delocalization_gap(get: Getter, fld: Field) -> tuple[bool, str]:
    cross = get("coordinate_cross")
    two_axes = GradedPresentation.build(
        2, fld, [(0, 0), (0, 0)], [((1, 0), [1, 0]), ((0, 1), [0, 1])]
    )
    for d1 in range(4):
        for d2 in range(4):
            got = delocalize_dim(cross, (d1, d2))
            want = two_axes.dim_at((d1, d2))
            if got != want:
                return False, f"fiber-product dim at {(d1, d2)}: {got}, expected {want}"
    if delocalize_dim(cross, (0, 0)) != 2:
        return False, "origin dimension is not 2"
    free = named_example("quadrant:0,0", fld)
    for d1 in range(4):
        for d2 in range(4):
            if delocalize_dim(free, (d1, d2)) != 1:
                return False, f"free module fiber product is not 1 at {(d1, d2)}"
    return True, "gluing the axis localizations doubles the origin fiber of the cross"


def _check_face_ring_support(get: Getter, fld: Field) -> tuple[bool, str]:
    count = 0
    for k in enumerate_complexes(3):
        if supp_complex(face_ring(k, fld)) != k:
            return False, f"support mismatch for the complex with faces {sorted(map(sorted, k.faces))}"
        count += 1
    return True, f"support(face ring) is the identity on all {count} complexes over 3 variables"


def _check_skeleton_chain(get: Getter, fld: Field) -> tuple[bool, str]:
    for m in range(1, 5):
        for i in range(-2, m - 1):
            if serre_step(skeleton(m, i)) != skeleton(m, i + 1):
                return False, f"skeleton({m},{i}) did not step to skeleton({m},{i + 1})"
        if kdim(empty_complex(m)) != m:
            return False, f"empty complex on {m} vertices has wrong dimension invariant"
        if m >= 2 and kdim(skeleton(m, m - 2)) != 0:
            return False, "boundary complex dimension invariant is not 0"
        if kdim(full_simplex(m)) != -1:
            return False, "full simplex dimension invariant is not -1"
        chain = serre_chain(empty_complex(m))
        if len(chain) - 1 != kdim(empty_complex(m)) + 1:
            return False, f"chain length mismatch on {m} vertices"
    return True, "skeleta step one level per quotient; chain lengths match the invariant"


def _check_quiver_shape(get: Getter, fld: Field) -> tuple[bool, str]:
    for n in range(1, 11):
        shape = quiver_shape(n)
        if shape["num_vertices"] != 3 * n + 1 or shape["num_arrows"] != 3 * n:
            return False, f"wrong counts at leg length {n}"
    if quiver_shape(1)["classification"] != "D4":
        return False, "leg length 1 is not tagged D4"
    if quiver_shape(2)["classification"] != "E6_affine":
        return False, "leg length 2 is not tagged E6_affine"
    return True, "3n+1 vertices and 3n arrows for n <= 10; D4 and affine E6 tags"


CHECKS: tuple[tuple[str, str, Callable], ...] = (
    (
        "same_rank_pair",
        "two modules with identical rank invariant but different decompositions",
        _check_same_rank_pair,
    ),
    (
        "non_split_section",
        "a localized epimorphism with per-axis sections but no compatible pair",
        _check_non_split_section,
    ),
    (
        "rank2_indecomposable",
        "the three-parameter rank-two module is certified indecomposable at leg length 2",
        _check_rank2_indecomposable,
    ),
    (
        "delocalization_gap",
        "gluing axis localizations of the coordinate cross doubles the origin fiber",
        _check_delocalization_gap,
    ),
    (
        "face_ring_support",
        "support of the face ring recovers the complex, exhaustively over 3 variables",
        _check_face_ring_support,
    ),
    (
        "skeleton_chain",
        "simple-quotient steps walk the skeleton chain; lengths match the dimension invariant",
        _check_skeleton_chain,
    ),
    (
        "quiver_shape",
        "the three-legged star has 3n+1 vertices and 3n arrows, D4 and affine E6 at n = 1, 2",
        _check_quiver_shape,
    ),
)


def run_all(fld: Field = DEFAULT_FIELD, overrides: dict | None = None) -> list[dict]:
    """Run every check; `overrides` substitutes objects for named examples."""
    overrides = overrides or {}

    def get(name: str):
        if name in overrides:
            return overrides[name]
        return named_example(name, fld)

    report = []
    for cid, description, fn in CHECKS:
        try:
            ok, detail = fn(get, fld)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        report.append({"id": cid, "description": description, "ok": ok, "detail": detail})
    return report
