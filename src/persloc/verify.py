"""Built-in verification suite over the named examples.

Each check recomputes one of the library's flagship facts from scratch and
compares against the expected value.  Checks are addressed by stable ids so
the CLI can list and report them.
"""

from __future__ import annotations

import time
from typing import Callable

from . import complexes, quiver, twoparam
from .examples import named_example
from .fields import DEFAULT_FIELD, Field
from .presentation import GradedPresentation


def _check_same_rank_pair(fld: Field) -> tuple[bool, str]:
    m = named_example("samerank_m", fld)
    n = named_example("samerank_n", fld)
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
    dm = twoparam.decompose(m)
    dn = twoparam.decompose(n)
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


def _check_non_split_section(fld: Field) -> tuple[bool, str]:
    res = twoparam.section_exists(named_example("notsplit_map", fld))
    if res.exists:
        return False, "the non-split inclusion reported a section"
    if not (res.axis1_solvable and res.axis2_solvable):
        return False, (
            "per-axis systems should be solvable, got "
            f"axis1={res.axis1_solvable} axis2={res.axis2_solvable}"
        )
    control = twoparam.section_exists(named_example("split_projection", fld))
    if not control.exists or control.witness is None:
        return False, "the split projection control failed to produce a section"
    return True, "no compatible section, though each single axis splits; control splits"


def _check_rank2_indecomposable(fld: Field) -> tuple[bool, str]:
    module = named_example("m3_indecomposable", fld)
    if not quiver.in_leq_n(module, 2):
        return False, "transitions do not stabilize past degree 2"
    rep = quiver.to_quiver_rep(module, 2)
    if rep.sink_dim != 2:
        return False, f"sink dimension {rep.sink_dim}, expected 2"
    for leg in range(3):
        for mat in rep.arrows[leg]:
            if mat.rank() != mat.ncols:
                return False, "a leg map is not injective (torsion present)"
    verdict = quiver.is_indecomposable(rep)
    if verdict.verdict != "yes":
        return False, f"indecomposability verdict was {verdict.verdict!r}"
    return True, (
        f"rank-two rep certified indecomposable (endomorphism dimension {verdict.endo_dim})"
    )


def _check_delocalization_gap(fld: Field) -> tuple[bool, str]:
    cross = named_example("coordinate_cross", fld)
    two_axes = GradedPresentation.build(
        2, fld, [(0, 0), (0, 0)], [((1, 0), [1, 0]), ((0, 1), [0, 1])]
    )
    for d1 in range(4):
        for d2 in range(4):
            got = twoparam.delocalize_dim(cross, (d1, d2))
            want = two_axes.dim_at((d1, d2))
            if got != want:
                return False, f"fiber-product dim at {(d1, d2)}: {got}, expected {want}"
    if twoparam.delocalize_dim(cross, (0, 0)) != 2:
        return False, "origin dimension is not 2"
    free = named_example("quadrant:0,0", fld)
    for d1 in range(4):
        for d2 in range(4):
            if twoparam.delocalize_dim(free, (d1, d2)) != 1:
                return False, f"free module fiber product is not 1 at {(d1, d2)}"
    return True, "gluing the axis localizations doubles the origin fiber of the cross"


def _check_face_ring_support(fld: Field) -> tuple[bool, str]:
    count = 0
    for k in complexes.enumerate_complexes(3):
        if complexes.supp_complex(complexes.face_ring(k, fld)) != k:
            return False, f"support mismatch for the complex with faces {sorted(map(sorted, k.faces))}"
        count += 1
    return True, f"support(face ring) is the identity on all {count} complexes over 3 variables"


def _check_skeleton_chain(fld: Field) -> tuple[bool, str]:
    for m in range(1, 5):
        for i in range(-2, m - 1):
            if complexes.serre_step(complexes.skeleton(m, i)) != complexes.skeleton(m, i + 1):
                return False, f"skeleton({m},{i}) did not step to skeleton({m},{i + 1})"
        if complexes.kdim(complexes.empty_complex(m)) != m:
            return False, f"empty complex on {m} vertices has wrong dimension invariant"
        if m >= 2 and complexes.kdim(complexes.skeleton(m, m - 2)) != 0:
            return False, "boundary complex dimension invariant is not 0"
        if complexes.kdim(complexes.full_simplex(m)) != -1:
            return False, "full simplex dimension invariant is not -1"
        chain = complexes.serre_chain(complexes.empty_complex(m))
        if len(chain) - 1 != complexes.kdim(complexes.empty_complex(m)) + 1:
            return False, f"chain length mismatch on {m} vertices"
    return True, "skeleta step one level per quotient; chain lengths match the invariant"


def _check_quiver_shape(fld: Field) -> tuple[bool, str]:
    for n in range(1, 11):
        shape = quiver.quiver_shape(n)
        if shape["num_vertices"] != 3 * n + 1 or shape["num_arrows"] != 3 * n:
            return False, f"wrong counts at leg length {n}"
    if quiver.quiver_shape(1)["classification"] != "D4":
        return False, "leg length 1 is not tagged D4"
    if quiver.quiver_shape(2)["classification"] != "E6_affine":
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


def run_all(fld: Field = DEFAULT_FIELD, seconds: dict | None = None) -> list[dict]:
    """Run every check over `fld`, in registry order; each check's wall time goes to `seconds` by id."""
    report = []
    for cid, description, fn in CHECKS:
        started = time.perf_counter()
        try:
            ok, detail = fn(fld)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if seconds is not None:
            seconds[cid] = time.perf_counter() - started
        report.append({"id": cid, "description": description, "ok": ok, "detail": detail})
    return report
