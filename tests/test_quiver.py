"""Three-legged quiver bridge: conversion, endomorphisms, splitting.

endomorphism_basis is cross-checked by brute-force enumeration of all
vertex-wise matrix tuples over F_2 on tiny representations, and its sparse
solve against the commutation system written as one dense matrix;
indecomposability verdicts are checked on knowns from both sides (certified
yes on the rank-two example, witnessed no on direct sums), against an
independent enumeration of all p^dim elements of End wherever that is
feasible, and every yes against the Tits form of its dimension vector.  The
locality certificates (the commutator ideal and Frobenius fixed space over
F_p, the trace form over Q) are pinned on tubes, on a non-commutative End
and on an End whose commutator ideal holds the identity.
"""

import itertools
import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persloc import cli, fields, quiver
from persloc.degrees import MAX_BOX_DEGREES, box, with_axis
from persloc.errors import DecompositionError, PreconditionError
from persloc.fields import DEFAULT_FIELD, Field, Matrix, Subspace
from persloc.localization import Interval, bars_from_rank_fn
from persloc.presentation import GradedPresentation, direct_sum, free_module, random_presentation
from persloc.examples import named_example, strip_presentation
from persloc.quiver import (
    QuiverRep,
    _combine,
    _end_rows,
    _endo_from_vector,
    _end_vectors,
    _endo_to_vector,
    _frobenius_fixed,
    _split_local,
    _star,
    endomorphism_basis,
    in_leq_n,
    is_indecomposable,
    quiver_shape,
    random_rep,
    to_quiver_rep,
    torsion_leg_split,
    try_split,
)
from test_golden_cli import _tube, _tube_on


F5 = DEFAULT_FIELD
F2 = Field(2)


def test_quiver_shape_counts():
    for n in range(1, 11):
        shape = quiver_shape(n)
        assert shape["num_vertices"] == 3 * n + 1
        assert shape["num_arrows"] == 3 * n
        assert len(shape["vertices"]) == 3 * n + 1
        assert len(shape["arrows"]) == 3 * n
        targets = [tgt for _, tgt in shape["arrows"]]
        assert targets.count("sink") == 3
    assert quiver_shape(1)["classification"] == "D4"
    assert quiver_shape(2)["classification"] == "E6_affine"
    assert quiver_shape(3)["classification"] is None
    with pytest.raises(PreconditionError):
        quiver_shape(0)


def test_in_leq_n_on_examples():
    mod = named_example("m3_indecomposable")
    assert in_leq_n(mod, 2)
    assert in_leq_n(mod, 5)
    assert in_leq_n(free_module(3, (0, 0, 0), F5), 1)
    # a module with torsion deeper than the window is rejected
    deep = GradedPresentation.build(3, F5, [(0, 0, 0)], [((3, 0, 0), [1])])
    assert not in_leq_n(deep, 1)
    assert in_leq_n(deep, 3)


def test_in_leq_n_whole_range_matters():
    # torsion strictly between n and the bound: the single far slice looks
    # fine but an intermediate transition is not invertible
    mod = GradedPresentation.build(
        3,
        F5,
        [(0, 0, 0), (2, 0, 0)],
        [((1, 0, 0), [1, 0]), ((3, 0, 0), [0, 1])],
    )
    # dims along axis 1: 1 at 0, 0 at 1, 1 at 2, 0 from 3 on
    assert mod.dim_at((0, 3, 3)) == 1 and mod.dim_at((1, 3, 3)) == 0
    assert not in_leq_n(mod, 1)
    assert in_leq_n(mod, 3)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([F2, F5, Field(0)]))
def test_in_leq_n_agrees_with_the_transition_walk(seed, fld):
    # in_leq_n reads the three axis barcodes; the reference walks every pinned
    # transition at axis positions n..bound-1 and asks for an isomorphism
    mod = random_presentation(seed, m=3, max_gens=4, max_rels=6, max_degree=4, fld=fld)
    bound = mod.stabilization_bound()
    for n in range(7):
        pin = tuple(max(n, b) for b in bound)
        steps = (
            mod.transition(with_axis(pin, axis, c), with_axis(pin, axis, c + 1))
            for axis in (1, 2, 3)
            for c in range(n, bound[axis - 1])
        )
        walked = all(t.nrows == t.ncols == t.rank() for t in steps)
        assert in_leq_n(mod, n) == walked, (seed, fld, n)


def test_far_bound_is_refused_without_walking_it(capsys):
    # the bar born at 99,999 is read off the presentation; no transition is
    # built at each axis position up to the bound
    start = time.perf_counter()
    code = cli.main(["quiverize", "quadrant:0,0,99999", "-n", "1"])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert capsys.readouterr().out == (
        '{"command":["persloc","quiverize","quadrant:0,0,99999","-n","1"],'
        '"error":{"kind":"domain","message":"transitions are not isomorphisms past degree 1; '
        'choose a larger n","type":"PreconditionError"},"format":1}\n'
    )
    assert elapsed < 0.5, elapsed


def test_to_quiver_rep_m3_example():
    mod = named_example("m3_indecomposable")
    rep = to_quiver_rep(mod, 2)
    assert rep.sink_dim == 2
    assert rep.leg_dims == ((1, 2), (1, 2), (1, 2))
    # every leg map is injective: no torsion along any single axis
    for leg in range(3):
        for mat in rep.arrows[leg]:
            assert mat.rank() == mat.ncols
    assert rep.total_dim() == 2 + 3 * 3


def test_to_quiver_rep_requires_window():
    deep = GradedPresentation.build(3, F5, [(0, 0, 0)], [((3, 0, 0), [1])])
    with pytest.raises(PreconditionError):
        to_quiver_rep(deep, 1)
    with pytest.raises(PreconditionError):
        to_quiver_rep(free_module(2, (0, 0), F5), 1)


def test_to_quiver_rep_refuses_in_a_fixed_order():
    # m = 3 first, then the leg length, then stability by n (`in_leq_n`), then
    # with `end_budget` the End budget on the vertex dimensions
    deep = GradedPresentation.build(3, F5, [(0, 0, 0)], [((3, 0, 0), [1])])
    free40 = GradedPresentation.build(3, F5, [(0, 0, 0)] * 40, [])
    for module, n, message in [
        (free_module(2, (0, 0), F5), 0, "quiver conversion works over m = 3"),
        (deep, 0, "leg length must be at least 1"),
        (deep, 1, "transitions are not isomorphisms past degree 1; choose a larger n"),
        (free40, 1, "End has 6400 unknowns (the sum of squared vertex dimensions), more than 1500"),
    ]:
        with pytest.raises(PreconditionError) as info:
            to_quiver_rep(module, n, end_budget=True)
        assert str(info.value) == message, (module.m, n)


def test_to_quiver_rep_free_module():
    rep = to_quiver_rep(free_module(3, (0, 0, 0), F5), 1)
    assert rep.sink_dim == 1
    assert rep.leg_dims == ((1,), (1,), (1,))
    for leg in range(3):
        assert rep.arrows[leg][0] == Matrix.identity(F5, 1)


def test_legs_past_the_bound_repeat_the_bound_slices():
    # to_quiver_rep clamps leg coordinates at the stabilization bound; the
    # rep is the one read off the unclamped degrees
    n = 4
    for fld in (F2, F5, Field(0)):
        for seed in range(20):
            mod = random_presentation(seed, m=3, max_gens=4, max_rels=5, max_degree=2, fld=fld)
            pin = tuple(max(n, b) for b in mod.stabilization_bound())
            at = [pin, *(with_axis(pin, axis, j) for axis in (1, 2, 3) for j in range(n))]
            unclamped = QuiverRep.from_flat(
                fld, n, [mod.dim_at(d) for d in at], [mod.transition(at[s], at[t]) for s, t in _star(n)]
            )
            assert to_quiver_rep(mod, n) == unclamped, (fld, seed)


def test_clamped_legs_ask_once_per_distinct_degree_and_arrow(monkeypatch):
    # on quadrant:0,0,0 every vertex of a leg clamps to one degree, so the
    # 99,999 arrows of n = 33,333 are six distinct transitions between four
    # degrees, and each is built once
    calls = {"dim_at": [], "transition": []}
    for name, real in (("dim_at", GradedPresentation.dim_at), ("transition", GradedPresentation.transition)):
        def counted(self, *args, name=name, real=real):
            calls[name].append(args)
            return real(self, *args)
        monkeypatch.setattr(GradedPresentation, name, counted)
    rep = to_quiver_rep(named_example("quadrant:0,0,0", F5), 33333)
    assert len(rep.maps) == 99_999 and rep.total_dim() == 100_000
    assert len(calls["dim_at"]) == len(set(calls["dim_at"])) == 4
    assert len(calls["transition"]) == len(set(calls["transition"])) == 6


def test_end_budget_refuses_long_legs_before_their_maps(capsys):
    # 100,001 vertices of dimension 1 are 100,000 End unknowns; the budget
    # used to be checked after 100,000 leg maps were built (about 3 s)
    for command in ("indec", "endo"):
        start = time.perf_counter()
        code = cli.main([command, "quadrant:0,0,0", "-n", "33333"])
        elapsed = time.perf_counter() - start
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 1 and error["type"] == "PreconditionError", command
        assert "End has 100000 unknowns" in error["message"], command
        assert elapsed < 0.5, (command, elapsed)


def _free2000(tmp_path) -> str:
    """A module file of 2,000 free generators at 0: at -n 1, four vertices of
    dimension 2,000, 16,000,000 End unknowns and 12,000,000 map entries."""
    path = tmp_path / "free2000.json"
    path.write_text(json.dumps({"characteristic": 5, "m": 3, "generators": [[0, 0, 0]] * 2000, "relations": []}))
    return str(path)


def _no_map(*args):
    raise AssertionError("built a map before refusing")


def test_end_budget_refuses_large_vertex_dimensions_before_any_map(monkeypatch, tmp_path, capsys):
    # the conversion refuses them on its vertex dimensions, before any
    # transition, and the End budget comes before the map budget
    path = _free2000(tmp_path)
    monkeypatch.setattr(GradedPresentation, "transition", _no_map)
    for command in ("indec", "endo"):
        start = time.perf_counter()
        code = cli.main([command, path, "-n", "1"])
        elapsed = time.perf_counter() - start
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 1 and error["type"] == "PreconditionError", (command, error)
        assert error["message"] == "End has 16000000 unknowns (the sum of squared vertex dimensions), more than 1500"
        assert elapsed < 0.5, (command, elapsed)


def test_map_budget_refuses_large_vertex_dimensions_before_any_map(monkeypatch, tmp_path, capsys):
    # `quiverize` and `split-legs` solve no End, but the three 2,000 x 2,000
    # transitions took seconds and hundreds of MB before the budget
    path = _free2000(tmp_path)
    monkeypatch.setattr(GradedPresentation, "transition", _no_map)
    for command in ("quiverize", "split-legs"):
        start = time.perf_counter()
        code = cli.main([command, path, "-n", "1"])
        elapsed = time.perf_counter() - start
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 1 and error["type"] == "PreconditionError", (command, error)
        assert error["message"] == (
            "the maps have 12000000 entries (the sum of d_s * d_t over the arrows), more than 1000000"
        )
        assert elapsed < 0.5, (command, elapsed)


def test_map_budget_boundary():
    # at n = 1 the arrows are leg -> sink: 1,000 x 1,000 entries are built,
    # and 101 x 9,901 = 1,000,001 are refused; at n = 2 an arrow inside a leg
    # counts as one into the sink does
    assert quiver._MAX_MAP_ENTRIES == 1_000_000
    quiver._require_map_entries([1000, 1000, 0, 0])
    quiver._require_map_entries([0, 1000, 1000, 0, 0, 0, 0])
    for dims, total in (([101, 9901, 0, 0], 1_000_001), ([0, 1000, 1000, 1, 1, 0, 0], 1_000_001)):
        with pytest.raises(PreconditionError) as info:
            quiver._require_map_entries(dims)
        assert str(info.value) == (
            f"the maps have {total} entries (the sum of d_s * d_t over the arrows), more than 1000000"
        )


def test_endo_and_indec_convert_a_module_once(monkeypatch, capsys):
    # the conversion's checks run once per command: one `in_leq_n`
    calls = []
    real = quiver.in_leq_n
    monkeypatch.setattr(quiver, "in_leq_n", lambda *args: calls.append(args) or real(*args))
    for command in ("endo", "indec"):
        calls.clear()
        assert cli.main([command, "m3_indecomposable", "-n", "2"]) == 0, capsys.readouterr()
        assert len(calls) == 1, command
    capsys.readouterr()


def _zero_rep(n: int, dims: list) -> QuiverRep:
    """The rep with vertex `dims` in `_star` order and every arrow zero."""
    zeros = [Matrix.from_rows(F5, [[0] * dims[s]] * dims[t], dims[s]) for s, t in _star(n)]
    return QuiverRep.from_flat(F5, n, dims, zeros)


def test_end_budget_boundary():
    # 30^2 + 6 * 10^2 = 1,500 unknowns are solved; one more is refused
    assert quiver._MAX_END_UNKNOWNS == 1_500
    assert _end_rows(_zero_rep(2, [30] + [10] * 6))[0] == 1_500
    with pytest.raises(PreconditionError) as info:
        _end_rows(_zero_rep(3, [30, 10, 10, 1, 10, 10, 0, 10, 10, 0]))
    assert str(info.value) == "End has 1501 unknowns (the sum of squared vertex dimensions), more than 1500"


def test_random_rep_refuses_a_leg_length_before_it_draws(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before refusing")

    for name in ("randint", "randrange"):
        monkeypatch.setattr(random.Random, name, no_draw)
    with pytest.raises(PreconditionError) as info:
        random_rep(0, n=40000)
    assert str(info.value) == f"leg length 40000 gives 120001 vertices, more than {MAX_BOX_DEGREES}"
    with pytest.raises(PreconditionError) as info:
        random_rep(0, n=0)
    assert str(info.value) == "leg length must be at least 1"


def test_endomorphisms_contain_identity_and_compose():
    for seed in range(12):
        rep = random_rep(seed, n=2, max_dim=2)
        basis = endomorphism_basis(rep)
        if rep.total_dim():
            assert basis[0] == tuple(Matrix.identity(rep.field, d) for d in rep.dims)
        # closure under composition: the product of two basis elements solves
        # the same commutation system, so it reduces into the span
        total = sum(d * d for d in rep.dims)
        if total == 0:
            continue
        span = Subspace.span(rep.field, total, [_endo_to_vector(e) for e in basis])
        for a in basis[: min(3, len(basis))]:
            for b in basis[: min(3, len(basis))]:
                comp = tuple(x.mul(y) for x, y in zip(a, b))
                assert span.contains_vector(_endo_to_vector(comp))


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.sampled_from([F2, F5, Field(0)]),
)
def test_flat_layout_and_endomorphisms_commute_with_every_arrow(seed, n, fld):
    rep = random_rep(seed, n=n, fld=fld)
    star = _star(n)
    assert list(rep.maps) == [mat for leg in rep.arrows for mat in leg]
    for (u, w), a in zip(star, rep.maps):
        assert (a.nrows, a.ncols) == (rep.dims[w], rep.dims[u])
    for x in endomorphism_basis(rep):
        assert [(m.nrows, m.ncols) for m in x] == [(d, d) for d in rep.dims]
        for (u, w), a in zip(star, rep.maps):
            assert x[w].mul(a) == a.mul(x[u]), (seed, n, fld, u, w)
    assert QuiverRep.from_flat(fld, n, rep.dims, rep.maps) == rep
    # vertex v > 0 is position (v - 1) % n of leg (v - 1) // n + 1
    name = lambda v: "sink" if v == 0 else f"leg{(v - 1) // n + 1}.{(v - 1) % n}"
    assert quiver_shape(n)["arrows"] == [(name(u), name(w)) for u, w in star]


def _insertion_oracle(fld, vectors):
    """The vectors kept by growing an echelon basis one vector at a time."""
    rows, pivots, kept = [], [], []
    for vec in vectors:
        red = list(vec)
        for p, row in zip(pivots, rows):
            if red[p] != 0:
                red = fld.axpy(red, -red[p], row)
        piv = next((i for i, x in enumerate(red) if x != 0), None)
        if piv is not None:
            rows.append(fld.scale(red, fld.inv(red[piv])))
            pivots.append(piv)
            kept.append(list(vec))
    return kept


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.sampled_from([F2, Field(3), F5, Field(0)]),
    st.booleans(),
)
@example(161, 1, F5, True)  # the zero rep: its identity is zero and End is {0}
def test_endomorphism_basis_matches_incremental_insertion(seed, n, fld, sink_zero):
    # the basis is the identity followed by the commutation kernel's rows,
    # each kept when it is independent of the ones kept before it
    rep = random_rep(seed, n=n, fld=fld, sink_zero=sink_zero)
    basis = endomorphism_basis(rep)
    identity = _endo_to_vector(tuple(Matrix.identity(fld, d) for d in rep.dims))
    commuting = _dense_end_kernel(rep)
    expected = _insertion_oracle(fld, [identity, *commuting.rows])
    assert [_endo_to_vector(x) for x in basis] == expected
    assert len(basis) == commuting.dim
    assert bool(basis) == bool(rep.total_dim())


def _dense_end_kernel(rep):
    """Kernel of the commutation system written as one dense matrix."""
    fld, dims = rep.field, rep.dims
    offsets = list(itertools.accumulate((d * d for d in dims), initial=0))
    rows = []
    for (u, w), a in zip(_star(rep.n), rep.maps):
        du, dw = dims[u], dims[w]
        # X_w A - A X_u = 0, entrywise over (r, c) in dw x du
        for r in range(dw):
            for c in range(du):
                row = [fld.zero] * offsets[-1]
                for k in range(dw):
                    row[offsets[w] + r * dw + k] = a.entries[k][c]
                for k in range(du):
                    row[offsets[u] + k * du + c] = fld.neg(a.entries[r][k])
                rows.append(tuple(row))
    return Matrix(fld, len(rows), offsets[-1], tuple(rows)).kernel()


def _dense_arrows_rep(seed, fld, n, dims):
    """A rep whose arrows are random matrices with every entry drawn."""
    rng = random.Random(("dense", seed, fld.char).__repr__())
    draw = (lambda: rng.randrange(fld.char)) if fld.char else (lambda: rng.randint(-3, 3))
    maps = [
        Matrix.from_rows(fld, [[draw() for _ in range(dims[s])] for _ in range(dims[t])], dims[s])
        for s, t in _star(n)
    ]
    return QuiverRep.from_flat(fld, n, dims, maps)


def test_endomorphism_basis_matches_the_dense_solve():
    # the sparse solve returns exactly the list the dense kernel gives
    reps = [
        random_rep(seed, n=n, fld=Field(char), sink_zero=sink_zero)
        for char in (2, 3, 5, 7, 101, 0)
        for n in (1, 2, 3)
        for sink_zero in (False, True)
        for seed in range(12)
    ]
    reps += [
        _dense_arrows_rep(seed, Field(char), n, dims)
        for seed, char, n, dims in [
            (0, 2, 1, (10, 8, 8, 8)),
            (1, 5, 2, (12, 4, 6, 4, 6, 4, 6)),
            (2, 101, 1, (14, 7, 7, 7)),
            (3, 7, 3, (5, 2, 3, 4, 1, 3, 4, 2, 2, 3)),
            (4, 0, 1, (6, 3, 3, 3)),
            (5, 0, 2, (4, 2, 2, 2, 2, 2, 2)),
        ]
    ]
    reps += [_tube(char, level) for char in (5, 7, 0) for level in (2, 3, 4)]
    for rep in reps:
        identity = _endo_to_vector(tuple(Matrix.identity(rep.field, d) for d in rep.dims))
        expected = _insertion_oracle(rep.field, [identity, *_dense_end_kernel(rep).rows])
        assert [_endo_to_vector(x) for x in endomorphism_basis(rep)] == expected


def test_bad_arrow_shape_names_the_arrow():
    def rep(n, sink_dim, leg_dims, shapes):
        arrows = tuple(tuple(Matrix.from_rows(F5, [[0] * c for _ in range(r)], c) for r, c in leg) for leg in shapes)
        return QuiverRep.build(F5, n, sink_dim, leg_dims, arrows)

    with pytest.raises(PreconditionError, match=r"^arrow leg3\.0->sink shape 1x2, expected 1x3$"):
        rep(1, 1, ((2,), (2,), (3,)), (((1, 2),), ((1, 2),), ((1, 2),)))
    with pytest.raises(PreconditionError, match=r"^arrow leg2\.0->leg2\.1 shape 2x1, expected 1x1$"):
        rep(2, 1, ((1, 1),) * 3, (((1, 1), (1, 1)), ((2, 1), (1, 1)), ((1, 1), (1, 1))))


def _zero_arrows(legs, fld=F5):
    """Zero 1x1 arrows, one tuple of `len(leg)` per leg."""
    return tuple(tuple(Matrix.from_rows(fld, [[0]], 1) for _ in leg) for leg in legs)


_ONES = ((1,), (1,), (1,))
_OVER_BUDGET = (MAX_BOX_DEGREES + 2) // 3


@pytest.mark.parametrize(
    "n, leg_dims, arrows, message",
    [
        (0, ((), (), ()), ((), (), ()), "leg length must be at least 1"),
        (
            _OVER_BUDGET, ((),) * 3, ((),) * 3,
            f"leg length {_OVER_BUDGET} gives {3 * _OVER_BUDGET + 1} vertices, more than {MAX_BOX_DEGREES}",
        ),
        (1, _ONES[:2], _zero_arrows(_ONES[:2]), "exactly three legs"),
        (1, _ONES, _zero_arrows(_ONES)[:2], "exactly three legs"),
        (1, ((1,), (1, 1), (1,)), _zero_arrows(_ONES), "leg length mismatch"),
        (1, _ONES, _zero_arrows(((1,), (1, 1), (1,))), "leg length mismatch"),
        (1, _ONES, _zero_arrows(_ONES[:2]) + _zero_arrows(((1,),), Field(7)), "arrow over wrong field"),
        # in order: the leg length, the leg count, the leg lengths, then arrow by
        # arrow its shape and its field
        (0, _ONES[:2], ((), ()), "leg length must be at least 1"),
        (2, _ONES[:2], ((), ()), "exactly three legs"),
        (1, ((2,), (1,), (1,)), _zero_arrows(((1,),), Field(7)) + _zero_arrows(_ONES[:2]),
         "arrow leg1.0->sink shape 1x1, expected 1x2"),
        (1, ((1,), (1,), (2,)), _zero_arrows(((1,),), Field(7)) + _zero_arrows(_ONES[:2]), "arrow over wrong field"),
        (1, ((2,), (1,), (1,)), _zero_arrows(_ONES[:2]) + _zero_arrows(((1,),), Field(7)),
         "arrow leg1.0->sink shape 1x1, expected 1x2"),
    ],
)
def test_build_refuses_bad_input_with_its_message(n, leg_dims, arrows, message):
    with pytest.raises(PreconditionError) as info:
        QuiverRep.build(F5, n, 1, leg_dims, arrows)
    assert type(info.value) is PreconditionError and str(info.value) == message


def _derived_reps(fld, seed):
    """The reps built from checked data without a second check: quiver
    conversions, random reps, direct sums and Fitting witnesses."""
    module = random_presentation(seed, m=3, max_gens=4, max_rels=5, max_degree=2, fld=fld)
    for n in (1, 2, 3):
        if in_leq_n(module, n):
            yield to_quiver_rep(module, n)
    a, b = random_rep(seed, max_dim=2, fld=fld), random_rep(seed, n=2, max_dim=2, fld=fld)
    yield a
    yield b
    yield a.direct_sum(a)
    yield b.direct_sum(random_rep(seed + 100, n=2, max_dim=1, fld=fld))
    for rep in (a, b, b.direct_sum(b)):
        yield from is_indecomposable(rep).witness or ()


@pytest.mark.parametrize("fld", [F2, F5, Field(101), Field(0)], ids=str)
def test_derived_reps_pass_build_again(fld):
    # the constructor trusts its fields; what derived constructions hand it
    # is what `build` would accept and return unchanged
    for seed in range(12):
        for rep in _derived_reps(fld, seed):
            assert QuiverRep.build(rep.field, rep.n, rep.sink_dim, rep.leg_dims, rep.arrows) == rep


def test_endomorphism_basis_brute_force_f2():
    # enumerate every vertex-wise tuple on tiny F_2 reps and compare counts
    rng = random.Random("endo-brute")
    for seed in range(6):
        rep = random_rep(seed, n=1, max_dim=1, fld=F2)
        basis = endomorphism_basis(rep)
        count = _count_endos_brute_force(rep)
        assert count == 2 ** len(basis), (seed, count, len(basis))


def _count_endos_brute_force(rep):
    """Literal enumeration of commuting tuples over F_2; tiny dims only."""
    from itertools import product

    fld = rep.field
    dims = [rep.sink_dim] + [d for leg in rep.leg_dims for d in leg]
    sizes = [d * d for d in dims]
    total = sum(sizes)
    assert total <= 12, "brute force only for tiny reps"
    count = 0
    for bits in product(range(2), repeat=total):
        mats = []
        pos = 0
        for d in dims:
            entries = bits[pos : pos + d * d]
            pos += d * d
            rows = [list(entries[i * d : (i + 1) * d]) for i in range(d)]
            mats.append(Matrix.from_rows(fld, rows) if d else Matrix(fld, 0, 0, ()))
        sink_mat = mats[0]
        leg_mats = []
        idx = 1
        for leg in range(3):
            leg_mats.append(mats[idx : idx + rep.n])
            idx += rep.n
        ok = True
        for leg in range(3):
            for j in range(rep.n):
                a = rep.arrows[leg][j]
                x_src = leg_mats[leg][j]
                x_tgt = leg_mats[leg][j + 1] if j + 1 < rep.n else sink_mat
                if x_tgt.mul(a) != a.mul(x_src):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_endo_dimension_on_knowns():
    # one-dimensional spaces everywhere with identity arrows: End = k
    rep = to_quiver_rep(free_module(3, (0, 0, 0), F5), 1)
    assert len(endomorphism_basis(rep)) == 1
    # a direct sum of two copies has a 4-dimensional endomorphism algebra
    double = rep.direct_sum(rep)
    assert len(endomorphism_basis(double)) == 4
    # the rank-two example is a brick
    m3 = to_quiver_rep(named_example("m3_indecomposable"), 2)
    assert len(endomorphism_basis(m3)) == 1


def test_try_split_finds_summands():
    rep = to_quiver_rep(free_module(3, (0, 0, 0), F5), 1)
    other = to_quiver_rep(free_module(3, (1, 1, 1), F5), 1)
    combo = rep.direct_sum(other)
    split = try_split(combo, endomorphism_basis(combo))
    assert split is not None
    a, b = split
    assert a.total_dim() + b.total_dim() == combo.total_dim()
    assert a.total_dim() > 0 and b.total_dim() > 0
    assert sorted([(x.sink_dim, x.leg_dims) for x in (a, b)]) == sorted(
        [(x.sink_dim, x.leg_dims) for x in (rep, other)]
    )


def test_try_split_none_on_brick():
    m3 = to_quiver_rep(named_example("m3_indecomposable"), 2)
    assert try_split(m3, endomorphism_basis(m3)) is None


def _spy_split_along(monkeypatch) -> list:
    """Record the endomorphism handed to every `_split_along` call."""
    calls = []
    real = quiver._split_along

    def spy(rep, endo):
        calls.append(endo)
        return real(rep, endo)

    monkeypatch.setattr(quiver, "_split_along", spy)
    return calls


def test_no_split_search_when_end_has_dimension_at_most_one(monkeypatch):
    # End spans only scalars, none of which splits: no Fitting decomposition
    calls = _spy_split_along(monkeypatch)
    zero = QuiverRep(F5, 1, 0, ((0,), (0,), (0,)), tuple((Matrix(F5, 0, 0, ()),) for _ in range(3)))
    m3 = to_quiver_rep(named_example("m3_indecomposable"), 2)
    for rep, dim in ((zero, 0), (m3, 1)):
        res = is_indecomposable(rep)
        assert (res.verdict, res.endo_dim) == ("yes", dim)
        basis = endomorphism_basis(rep)
        assert try_split(rep, basis) is None
        assert try_split(rep, basis[:1]) is None
        assert try_split(rep, []) is None
    assert calls == []


def test_split_search_skips_the_identity(monkeypatch):
    # the identity is invertible, so its Fitting decomposition never splits;
    # the double splits at basis[1], and no seeded trial on this tube is the identity
    calls = _spy_split_along(monkeypatch)
    free1 = to_quiver_rep(free_module(3, (0, 0, 0), F5), 1)
    for rep in (free1.direct_sum(free1), _tube(5, 3)):
        calls.clear()
        basis = endomorphism_basis(rep)
        is_indecomposable(rep)
        assert calls[0] == basis[1]
        assert tuple(Matrix.identity(rep.field, d) for d in rep.dims) not in calls


def _eager_decision(rep):
    """The verdict, endo_dim and witness from the whole basis built up front:
    the split search along `basis[1:]`, then the field's certificate; None
    when neither decides."""
    basis = endomorphism_basis(rep)
    vectors = [_endo_to_vector(b) for b in basis]
    if len(basis) <= 1:
        return "yes", len(basis), None
    split = quiver._first_split(rep, basis[1:])
    if split is not None:
        return "no", len(basis), split
    if _frobenius_fixed(rep, vectors) == [] if rep.field.char else _split_local(rep, vectors):
        return "yes", len(basis), None
    return None


def test_lazy_split_search_matches_the_eager_one(monkeypatch):
    free1 = to_quiver_rep(free_module(3, (0, 0, 0), F5), 1)
    reps = [random_rep(seed, n=n, fld=fld) for fld in (F2, F5, Field(0)) for n in (1, 2, 3) for seed in range(15)]
    reps += [_tube(5, 3), free1.direct_sum(free1)]
    built = []
    real = quiver._endo_from_vector
    monkeypatch.setattr(quiver, "_endo_from_vector", lambda rep, vec: built.append(list(vec)) or real(rep, vec))
    at_first = 0
    for rep in reps:
        vectors = [list(v) for v in _end_vectors(rep)]
        assert vectors == [_endo_to_vector(b) for b in endomorphism_basis(rep)]
        expected = _eager_decision(rep)
        built.clear()
        res = is_indecomposable(rep)
        if expected is not None:
            assert (res.verdict, res.endo_dim, res.witness) == expected
        if res.verdict == "no" and quiver._split_along(rep, real(rep, vectors[1])) is not None:
            # decided at basis[1]: that one element is all the search built
            assert built == [vectors[1]]
            at_first += 1
    assert at_first >= len(reps) // 2


def test_end_rows_are_back_substituted_only_when_read(monkeypatch):
    # End is reduced once; a rep split at basis[1] back-substitutes that one
    # kernel row, and a tube, certified "yes", reads every row past the
    # identity, which stands in for one of them
    solved = []
    real = fields._back_substitute
    monkeypatch.setattr(fields, "_back_substitute", lambda fld, stored, f: solved.append(f) or real(fld, stored, f))
    free1 = to_quiver_rep(free_module(3, (0, 0, 0), F5), 1)
    double = free1.direct_sum(free1)
    res = is_indecomposable(double)
    assert (res.verdict, res.endo_dim, len(solved)) == ("no", 4, 1)
    for rep in (_tube(5, 3), _tube(0, 2), F25_TUBE):
        solved.clear()
        res = is_indecomposable(rep)
        assert res.verdict == "yes"
        assert len(solved) == len(set(solved)) == res.endo_dim - 1
    solved.clear()
    assert len(endomorphism_basis(double)) == 4 and len(solved) == 3


def _fitting_reference(rep, endo):
    """The Fitting split along endo from `Matrix.kernel()` and `Matrix.image()`
    of X^d at every vertex, with each arrow restricted by hand."""
    kernels, images = [], []
    for x in endo:
        power = Matrix.identity(x.field, x.nrows)
        for _ in range(x.nrows):
            power = power.mul(x)
        kernels.append(power.kernel())
        images.append(power.image())
    if not sum(s.dim for s in kernels) or not sum(s.dim for s in images):
        return None

    def restrict(a, src, tgt):
        pushed = [a.apply(v) for v in src.rows]
        assert all(tgt.contains_vector(img) for img in pushed)
        return Matrix.from_cols(a.field, tgt.dim, [[img[p] for p in tgt.pivots] for img in pushed])

    def side(spaces):
        arrows = [restrict(a, spaces[u], spaces[w]) for (u, w), a in zip(_star(rep.n), rep.maps)]
        return QuiverRep.from_flat(rep.field, rep.n, [s.dim for s in spaces], arrows)

    return side(kernels), side(images)


def _endos_to_split_along(rep, rng, extra):
    """The End basis of rep and `extra` random combinations of it."""
    vectors = _end_vectors(rep)
    mixes = [[rng.randrange(5) for _ in vectors] for _ in range(extra if vectors else 0)]
    return [_endo_from_vector(rep, v) for v in vectors + [_combine(rep.field, c, vectors) for c in mixes]]


def _block_kind(x) -> str:
    """Which Fitting case an End block is, by its kernel dimension under X^d."""
    if not x.nrows:
        return "empty"
    if all(v == 0 for row in x.entries for v in row):
        return "zero"
    power = Matrix.identity(x.field, x.nrows)
    for _ in range(x.nrows):
        power = power.mul(x)
    fitting = power.kernel().dim
    return "invertible" if fitting == 0 else "nilpotent" if fitting == x.nrows else "mixed"


@pytest.mark.parametrize("fld", [F2, F5, Field(101), Field(0)], ids=str)
def test_split_along_equals_the_kernel_and_image_reference(fld):
    rng = random.Random(("fitting", fld.char).__repr__())
    kinds, splits = set(), 0
    for seed in range(40):
        rep = random_rep(seed, fld=fld)
        for endo in _endos_to_split_along(rep, rng, 3):
            split = quiver._split_along(rep, endo)
            assert split == _fitting_reference(rep, endo), (seed, endo)
            splits += split is not None
            kinds.update(map(_block_kind, endo))
    # every shortcut of the split meets every field, Q's Fraction(0) included
    assert splits and kinds == {"empty", "zero", "invertible", "nilpotent", "mixed"}


@pytest.mark.parametrize("p, level", [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (7, 4)])
def test_split_along_a_benchmark_tube_never_splits(p, level):
    rep = _tube(p, level)
    for endo in _endos_to_split_along(rep, random.Random(level), 4):
        assert quiver._split_along(rep, endo) is None
        assert _fitting_reference(rep, endo) is None


def test_fitting_image_is_reduced_only_at_a_mixed_vertex(monkeypatch):
    reduced = []
    real = Matrix.image
    monkeypatch.setattr(Matrix, "image", lambda self: reduced.append(self.nrows) or real(self))
    free1 = to_quiver_rep(free_module(3, (0, 0, 0), F5), 1)
    double = free1.direct_sum(free1)
    identity = tuple(Matrix.identity(F5, d) for d in double.dims)
    assert quiver._split_along(double, identity) is None
    assert quiver._split_along(double, tuple(Matrix(F5, d, d, ((0,) * d,) * d) for d in double.dims)) is None
    assert reduced == []
    # the projection onto the first copy: its kernel is the second copy at every vertex
    first = tuple(Matrix.from_rows(F5, [[int(i == j == 0) for j in range(d)] for i in range(d)], d) for d in double.dims)
    split = quiver._split_along(double, first)
    assert reduced == [d for d in double.dims if d]
    assert split is not None and split == _fitting_reference(double, first)


@pytest.mark.parametrize("fld", [F5, Field(0)], ids=str)
def test_split_along_does_no_arithmetic_on_empty_and_zero_blocks(fld, monkeypatch):
    # A = k^2 -> k^2 on leg 1 (n = 2), B = k -> k -> k from leg 2 into the
    # sink, leg 3 empty; the projection onto A is zero at the sink and on leg 2
    powered, restricted, reduced = [], [], []
    real_power, real_restrict, real_image = quiver._mat_power, quiver._restrict_arrow, Matrix.image
    monkeypatch.setattr(quiver, "_mat_power", lambda mat, k: powered.append(mat) or real_power(mat, k))
    monkeypatch.setattr(quiver, "_restrict_arrow", lambda a, s, t: restricted.append(s) or real_restrict(a, s, t))
    monkeypatch.setattr(Matrix, "image", lambda self: reduced.append(self) or real_image(self))
    one, zero = Matrix.identity(fld, 1), Matrix(fld, 1, 1, ((fld.zero,),))
    id2, empty = Matrix.identity(fld, 2), Matrix(fld, 0, 0, ())
    maps = [id2, Matrix(fld, 1, 2, ((fld.zero,) * 2,)), one, one, empty, Matrix(fld, 1, 0, ((),))]
    rep = QuiverRep.from_flat(fld, 2, [1, 2, 2, 1, 1, 0, 0], maps)
    projection = (zero, id2, id2, zero, zero, empty, empty)
    split = quiver._split_along(rep, projection)
    assert [part.dims for part in split] == [(1, 0, 0, 1, 1, 0, 0), (0, 2, 2, 0, 0, 0, 0)]
    assert powered and all(any(map(any, mat.entries)) for mat in powered)
    assert restricted and all(space.dim for space in restricted)
    # at a nonzero nilpotent block the kernel of X^d is everything: no image is reduced
    shift = Matrix.from_rows(fld, [[0, 1], [0, 0]])
    assert quiver._split_along(rep, (zero, shift, shift, zero, zero, empty, empty)) is None
    assert reduced == []
    assert split == _fitting_reference(rep, projection)


def test_restrict_arrow_refuses_a_non_invariant_subspace():
    swap = Matrix.from_rows(F5, [[0, 1], [1, 0]])
    line = Subspace.span(F5, 2, [(1, 0)])
    zero = Subspace.span(F5, 2, [])
    full = Subspace.span(F5, 2, [(1, 0), (0, 1)])
    for tgt in (line, zero):
        with pytest.raises(DecompositionError, match="not arrow-invariant"):
            quiver._restrict_arrow(swap, line, tgt)
    assert quiver._restrict_arrow(swap, full, full) is swap
    assert quiver._restrict_arrow(swap, line, full) == Matrix.from_rows(F5, [[0], [1]])
    assert quiver._restrict_arrow(swap, zero, line) == Matrix(F5, 1, 0, ((),))


@pytest.mark.parametrize("fld", [F2, F5, Field(0)])
def test_mat_power_is_repeated_multiplication(fld, monkeypatch):
    rng = random.Random(("power", fld.char).__repr__())
    for size in range(5):
        mat = Matrix.from_rows(fld, [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)], size)
        expected = Matrix.identity(fld, size)
        for k in range(10):
            assert quiver._mat_power(mat, k) == expected, (size, k)
            expected = expected.mul(mat)
    products = []
    real = Matrix.mul
    monkeypatch.setattr(Matrix, "mul", lambda self, other: products.append(other) or real(self, other))
    for j in range(6):
        products.clear()
        quiver._mat_power(mat, 2**j)
        assert len(products) == j, j  # j squarings, none after the last bit and none by the identity


def test_local_end_is_certified_before_the_trials(monkeypatch):
    calls = _spy_split_along(monkeypatch)
    for rep in (_tube(5, 2), _tube(5, 3), _tube(7, 2), _tube(2, 3), _tube(0, 2)):
        calls.clear()
        basis = endomorphism_basis(rep)
        assert is_indecomposable(rep).verdict == "yes"
        assert calls == basis[1:]


def _idempotent_oracle(rep) -> str:
    """"no" iff some element of End other than 0 and 1 is idempotent, by trying all p^dim."""
    basis = endomorphism_basis(rep)
    if len(basis) <= 1:
        return "yes"
    fld = rep.field
    vectors = [_endo_to_vector(b) for b in basis]
    for coeffs in itertools.product(range(fld.char), repeat=len(basis)):
        vec = _combine(fld, coeffs, vectors)
        if vec == vectors[0] or not any(vec):
            continue
        endo = _endo_from_vector(rep, vec)
        if all(x.mul(x) == x for x in endo):
            return "no"
    return "yes"


def _enumerable(fld, dim) -> bool:
    return fld.char and dim <= 6 and fld.char ** dim <= 15_625


def _tits_form(rep) -> int:
    dims = rep.dims
    return sum(d * d for d in dims) - sum(dims[s] * dims[t] for s, t in _star(rep.n))


def _check_against_oracles(rep) -> str:
    res = is_indecomposable(rep)
    if res.verdict == "yes":
        # the dimension vector of an indecomposable is a root (Kac)
        assert _tits_form(rep) <= 1, rep.dims
    if _enumerable(rep.field, res.endo_dim):
        assert res.verdict == _idempotent_oracle(rep)
    return res.verdict


F25_TUBE = _tube_on(F5, [[0, 2], [1, 0]])  # companion matrix of t^2 - 2: End = F_25


def test_split_local_runs_only_where_the_frobenius_count_cannot_decide(monkeypatch):
    # over F_p the Frobenius fixed space mod the commutator ideal decides, for
    # a commutative End or not; the trace form runs only over Q, and alone
    calls = {"_split_local": [], "_frobenius_fixed": []}
    for name in calls:
        real = getattr(quiver, name)
        spy = lambda rep, vectors, name=name, real=real: calls[name].append(rep) or real(rep, vectors)
        monkeypatch.setattr(quiver, name, spy)
    f_p = [_tube(5, 3), _tube(2, 3), _tube(7, 2), F25_TUBE, random_rep(81, fld=F5)]
    for rep in f_p:
        is_indecomposable(rep)
    assert calls == {"_split_local": [], "_frobenius_fixed": f_p}
    rep = _tube(0, 2)
    assert is_indecomposable(rep).verdict == "yes"
    assert calls == {"_split_local": [rep], "_frobenius_fixed": f_p}


@pytest.mark.parametrize("level", [2, 3, 4])
def test_trace_form_certifies_a_q_tube_with_no_end_product(level, monkeypatch):
    # the Gram matrix tr(b_i b_j) is read off the flat basis through the
    # transpose index; End = Q[N]/(N^L) is Q.1 + J, so it has rank 1
    products = []
    real = quiver._compose
    monkeypatch.setattr(quiver, "_compose", lambda a, b: products.append(a) or real(a, b))
    rep = _tube(0, level)
    assert _split_local(rep, _end_vectors(rep))
    assert (is_indecomposable(rep).verdict, products) == ("yes", [])


@pytest.mark.parametrize(
    "rep",
    [*(_tube(p, level) for p, top in ((2, 5), (3, 4), (5, 4), (7, 3), (0, 3)) for level in range(2, top + 1)), F25_TUBE],
)
def test_tube_verdicts_match_the_idempotent_enumeration(rep):
    assert _check_against_oracles(rep) == "yes"


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([F2, Field(3), F5, Field(7), Field(101), Field(0)]),
    st.booleans(),
)
def test_verdicts_match_the_idempotent_enumeration(seed, n, max_dim, fld, sink_zero):
    _check_against_oracles(random_rep(seed, n=n, max_dim=max_dim, sink_zero=sink_zero, fld=fld))


# F_101 reps whose commutative End splits, at no basis element and at none of
# the seeded trials: (seed, n) of random_rep with max_dim 3 at n = 1, else 2
_TRIALS_MISS = [(14, 1), (38, 1), (166, 2), (268, 2), (282, 3)]


def _trials_miss_rep(seed: int, n: int) -> QuiverRep:
    return random_rep(seed, n=n, max_dim=3 if n == 1 else 2, fld=Field(101))


def _assert_splits(rep, witness):
    kernel, image = witness
    assert [a + b for a, b in zip(kernel.dims, image.dims)] == list(rep.dims)
    assert min(kernel.total_dim(), image.total_dim()) > 0


@pytest.mark.parametrize("seed, n", _TRIALS_MISS)
def test_commutative_end_the_trials_miss_is_split_off_its_frobenius_fixed_space(seed, n):
    # over F_101 a random combination of a basis of F_p x F_p is singular
    # with chance about 2/101, so the 64 trials miss these; the fixed space
    # of x -> x^p is larger than k.1 and one of its elements splits rep
    rep = _trials_miss_rep(seed, n)
    basis, vectors = endomorphism_basis(rep), _end_vectors(rep)
    assert quiver._first_split(rep, [*basis[1:], *quiver._trials(rep, vectors)]) is None
    assert len(_frobenius_fixed(rep, vectors)) >= 1
    res = is_indecomposable(rep)
    assert res.verdict == "no"
    _assert_splits(rep, res.witness)
    assert _check_against_oracles(rep) == "no"


def _simples(fld, vertices) -> QuiverRep:
    """The direct sum of the one-dimensional simples at `vertices` of the n = 1 star."""
    dims = [int(v in vertices) for v in range(4)]
    maps = [Matrix(fld, dims[t], dims[s], ((fld.zero,) * dims[s],) * dims[t]) for s, t in _star(1)]
    return QuiverRep.from_flat(fld, 1, dims, maps)


@pytest.mark.parametrize("fld", [F2, Field(3), F5, Field(101)])
def test_fixed_split_separates_the_eigenspaces_of_a_frobenius_fixed_element(fld):
    # End of a sum of r simples at distinct vertices is k^r: commutative, and
    # its Frobenius fixed space is all of it
    for vertices in ((0, 1), (0, 1, 3)):
        rep = _simples(fld, vertices)
        vectors = _end_vectors(rep)
        fixed = _frobenius_fixed(rep, vectors)
        assert len(fixed) == len(vertices) - 1
        for x in fixed:
            _assert_splits(rep, quiver._fixed_split(rep, vectors[0], x))


def test_non_commutative_end_past_the_search_is_split_off_its_frobenius_fixed_space():
    # End of dimension 3 over F_5 that is not commutative: its commutator
    # ideal C is nonzero and nilpotent, and End/C is not local, so the fixed
    # space mod C has an element outside C + k.1, and that element splits rep
    rep = random_rep(81, fld=F5)
    basis, vectors = endomorphism_basis(rep), _end_vectors(rep)
    assert len(basis) == 3
    assert quiver._compose(basis[1], basis[2]) != quiver._compose(basis[2], basis[1])
    ideal = quiver._commutator_ideal(rep, vectors)
    assert ideal.dim and quiver._nilpotent(rep, ideal.rows)
    assert quiver._first_split(rep, basis[1:]) is None
    fixed = _frobenius_fixed(rep, vectors)
    assert fixed
    res = is_indecomposable(rep)
    assert res.verdict == _idempotent_oracle(rep) == "no"
    assert res.witness == quiver._fixed_split(rep, vectors[0], fixed[0])


def test_commutator_ideal_holding_the_identity_declines_the_certificate():
    # End of R + R for a brick R is the matrix algebra M_2(F_5): its
    # commutators generate all of it, so C holds the identity and is not
    # nilpotent, and End is not local; the split search still finds a witness
    brick = random_rep(6, n=1, max_dim=2, fld=F5)
    assert len(endomorphism_basis(brick)) == 1 and brick.total_dim()
    rep = brick.direct_sum(brick)
    vectors = _end_vectors(rep)
    assert len(vectors) == 4
    assert quiver._commutator_ideal(rep, vectors) is None
    assert _frobenius_fixed(rep, vectors) is None
    res = is_indecomposable(rep)
    assert res.verdict == "no"
    _assert_splits(rep, res.witness)


def test_non_split_local_end_is_certified_by_frobenius():
    # End = F_25 has residue field F_25, not F_5, and Berlekamp's count
    # certifies it: the fixed space of x -> x^p is F_5.1
    vectors = _end_vectors(F25_TUBE)
    assert len(vectors) == 2
    assert _frobenius_fixed(F25_TUBE, vectors) == []
    assert is_indecomposable(F25_TUBE).verdict == "yes"


@pytest.mark.parametrize("char, level", [(5, 6), (0, 4)])
def test_level6_tube_is_certified_quickly(char, level):
    # all 15,625 elements of the F_5 level-6 End used to be enumerated (about
    # 15 s), and the dense commutation system of the Q level-4 tube took 3.6 s
    rep = _tube(char, level)
    start = time.perf_counter()
    res = is_indecomposable(rep)
    elapsed = time.perf_counter() - start
    assert (res.verdict, res.endo_dim) == ("yes", level)
    assert elapsed < 2, elapsed


def test_trials_run_only_where_the_certificate_gives_no_fixed_element(monkeypatch):
    # over F_p an End the certificate finds not local is split along its
    # first Frobenius fixed element, with no trial drawn; over Q there is no
    # fixed element, and the trials run and miss
    entered = []
    real = quiver._trials
    monkeypatch.setattr(quiver, "_trials", lambda rep, vectors: entered.append(rep) or real(rep, vectors))
    for rep in [*(_trials_miss_rep(seed, n) for seed, n in _TRIALS_MISS), random_rep(81, fld=F5)]:
        res = is_indecomposable(rep)
        assert res.verdict == "no"
        _assert_splits(rep, res.witness)
    assert entered == []
    rep = random_rep(220, fld=Field(0))
    assert is_indecomposable(rep).verdict == "unknown"
    assert entered == [rep]


def test_unknown_when_no_certificate_or_split_applies():
    # End = Q x Q: b^2 = -b/2 + 589/98 has the rational roots 31/14 and -19/7,
    # which no integer trial combination reaches, and End is not local
    res = is_indecomposable(random_rep(220, fld=Field(0)))
    assert (res.verdict, res.endo_dim, res.witness) == ("unknown", 2, None)


def test_is_indecomposable_verdicts():
    zero = QuiverRep(
        F5,
        1,
        0,
        ((0,), (0,), (0,)),
        tuple((Matrix(F5, 0, 0, ()),) for _ in range(3)),
    )
    assert is_indecomposable(zero).verdict == "yes"
    free1 = to_quiver_rep(free_module(3, (0, 0, 0), F5), 1)
    res = is_indecomposable(free1)
    assert res.verdict == "yes" and res.endo_dim == 1
    double = free1.direct_sum(free1)
    res = is_indecomposable(double)
    assert res.verdict == "no"
    assert res.witness is not None
    w1, w2 = res.witness
    assert w1.total_dim() + w2.total_dim() == double.total_dim()
    m3 = to_quiver_rep(named_example("m3_indecomposable"), 2)
    res = is_indecomposable(m3)
    assert res.verdict == "yes"
    assert res.endo_dim == 1


def test_is_indecomposable_rational_field():
    q = Field(0)
    rep = to_quiver_rep(free_module(3, (0, 0, 0), q), 1)
    assert is_indecomposable(rep).verdict == "yes"
    double = rep.direct_sum(rep)
    assert is_indecomposable(double).verdict == "no"


def test_indecomposability_witness_certifies_no():
    rng = random.Random("witness")
    for seed in range(10):
        rep = random_rep(seed, n=2, max_dim=2)
        res = is_indecomposable(rep)
        if res.verdict == "no":
            a, b = res.witness
            assert a.total_dim() > 0 and b.total_dim() > 0
            assert a.total_dim() + b.total_dim() == rep.total_dim()


def test_torsion_leg_split_requires_zero_sink():
    m3 = to_quiver_rep(named_example("m3_indecomposable"), 2)
    assert torsion_leg_split(m3) is None


def test_torsion_leg_split_on_strip():
    # killing one variable leaves a zero sink; the killed axis carries the
    # torsion bar while the two pinned axes see nothing at all
    strip = GradedPresentation.build(3, F5, [(0, 0, 0)], [((1, 0, 0), [1])])
    rep = to_quiver_rep(strip, 2)
    assert rep.sink_dim == 0
    assert rep.leg_dims == ((1, 0), (0, 0), (0, 0))
    split = torsion_leg_split(rep)
    assert split is not None
    assert split[0] == ((Interval(0, 1), 1),)
    assert split[1] == () and split[2] == ()
    # a module invisible past the pin converts to the zero rep
    point = GradedPresentation.build(
        3, F5, [(0, 0, 0)], [((1, 0, 0), [1]), ((0, 1, 0), [1]), ((0, 0, 1), [1])]
    )
    rep = to_quiver_rep(point, 2)
    assert rep.total_dim() == 0
    assert torsion_leg_split(rep) == ((), (), ())


def test_torsion_leg_split_reconstructs_ranks():
    # ranks of all leg composites recomputed from the bars
    for seed in range(25):
        rep = random_rep(seed, sink_zero=True)
        split = torsion_leg_split(rep)
        assert split is not None
        for leg in range(3):
            bars = split[leg]
            for a in range(rep.n):
                for b in range(a, rep.n):
                    expect = sum(
                        mult for iv, mult in bars if iv.start <= a and iv.end > b
                    )
                    got = rep.leg_composite(leg, a, b).rank()
                    assert got == expect, (seed, leg, a, b)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.sampled_from([Field(2), F5, Field(0)]),
)
def test_torsion_leg_split_agrees_with_rank_inversion(seed, n, fld):
    # two routes: column reduction of each leg against Moebius inversion of
    # the leg-composite ranks, unbounded bars closed at n
    rep = random_rep(seed, n=n, sink_zero=True, fld=fld)
    for leg, bars in enumerate(torsion_leg_split(rep)):
        rank = lambda a, b: rep.leg_composite(leg, a, b).rank()
        closed = [
            (Interval(iv.start, n if iv.end is None else iv.end), mult)
            for iv, mult in bars_from_rank_fn(rank, n - 1)
        ]
        assert list(bars) == sorted(closed, key=lambda bar: bar[0].sort_key()), (seed, n, fld, leg)


def test_torsion_leg_split_on_the_longest_legs_stays_linear():
    # legs of the longest length the box budget allows: identity chains whose
    # last map kills them, so each closing relation is reduced back through
    # the whole leg; a dense reduction would hold about n^2 entries here
    n = (MAX_BOX_DEGREES - 1) // 3
    one, zero = Matrix.identity(F5, 1), Matrix.from_rows(F5, [], 1)
    rep = QuiverRep.from_flat(F5, n, [0] + [1] * (3 * n), ([one] * (n - 1) + [zero]) * 3)
    start = time.perf_counter()
    split = torsion_leg_split(rep)
    elapsed = time.perf_counter() - start
    assert split == (((Interval(0, n), 1),),) * 3
    assert elapsed < 10, elapsed


def test_rep_serialization_additivity():
    # direct sums add dimensions blockwise
    a = random_rep(3, n=2, max_dim=2)
    b = random_rep(4, n=2, max_dim=2)
    s = a.direct_sum(b)
    assert s.sink_dim == a.sink_dim + b.sink_dim
    for leg in range(3):
        for j in range(2):
            assert s.leg_dims[leg][j] == a.leg_dims[leg][j] + b.leg_dims[leg][j]
    assert len(endomorphism_basis(s)) >= len(endomorphism_basis(a)) + len(endomorphism_basis(b))


def test_window_reevaluation_consistency():
    # converting at n and at n+1 gives the same sink and compatible legs
    mod = named_example("m3_indecomposable")
    r2 = to_quiver_rep(mod, 2)
    r3 = to_quiver_rep(mod, 3)
    assert r2.sink_dim == r3.sink_dim
    for leg in range(3):
        # the last n dims of the longer window match a shift of the shorter
        assert r3.leg_dims[leg][-1] == r2.leg_dims[leg][-1]
