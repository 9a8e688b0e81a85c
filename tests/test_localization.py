"""Localization: the localized presentation, and one-axis interval decompositions.

The barcode computed by rank-function inversion is cross-checked against an
independent reduction algorithm (persistence column reduction of the
presentation, which builds no slice), so neither route can silently drift.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persloc.degrees import box, drop, with_axis
from persloc.errors import PreconditionError
from persloc.fields import DEFAULT_FIELD, Field
from persloc.localization import (
    Interval,
    axis_rank_function,
    barcode_by_reduction,
    bars_from_rank_fn,
    localize,
    localized_barcode,
    presentation_bars,
)
from persloc.presentation import (
    GradedPresentation,
    direct_sum,
    free_module,
    random_presentation,
)


F5 = DEFAULT_FIELD


def test_interval_ordering_and_keys():
    assert Interval(0, 2).sort_key() < Interval(0, None).sort_key()
    assert Interval(0, None).sort_key() < Interval(1, 2).sort_key()
    with pytest.raises(PreconditionError):
        Interval(2, 1)
    with pytest.raises(PreconditionError):
        Interval(1, 1)


def test_localized_rank_on_axis_kill():
    # R/(t1): inverting t1 kills it, inverting t2 leaves a line
    mod = GradedPresentation.build(2, F5, [(0, 0)], [((1, 0), [1])])
    assert localize(mod, [1]).dim_at((0,)) == 0
    assert localize(mod, [2]).dim_at((0,)) == 1
    # sigma-coordinates of a degree of M may be negative: they are dropped
    assert localize(mod, [2]).dim_at(drop((0, -3), {2})) == 1
    assert localize(mod, [2]).rank_invariant(drop((0, 0), {2}), drop((0, 5), {2})) == 1
    assert localize(mod, [1, 2]).rank_invariant((), ()) == 0


def test_localized_rank_rejects_bad_sigma():
    mod = free_module(2, (0, 0), F5)
    with pytest.raises(PreconditionError, match=r"sigma \[3\] not inside 1\.\.2"):
        localize(mod, [3])
    with pytest.raises(PreconditionError, match=r"sigma \[0\] not inside 1\.\.2"):
        localize(mod, [0])
    # empty sigma inverts nothing and reduces to the plain dimension
    assert localize(mod, []).dim_at((0, 0)) == mod.dim_at((0, 0))


@st.composite
def _module(draw):
    fld = draw(st.sampled_from([Field(2), F5, Field(0)]))
    m = draw(st.integers(1, 3))
    return random_presentation(draw(st.integers(0, 10**6)), m=m, max_gens=5, max_rels=5, max_degree=2, fld=fld)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_module())
def test_localize_slices_are_pinned_slices(mod):
    # every sigma, empty and full included: the localized slice at d is M's
    # slice at d with the sigma-coordinates pinned at the bound, same basis
    bound = mod.stabilization_bound()
    axes = range(1, mod.m + 1)
    for size in range(mod.m + 1):
        for sigma in combinations(axes, size):
            local = localize(mod, sigma)
            assert local.m == mod.m - size
            assert local.stabilization_bound() == drop(bound, sigma)

            def pin(d):
                return tuple(bound[i - 1] if i in sigma else x for i, x in enumerate(d, 1))

            for d in box(bound):
                assert local.dim_at(drop(d, sigma)) == mod.dim_at(pin(d))
                ups = [with_axis(d, i, d[i - 1] + 1) for i in axes if i not in sigma] + [bound]
                for e in ups:
                    assert local.transition(drop(d, sigma), drop(e, sigma)) == mod.transition(pin(d), pin(e))


def test_barcode_of_torsion_plus_shifted_free():
    # R/(t1^2) + t1^3 R gives axis-1 bars [0,2) and [3,inf)
    torsion = GradedPresentation.build(2, F5, [(0, 0)], [((2, 0), [1])])
    shifted = free_module(2, (3, 0), F5)
    mod = direct_sum(torsion, shifted)
    bc = localized_barcode(mod, 1)
    assert bc.bars == ((Interval(0, 2), 1), (Interval(3, None), 1))
    assert bc.finite() == ((Interval(0, 2), 1),)
    assert tuple((iv, m) for iv, m in bc.bars if iv.end is None) == ((Interval(3, None), 1),)


def test_barcode_of_free_module():
    mod = free_module(2, (1, 2), F5)
    assert localized_barcode(mod, 1).bars == ((Interval(1, None), 1),)
    assert localized_barcode(mod, 2).bars == ((Interval(2, None), 1),)


def test_barcode_multiplicity_merging():
    mod = direct_sum(free_module(2, (1, 1), F5), free_module(2, (1, 3), F5))
    bc = localized_barcode(mod, 1)
    assert bc.bars == ((Interval(1, None), 2),)


def test_bars_from_rank_fn_rejects_negative_multiplicity():
    # a function that is not a genuine rank invariant gets caught
    def bogus(a, b):
        return 1 if a == b else 2

    with pytest.raises(PreconditionError):
        bars_from_rank_fn(bogus, 3)


def test_bars_from_rank_fn_evaluates_each_pair_once():
    # the inclusion-exclusion stencil reads each r(a, b) up to four times;
    # the rank function behind it must be asked once per grid pair
    calls = {}

    def counting(a, b):
        calls[a, b] = calls.get((a, b), 0) + 1
        return 1 if b < 3 else 0

    for bound in (0, 1, 4):
        calls.clear()
        bars = bars_from_rank_fn(counting, bound)
        assert calls == {(a, b): 1 for a in range(bound + 1) for b in range(a, bound + 1)}
    assert bars == [(Interval(0, 3), 1)]


def test_mobius_inversion_matches_reduction_oracle():
    # the acceptance-grade dual route, run over both axes of a seeded corpus
    for seed in range(50):
        mod = random_presentation(seed, m=2, max_gens=5, max_rels=8, max_degree=6)
        for axis in (1, 2):
            fast = localized_barcode(mod, axis)
            slow = barcode_by_reduction(mod, axis)
            assert fast.bars == slow.bars, (seed, axis)


def test_reduction_oracle_on_m3():
    for seed in range(10):
        mod = random_presentation(seed, m=3, max_gens=4, max_rels=5, max_degree=3)
        for axis in (1, 2, 3):
            assert localized_barcode(mod, axis).bars == barcode_by_reduction(mod, axis).bars


def test_infinite_bar_count_is_stable_dim():
    for seed in range(40):
        mod = random_presentation(seed, m=2, max_gens=5, max_rels=8, max_degree=6)
        bound = mod.stabilization_bound()
        for axis in (1, 2):
            bc = localized_barcode(mod, axis)
            inf_count = sum(mult for iv, mult in bc.bars if iv.end is None)
            assert inf_count == localize(mod, [axis]).dim_at(drop(bound, {axis}))


def test_barcode_rank_consistency():
    # the rank function recomputed from the bars agrees with the original
    for seed in range(25):
        mod = random_presentation(seed, m=2, max_gens=4, max_rels=6, max_degree=5)
        for axis in (1, 2):
            rank = axis_rank_function(mod, axis)
            bars = localized_barcode(mod, axis).bars
            hi = mod.stabilization_bound()[axis - 1] + 2
            for a in range(hi):
                for b in range(a, hi):
                    from_bars = sum(
                        mult
                        for iv, mult in bars
                        if iv.start <= a and (iv.end is None or iv.end > b)
                    )
                    assert from_bars == rank(a, b), (seed, axis, a, b)


def test_rank_function_memoization_is_pure():
    mod = random_presentation(7, m=2, max_gens=5, max_rels=8, max_degree=6)
    rank = axis_rank_function(mod, 1)
    first = [(a, b, rank(a, b)) for a in range(5) for b in range(a, 6)]
    second = [(a, b, rank(a, b)) for a in range(5) for b in range(a, 6)]
    assert first == second


def test_pinned_slice_sequence_shapes():
    mod = GradedPresentation.build(2, F5, [(0, 0)], [((2, 0), [1])])
    line = localize(mod, [2])
    (bound,) = line.stabilization_bound()
    dims = [line.dim_at((c,)) for c in range(bound + 1)]
    maps = [line.transition((c,), (c + 1,)) for c in range(bound)]
    assert dims[0] == 1 and dims[2] == 0
    assert len(maps) == len(dims) - 1
    for j, step in enumerate(maps):
        assert step.nrows == dims[j + 1] and step.ncols == dims[j]


def test_presentation_bars_handmade():
    # generators a at 0, b and c at 1; c dies at birth (an empty bar, dropped),
    # a + c kills a at 2, a zero column at 3 kills nothing, and b survives
    columns = [[0, 0, 1], [1, 0, 1], [0, 0, 0]]
    bars, tail = presentation_bars(F5, [0, 1, 1], [1, 2, 3], lambda j: enumerate(columns[j]))
    assert bars == [(Interval(0, 2), 1), (Interval(1, None), 1)]
    assert tail == []
    # trailing unit columns reduce after the relations: only b's is no
    # relation's low, and its low is b itself
    units = ([(g, 1)] for g in range(3))
    assert presentation_bars(F5, [0, 1, 1], [1, 2, 3], lambda j: enumerate(columns[j]), units) == (bars, [None, 1, None])


def test_zero_module_barcode_empty():
    from persloc.presentation import zero_module

    assert localized_barcode(zero_module(2, F5), 1).bars == ()
