"""Deterministic SVG rendering of decompositions."""

from persloc.examples import named_example
from persloc.localization import Interval, canonical_bars
from persloc.svgplot import render_svg
from persloc.twoparam import Decomposition, decompose


def test_empty_decomposition_axes_only():
    empty = Decomposition((), (), ())
    svg = render_svg(empty)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "<rect" in svg  # background only
    assert svg.count("circle") == 0
    assert render_svg(empty) == svg  # byte-stable


def test_single_quadrant_has_corner_dot():
    deco = Decomposition((), (), (((2, 2), 1),))
    svg = render_svg(deco)
    assert svg.count("<circle") == 1
    # shaded region present
    assert "fill-opacity" in svg


def test_strips_have_solid_and_dashed_edges():
    deco = Decomposition(canonical_bars([(Interval(0, 2), 1)]), canonical_bars([(Interval(1, 3), 2)]), ())
    svg = render_svg(deco)
    assert "stroke-dasharray" in svg
    assert "x2" in svg


def test_multiplicity_labels():
    deco = Decomposition(canonical_bars([(Interval(0, 2), 3)]), (), ())
    svg = render_svg(deco)
    assert "x3" in svg


def test_samerank_pair_rendering_differs_axes_match():
    m_svg = render_svg(decompose(named_example("samerank_m")))
    n_svg = render_svg(decompose(named_example("samerank_n")))
    assert m_svg != n_svg
    # identical canvas and axes: same dimensions header
    assert m_svg.splitlines()[0] == n_svg.splitlines()[0]
    assert "<text" in m_svg and "<text" in n_svg


def test_no_timestamps_or_randomness():
    deco = decompose(named_example("coordinate_cross"))
    a = render_svg(deco)
    b = render_svg(deco)
    assert a == b
    for word in ("date", "time", "random"):
        assert word not in a.lower()
