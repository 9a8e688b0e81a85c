"""Serialization: canonical JSON, envelopes, and round-trips."""

import json
import re

import pytest

from persloc import modfile
from persloc.complexes import full_simplex, skeleton
from persloc.degrees import MAX_BOX_DEGREES
from persloc.errors import ParseError
from persloc.examples import named_example
from persloc.fields import DEFAULT_FIELD, Field, Matrix
from persloc.presentation import PresentationMap, random_presentation, zero_module
from persloc.quiver import random_rep, to_quiver_rep


def test_canonical_json_is_sorted_and_compact():
    text = modfile.canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}'


def test_digest_stability():
    obj = {"x": 1}
    assert modfile.digest(obj) == modfile.digest({"x": 1})
    assert modfile.digest(obj) != modfile.digest({"x": 2})


def test_module_roundtrip_corpus():
    for seed in range(50):
        mod = random_presentation(seed, m=2, max_gens=5, max_rels=8, max_degree=6)
        obj = modfile.module_to_obj(mod)
        back = modfile.module_from_obj(json.loads(modfile.canonical_json(obj)))
        assert back == mod
        # a second serialize gives the identical object
        assert modfile.module_to_obj(back) == obj


def test_module_roundtrip_rationals():
    q = Field(0)
    mod = named_example("samerank_m", q)
    obj = modfile.module_to_obj(mod)
    assert modfile.module_from_obj(obj) == mod


def test_map_roundtrip():
    # the last map has a target with no generators: its coefficient matrix has no rows
    to_zero = PresentationMap(named_example("samerank_n"), zero_module(2), Matrix.from_rows(DEFAULT_FIELD, [], 2))
    for f in (named_example("notsplit_map"), named_example("split_projection"), to_zero):
        obj = modfile.map_to_obj(f)
        assert modfile.map_from_obj(obj) == f


def test_complex_roundtrip_and_shorthand():
    for k in (full_simplex(3), skeleton(3, 0), skeleton(4, 1)):
        assert modfile.complex_from_obj(modfile.complex_to_obj(k)) == k
    assert modfile.complex_from_shorthand("skeleton:3:1") == skeleton(3, 1)
    assert modfile.complex_from_shorthand("full:2") == full_simplex(2)
    assert modfile.complex_from_shorthand("empty:2") == skeleton(2, -2)
    assert modfile.complex_from_shorthand("nope") is None
    assert modfile.complex_from_shorthand("fixtures/x.json") is None


def test_rep_roundtrip():
    for seed in range(10):
        rep = random_rep(seed, n=2, max_dim=2)
        obj = modfile.rep_to_obj(rep)
        assert modfile.rep_from_obj(obj) == rep


def test_rep_over_the_vertex_budget_is_refused_with_its_location():
    # every shape check of the format passes; `QuiverRep.build` refuses the leg length
    n = (MAX_BOX_DEGREES + 2) // 3
    obj = {"characteristic": 5, "n": n, "sink_dim": 0, "legs": [{"dims": [0] * n, "maps": [[]] * n}] * 3}
    with pytest.raises(ParseError) as info:
        modfile.rep_from_obj(obj, where="big.json")
    assert str(info.value) == f"big.json: leg length {n} gives {3 * n + 1} vertices, more than {MAX_BOX_DEGREES}"


def test_complex_file_is_checked_by_make():
    for faces, message in (([[1, 2]], "[1, 2] present, [2] missing"), ([[], [3]], "face [3] outside 1..2")):
        with pytest.raises(ParseError, match=re.escape(message)):
            modfile.complex_from_obj({"m": 2, "faces": faces}, where="k.json")


def test_map_file_is_checked_by_build():
    free0, free10 = (modfile.module_to_obj(named_example(name)) for name in ("quadrant:0,0", "quadrant:1,0"))
    strip = modfile.module_to_obj(named_example("vstrip:0,1"))
    for source, target, message in (
        (free0, free10, "map hits target generator 0 (degree (1, 0)) from source generator 0 (degree (0, 0))"),
        (strip, free0, "source relation 0 (degree (1, 0)) does not map into the target relation span"),
    ):
        with pytest.raises(ParseError, match="^" + re.escape(f"f.json: {message}")):
            modfile.map_from_obj({"source": source, "target": target, "coeffs": [[1]]}, where="f.json")


def test_envelope_unwrap():
    mod = named_example("coordinate_cross")
    inner = modfile.module_to_obj(mod)
    wrapped = {"format": 1, "command": ["x"], "result": inner}
    assert modfile.module_from_obj(wrapped) == mod


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        modfile.loads("{bad", source="f.json")
    msg = str(exc.value)
    assert "f.json" in msg and "line 1" in msg


def test_module_from_obj_error_paths():
    with pytest.raises(ParseError):
        modfile.module_from_obj([1, 2])
    with pytest.raises(ParseError):
        modfile.module_from_obj({"m": 2})
    with pytest.raises(ParseError):
        modfile.module_from_obj(
            {"characteristic": 5, "m": 2, "generators": [[0]], "relations": []}
        )
    with pytest.raises(ParseError):
        modfile.module_from_obj(
            {
                "characteristic": 5,
                "m": 2,
                "generators": [[0, 0]],
                "relations": [{"degree": [1, 1], "coeffs": [1, 2]}],
            }
        )
    # inhomogeneous relations surface as parse errors with the file context
    with pytest.raises(ParseError):
        modfile.module_from_obj(
            {
                "characteristic": 5,
                "m": 2,
                "generators": [[1, 0]],
                "relations": [{"degree": [0, 1], "coeffs": [1]}],
            }
        )


def test_fraction_scalars():
    assert modfile.scalar_to_json(Field(0).coerce("3/7")) == "3/7"
    assert modfile.scalar_to_json(Field(0).coerce(2)) == 2
    obj = {
        "characteristic": 0,
        "m": 1,
        "generators": [[0]],
        "relations": [{"degree": [1], "coeffs": ["1/2"]}],
    }
    mod = modfile.module_from_obj(obj)
    assert modfile.module_to_obj(mod)["relations"][0]["coeffs"] == ["1/2"]


def test_characteristic_mismatch_in_map():
    src = modfile.module_to_obj(named_example("samerank_n"))
    tgt = modfile.module_to_obj(named_example("coordinate_cross", Field(3)))
    with pytest.raises(ParseError):
        modfile.map_from_obj({"source": src, "target": tgt, "coeffs": [[1, 1]]})
