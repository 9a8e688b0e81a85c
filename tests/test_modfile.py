"""Serialization: canonical JSON, envelopes, and round-trips."""

import json

import pytest

from persloc import modfile
from persloc.complexes import full_simplex, skeleton
from persloc.errors import ParseError
from persloc.examples import named_example
from persloc.fields import Field
from persloc.presentation import random_presentation
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
    for name in ("notsplit_map", "split_projection"):
        f = named_example(name)
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
