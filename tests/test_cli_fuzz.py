"""Envelope fuzzing of the command line.

Whatever the argv or the input file, ``persloc`` prints exactly one line of
canonical JSON with ``"format": 1`` and exits 0, 1 or 2, and the line holds
an ``"error"`` object exactly when the exit code is not 0.  Two input spaces
are drawn, both derandomized: argv over every subcommand from small pools of
good and bad literals, and module, map and quiver-rep JSON objects mutated
from the fixtures.  Every file is read or written under ``tmp_path``, which
is also the working directory.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from persloc import cli, modfile
from persloc.examples import named_example
from persloc.fields import Field
from persloc.quiver import random_rep, to_quiver_rep
from test_golden_cli import _tube

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
_MODULE_FILES = ["samerank_M.json", "samerank_N.json", "coordinate_cross.json", "m3_indecomposable.json"]
_MAP_FILES = ["notsplit_map.json", "split_projection_map.json"]

# inputs whose stabilization bound overruns a work budget
_BUSTERS = ["vstrip:0,3000", "quadrant:3000,0", "quadrant:60,60,60,60"]
_MODULES = [
    "samerank_m", "samerank_n", "coordinate_cross", "m3_indecomposable", "quadrant:1,2",
    "vstrip:0,2", "hstrip:1,3", "quadrant:0,1,1", "quadrant:", "vstrip:2,1", "notsplit_map",
    "no_such_example", "missing.json", *(str(FIXTURES / f) for f in _MODULE_FILES), *_BUSTERS,
]
_MAPS = ["notsplit_map", "split_projection", "samerank_m", "missing.json",
         *(str(FIXTURES / f) for f in _MAP_FILES + _MODULE_FILES[:1])]
_REPS = ["rep.json", "rep_f2.json", "tube3_f101.json", *_MODULES]
_COMPLEXES = ["skeleton:2:0", "skeleton:3:1", "full:2", "full:3", "empty:2", "empty:0", "skeleton:2",
              "full:x", "empty:40", "skeleton:30:2", "cross", str(FIXTURES / _MODULE_FILES[0])]
_DEGREES = ["0,0", "1,1", "2,2", "1,0", "0,1", "3,3", "0,0,0", "1,1,1", "1", "-1,0", "a,b", "", "1,,2",
            "1" * 40 + ",0"]
_POOLS = {
    "module": _MODULES,
    "map": _MAPS,
    "rep": _REPS,
    "complex": _COMPLEXES,
    "degree": _DEGREES,
    "box": ["3,2", "0,0", "-1,-1", "3000,3000", "100000,0", "2,2,2", "x"],
    "sigma": ["1", "2", "1,2", "3", "0", "x", ""],
    "axis": ["1", "2", "3", "0", "-1", "x"],
    "n": ["1", "2", "3", "0", "-1", "x", "100000000"],
    "seed": ["0", "7", "-1", "x", "1" * 40],
    "seeds": ["1,2,3", "4", "1,x", ""],
    "params": ["m=2", "m=3,max_gens=3", "max_degree=3", "m=13", "max_gens=2000", "bogus=1", "m", "m=x",
               "max_rels=0,max_gens=0"],
    "shift": ["1,1", "0,0,0", "-1,0", "x"],
    "svg": ["out.svg", "no_dir/out.svg"],
    "char": ["5", "2", "3", "0", "7", "4", "-3", "x", "1" * 40],
}
# subcommand -> (positional roles, {optional flag: role or None for a bare switch})
_COMMANDS = {
    "dims": (["module"], {"--box": "box", "--sigma": "sigma"}),
    "rank": (["module", "degree", "degree"], {"--sigma": "sigma"}),
    "ibar": (["module", "degree", "degree", "degree"], {}),
    "barcode": (["module"], {"--axis": "axis"}),
    "decompose": (["module"], {"--svg": "svg", "--same-as": "module", "--reconstruct": None}),
    "delocalize": (["module"], {"--box": "box"}),
    "support": (["module"], {}),
    "in-kernel": (["module", "complex"], {}),
    "face-ring": (["complex"], {"--all-missing": None}),
    "simples": (["complex"], {}),
    "kdim": (["complex"], {}),
    "serre-step": (["complex"], {"--iterate": None}),
    "quiverize": (["module"], {"-n": "n"}),
    "endo": (["rep"], {"-n": "n"}),
    "indec": (["rep"], {"-n": "n"}),
    "split-legs": (["rep"], {"-n": "n"}),
    "section-exists": (["map"], {}),
    "random": ([], {"--seed": "seed", "--seeds": "seeds", "--params": "params", "--shift": "shift"}),
    "verify-paper": ([], {"--list": None}),
}


@st.composite
def _argv(draw):
    sub = draw(st.sampled_from(sorted(_COMMANDS)))
    roles, flags = _COMMANDS[sub]
    argv = [sub] + [draw(st.sampled_from(_POOLS[role])) for role in roles]
    for flag, role in sorted(flags.items()):
        if draw(st.booleans()):
            argv += [flag] if role is None else [flag, draw(st.sampled_from(_POOLS[role]))]
    if draw(st.booleans()):
        argv += ["--char", draw(st.sampled_from(_POOLS["char"]))]
    # now and then a missing positional or a stray token
    edit = draw(st.sampled_from(["keep"] * 6 + ["drop", "stray"]))
    if edit == "drop" and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif edit == "stray":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "extra", "-n"])))
    return argv


def _check_envelope(capsys, argv: list[str]) -> None:
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1, argv
    report = json.loads(out)
    assert modfile.canonical_json(report) + "\n" == out, argv
    assert report["format"] == 1, argv
    assert code in (0, 1, 2), argv
    assert ("error" in report) == (code != 0), argv


def _write_reps(where: Path) -> None:
    reps = {
        "rep.json": to_quiver_rep(named_example("m3_indecomposable"), 2),
        "rep_f2.json": random_rep(5, n=1, fld=Field(2)),
        "tube3_f101.json": _tube(101, 3),
    }
    for name, rep in reps.items():
        (where / name).write_text(modfile.canonical_json(modfile.rep_to_obj(rep)), encoding="utf-8")


def test_every_argv_prints_one_envelope(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_reps(tmp_path)

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(_argv())
    def check(argv):
        _check_envelope(capsys, argv)

    check()


# -- mutated input files ------------------------------------------------------

_VALUES = [0, 1, 2, -1, 3, 7, 10**6, 2**70, int("1" * 40), 1.5, "x", "", "1/2", None, True, [], [0],
           [0, 0], [[0, 0]], [[1, 0], [0, 1]], {}, {"degree": [0, 0], "coeffs": [1]}]
# input kind -> commands run on the mutated file (its path is appended)
_RUNS = {
    "module": [["dims"], ["decompose"], ["barcode", "--axis", "1"], ["support"], ["delocalize"],
               ["rank", "0,0", "1,1"], ["quiverize", "-n", "1"], ["in-kernel", "full:2"]],
    "map": [["section-exists"]],
    "rep": [["endo"], ["indec"], ["split-legs"]],
}


def _sources() -> list[tuple[str, object]]:
    out = [("module", json.loads((FIXTURES / f).read_text())) for f in _MODULE_FILES]
    out += [("map", json.loads((FIXTURES / f).read_text())) for f in _MAP_FILES]
    out += [("rep", modfile.rep_to_obj(to_quiver_rep(named_example("m3_indecomposable"), n)))
            for n in (1, 2)]
    out += [("rep", modfile.rep_to_obj(random_rep(seed, n=1, fld=Field(2)))) for seed in (3, 5)]
    return out


_SOURCES = _sources()


def _paths(node, prefix=()):
    """Every location in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


@st.composite
def _mutated(draw):
    kind, obj = draw(st.sampled_from(_SOURCES))
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        value = copy.deepcopy(draw(st.sampled_from(_VALUES)))
        if not path:
            obj = value if draw(st.booleans()) else {"format": 1, "result": obj}
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["replace", "replace", "delete", "grow"]))
        if op == "replace":
            parent[path[-1]] = value
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.append(value)
        else:
            parent["extra"] = value
    text = json.dumps(obj)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return kind, text, draw(st.sampled_from(_RUNS[kind]))


def test_every_mutated_file_prints_one_envelope(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(_mutated(), st.sampled_from([None, "2", "0"]))
    def check(case, char):
        kind, text, command = case
        path = tmp_path / f"{kind}.json"
        path.write_text(text, encoding="utf-8")
        argv = [command[0], str(path), *command[1:]]
        _check_envelope(capsys, argv + (["--char", char] if char else []))

    check()
