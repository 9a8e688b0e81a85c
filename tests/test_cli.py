"""Command-line behavior: envelopes, exit codes, determinism, coverage."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import persloc
from persloc import cli, modfile
from persloc.examples import named_example
from persloc.fields import Field
from persloc.quiver import random_rep
from test_golden_cli import _tube


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = str(Path(persloc.__file__).resolve().parent.parent)
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_report_envelope_shape(capsys):
    code, report, err = run_json(capsys, "rank", "samerank_m", "0,0", "1,1")
    assert code == 0
    assert report["format"] == 1
    assert report["command"] == ["persloc", "rank", "samerank_m", "0,0", "1,1"]
    assert report["field"] == "F_5"
    assert isinstance(report["input_digest"], str)
    assert report["result"]["rank"] == 0
    # timing goes to standard error only
    assert "elapsed_ms" in err
    assert "elapsed_ms" not in capsys.readouterr().out


def test_stdout_byte_identical_across_runs(capsys):
    _, out1, _ = run(capsys, "decompose", "samerank_m")
    _, out2, _ = run(capsys, "decompose", "samerank_m")
    assert out1 == out2


def test_svg_byte_identical(tmp_path, capsys):
    p1 = tmp_path / "a.svg"
    p2 = tmp_path / "b.svg"
    run(capsys, "decompose", "coordinate_cross", "--svg", str(p1))
    run(capsys, "decompose", "coordinate_cross", "--svg", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"<svg")


def test_exit_2_on_unordered_degrees(capsys):
    code, report, _ = run_json(capsys, "rank", "samerank_m", "1,1", "0,0")
    assert code == 2
    assert report["error"]["kind"] == "usage"


def test_exit_2_on_bad_literals(capsys):
    code, report, _ = run_json(capsys, "rank", "samerank_m", "x,y", "1,1")
    assert code == 2
    code, report, _ = run_json(capsys, "dims", "samerank_m", "--box", "1,2,3")
    assert code == 2
    code, report, _ = run_json(capsys, "random", "--seed", "1", "--params", "bogus=3")
    assert code == 2
    code, report, _ = run_json(capsys, "endo", "samerank_m")
    assert code == 2  # module input without -n


def test_exit_2_on_usage_parse_failures(capsys):
    for argv in (
        ["nosuchcommand"],
        ["rank", "samerank_m", "0,0"],
        [],
        ["rank", "samerank_m", "-1,0", "0,0"],
        ["dims", "samerank_m", "--char", "x"],
        ["barcode", "samerank_m"],
        ["indec", "m3_indecomposable", "-n", "2", "--trials", "3"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 2, argv
        assert out.count("\n") == 1, argv
        report = json.loads(out)
        assert report["command"] == ["persloc", *argv]
        assert report["error"]["kind"] == "usage"
        assert report["error"]["type"] == "UsageError"


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _declarations(parser: argparse.ArgumentParser) -> list:
    """The top-level parser and each subcommand in order: its name, its help
    text and every action's declaration."""
    sub = _subparsers(parser)
    helps = {a.dest: a.help for a in sub._choices_actions}
    parsers = [(parser.prog, parser.description, parser)]
    parsers += [(name, helps[name], p) for name, p in sub.choices.items()]
    return [
        [
            name,
            help_text,
            [
                [
                    type(a).__name__,
                    a.option_strings,
                    a.dest,
                    a.nargs,
                    a.const,
                    a.default,
                    getattr(a.type, "__name__", a.type),
                    None if a.choices is None else list(a.choices),
                    a.required,
                    a.help,
                    a.metavar,
                ]
                for a in p._actions
            ],
        ]
        for name, help_text, p in parsers
    ]


def test_parser_declarations_are_pinned():
    # argparse lays out --help text differently across Python versions, so the
    # declarations behind it are pinned instead; a change to any subcommand's
    # name, help, arguments or their order moves the digest
    text = json.dumps(_declarations(cli.build_parser()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DECLARATIONS_SHA256


DECLARATIONS_SHA256 = "f86c43e4a0c92103e3e843645180477682ee289169d6427569a6416230d53bc8"


def _readme_command_lines() -> list[list[str]]:
    """The argv of each `persloc ...` line in the README's "Command line" block."""
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line.split("#")[0].split()[1:] for line in block.splitlines() if line.startswith("persloc ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    lines = _readme_command_lines()
    assert {argv[0] for argv in lines} == set(_subparsers(cli.build_parser()).choices)
    for argv in lines:
        code, out, _ = run(capsys, *argv)
        assert code == 0, (argv, out)
        assert out.count("\n") == 1, argv
        assert json.loads(out)["command"] == ["persloc", *argv]


def test_box_limits_of_dims_and_delocalize(capsys):
    # a negative limit used to print an empty table and a huge one ran unbounded
    for argv in (["dims", "samerank_m", "--box=-1,-1", "--sigma", "1"], ["delocalize", "samerank_m", "--box=0,-1"]):
        code, report, _ = run_json(capsys, *argv)
        assert code == 2, argv
        assert report["error"]["type"] == "UsageError"
    # each is refused at entry by the 100,000-degree budget, which stays on the
    # real bound whatever the command then walks: dims and delocalize on their
    # --box; support (which reads generator degrees) and in-kernel (whose
    # nilpotence walk visits generator coordinates only) on the 61^4
    # stabilization box; barcode on the 3001^2 grid of its Moebius walk;
    # decompose, which walks no grid, on the 3001^2 square of its bound's
    # larger coordinate; quiverize and indec on the 3n+1 star-quiver vertices
    big = "quadrant:60,60,60,60"
    for argv in (
        ["dims", "samerank_m", "--box", "3000,3000"],
        ["delocalize", "samerank_m", "--box", "100000,0"],
        ["support", big],
        ["in-kernel", big, "full:4"],
        ["decompose", "vstrip:0,3000"],
        ["barcode", "quadrant:3000,0", "--axis", "1"],
        ["quiverize", "quadrant:0,0,0", "-n", "100000000"],
        ["indec", "quadrant:0,0,0", "-n", "100000000"],
    ):
        start = time.perf_counter()
        code, report, _ = run_json(capsys, *argv)
        assert time.perf_counter() - start < 2, argv
        assert code == 1, argv
        assert report["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize(
    "argv",
    [
        ["kdim", "empty:40"],
        ["serre-step", "empty:30", "--iterate"],
        ["support", "quadrant:" + ",".join(["0"] * 24)],
    ],
    ids=["kdim", "serre-step", "support"],
)
def test_variable_budget_of_complex_paths(capsys, argv):
    # each visited all 2^m subsets of the variables and ran unbounded
    start = time.perf_counter()
    code, report, _ = run_json(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 1
    assert report["error"]["kind"] == "domain"
    assert "more than 12 variables" in report["error"]["message"]


def test_random_params_budget(capsys):
    # max_gens=100000000 drew up to 10^8 generator degrees
    start = time.perf_counter()
    code, report, _ = run_json(capsys, "random", "--seed", "1", "--params", "max_gens=100000000")
    assert time.perf_counter() - start < 2
    assert code == 1
    assert report["error"]["type"] == "PreconditionError"
    for params in ("m=13", "max_rels=1001", "max_degree=1001"):
        code, report, _ = run_json(capsys, "random", "--seed", "1", "--params", params)
        assert (code, report["error"]["type"]) == (1, "PreconditionError"), params
    # the draws of all --seeds share the budget of one sample: 1,600 seeds at
    # the default max_rels=8 ran past 120 s
    many = ",".join(str(s) for s in range(1600))
    for extra in ([], ["--params", "max_gens=501"], ["--params", "max_rels=501"]):
        seeds = many if not extra else "1,2"
        start = time.perf_counter()
        code, report, _ = run_json(capsys, "random", "--seeds", seeds, *extra)
        assert time.perf_counter() - start < 2, extra
        assert (code, report["error"]["type"]) == (1, "PreconditionError"), extra


def test_exit_1_on_missing_or_malformed_file(tmp_path, capsys):
    code, report, _ = run_json(capsys, "dims", str(tmp_path / "absent.json"))
    assert code == 1
    assert "absent.json" in report["error"]["message"]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report, _ = run_json(capsys, "dims", str(bad))
    assert code == 1
    assert "line 1" in report["error"]["message"]


def test_deeply_nested_json_is_one_domain_envelope(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    code, out, err = run(capsys, "dims", str(deep))
    assert code == 1
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["error"]["kind"] == "domain"
    assert report["error"]["type"] == "ParseError"
    assert "Traceback" not in err


def test_overlong_integer_literal_is_one_domain_envelope(tmp_path, capsys):
    # json.loads raises a plain ValueError past the interpreter's digit limit
    big = tmp_path / "big.json"
    big.write_text('{"characteristic": ' + "1" * 5000 + ', "m": 2, "generators": [], "relations": []}')
    code, out, err = run(capsys, "dims", str(big))
    assert code == 1
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["error"]["kind"] == "domain"
    assert report["error"]["type"] == "ParseError"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["dims", "{}"], ["support", "{}"], ["in-kernel", "samerank_m", "{}"], ["indec", "{}"], ["section-exists", "{}"]],
    ids=lambda argv: argv[0],
)
def test_non_utf8_file_is_one_domain_envelope(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, *(a.format(bad) for a in argv))
    assert code == 1
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["error"]["kind"] == "domain"
    assert report["error"]["type"] == "ParseError"
    assert str(bad) in report["error"]["message"]
    assert "Traceback" not in err


def test_exit_1_on_domain_violations(capsys, tmp_path):
    # quiver window violation
    deep = {
        "characteristic": 5,
        "m": 3,
        "generators": [[0, 0, 0]],
        "relations": [{"degree": [3, 0, 0], "coeffs": [1]}],
    }
    f = tmp_path / "deep.json"
    f.write_text(json.dumps(deep))
    code, report, _ = run_json(capsys, "quiverize", str(f), "-n", "1")
    assert code == 1
    assert report["error"]["kind"] == "domain"
    # mismatched vertex counts
    code, report, _ = run_json(capsys, "in-kernel", "samerank_m", "full:3")
    assert code == 1
    # section solver on a map that never becomes surjective
    nomap = {
        "source": {"characteristic": 5, "m": 2, "generators": [], "relations": []},
        "target": {"characteristic": 5, "m": 2, "generators": [[0, 0]], "relations": []},
        "coeffs": [[]],
    }
    g = tmp_path / "nomap.json"
    g.write_text(json.dumps(nomap))
    code, report, _ = run_json(capsys, "section-exists", str(g))
    assert code == 1
    assert report["error"]["type"] == "NotLocallyEpicError"


def test_in_kernel_routes_agree_on_a_zero_module_with_a_generator(tmp_path, capsys):
    # one generator killed in its own degree: a zero module that has a
    # generator, so the empty face's check must read slices, not generators
    killed = {"characteristic": 5, "m": 2, "generators": [[1, 0]], "relations": [{"degree": [1, 0], "coeffs": [1]}]}
    f = tmp_path / "killed.json"
    f.write_text(json.dumps(killed))
    code, report, _ = run_json(capsys, "in-kernel", str(f), "empty:2")
    assert code == 0
    assert report["result"]["in_kernel"] is report["result"]["by_nilpotence"] is True
    assert report["result"]["agree"] is True


def test_unknown_example_name_is_domain_error(capsys):
    code, report, _ = run_json(capsys, "dims", "no_such_example")
    assert code == 1
    assert "no_such_example" in report["error"]["message"]


def test_envelope_output_feeds_back_as_input(tmp_path, capsys):
    _, out, _ = run(capsys, "face-ring", "skeleton:2:0")
    f = tmp_path / "ring.json"
    f.write_text(out)
    code, report, _ = run_json(capsys, "support", str(f))
    assert code == 0
    assert report["result"] == {"m": 2, "faces": [[], [1], [2]]}


def test_random_is_reproducible_and_loadable(tmp_path, capsys):
    code, report1, _ = run_json(capsys, "random", "--seed", "9")
    code, report2, _ = run_json(capsys, "random", "--seed", "9")
    assert report1["result"] == report2["result"]
    f = tmp_path / "mod.json"
    f.write_text(json.dumps(report1["result"]))
    code, report, _ = run_json(capsys, "dims", str(f))
    assert code == 0


def test_random_seeds_sum_and_shift(capsys):
    _, single, _ = run_json(capsys, "random", "--seed", "1")
    _, summed, _ = run_json(capsys, "random", "--seeds", "1,2")
    n_single = len(single["result"]["generators"])
    assert len(summed["result"]["generators"]) > n_single
    _, shifted, _ = run_json(capsys, "random", "--seed", "1", "--shift", "1,1")
    gens = shifted["result"]["generators"]
    base = single["result"]["generators"]
    assert gens == [[a + 1, b + 1] for a, b in base]


def test_char_option_changes_field(capsys):
    _, report, _ = run_json(capsys, "rank", "samerank_m", "0,0", "1,1", "--char", "7")
    assert report["field"] == "F_7"
    _, report, _ = run_json(capsys, "rank", "samerank_m", "0,0", "1,1", "--char", "0")
    assert report["field"] == "Q"
    code, report, _ = run_json(capsys, "rank", "samerank_m", "0,0", "1,1", "--char", "4")
    assert code == 2


def test_file_characteristic_wins_over_flag(capsys, tmp_path):
    path = str(FIXTURES / "coordinate_cross.json")
    _, report, _ = run_json(capsys, "dims", path, "--char", "7")
    assert report["field"] == "F_5"
    assert report["result"]["characteristic"] == 5
    # a map file has no top-level characteristic, only its two endpoints do
    for char in ("3", "0"):
        _, report, _ = run_json(capsys, "section-exists", str(FIXTURES / "notsplit_map.json"), "--char", char)
        assert report["field"] == "F_5"
    rep = tmp_path / "rep.json"
    rep.write_text(modfile.canonical_json(modfile.rep_to_obj(random_rep(3, n=1, fld=Field(2)))))
    code, report, _ = run_json(capsys, "endo", str(rep), "--char", "7")
    assert code == 0
    assert report["field"] == "F_2"


def test_fixtures_match_named_examples(capsys):
    for fname, ename in (
        ("samerank_M.json", "samerank_m"),
        ("samerank_N.json", "samerank_n"),
        ("m3_indecomposable.json", "m3_indecomposable"),
        ("coordinate_cross.json", "coordinate_cross"),
    ):
        obj = modfile.loads((FIXTURES / fname).read_text(), source=fname)
        assert modfile.module_from_obj(obj) == named_example(ename)
    for fname, ename in (
        ("notsplit_map.json", "notsplit_map"),
        ("split_projection_map.json", "split_projection"),
    ):
        obj = modfile.loads((FIXTURES / fname).read_text(), source=fname)
        assert modfile.map_from_obj(obj) == named_example(ename)


def test_decompose_fixture_from_file(capsys):
    code, report, _ = run_json(capsys, "decompose", str(FIXTURES / "samerank_M.json"))
    assert code == 0
    assert report["result"]["quadrants"] == [
        {"corner": [0, 0], "mult": 1},
        {"corner": [1, 1], "mult": 1},
    ]
    assert report["result"]["vertical_strips"] == []
    assert report["result"]["horizontal_strips"] == []


def test_decompose_same_as_and_reconstruct(capsys, tmp_path):
    code, report, _ = run_json(
        capsys,
        "decompose",
        str(FIXTURES / "samerank_M.json"),
        "--same-as",
        str(FIXTURES / "samerank_N.json"),
        "--reconstruct",
    )
    assert code == 0
    assert report["result"]["equivalent"] is False
    recon = report["result"]["reconstruction"]
    f = tmp_path / "recon.json"
    f.write_text(json.dumps(recon))
    code, again, _ = run_json(capsys, "decompose", str(f))
    assert again["result"]["quadrants"] == report["result"]["quadrants"]


def test_decompose_same_as_a_module_of_other_m_is_one_envelope(capsys):
    # `decompose` refuses the second module's m as it refuses the first's
    code, out, err = run(
        capsys, "decompose", str(FIXTURES / "samerank_M.json"), "--same-as", str(FIXTURES / "m3_indecomposable.json")
    )
    assert code == 1
    report = json.loads(out)
    assert report["error"] == {
        "kind": "domain",
        "message": "operation needs m = 2, module has m = 3",
        "type": "PreconditionError",
    }
    assert set(report) == {"command", "error", "format"}
    assert "Traceback" not in err


def _over_f7(tmp_path, fixture):
    path = tmp_path / f"f7-{fixture}"
    path.write_text(json.dumps(dict(json.loads((FIXTURES / fixture).read_text()), characteristic=7)))
    return str(path)


@pytest.mark.parametrize("fixture", ["samerank_N.json", "m3_indecomposable.json"])
def test_decompose_same_as_a_module_over_another_field_is_refused(capsys, tmp_path, fixture):
    # the fields are compared before the second module is decomposed, so an
    # m = 3 module over F_7 meets the field check, not the m = 3 refusal
    code, out, err = run(
        capsys, "decompose", str(FIXTURES / "samerank_M.json"), "--same-as", _over_f7(tmp_path, fixture)
    )
    assert code == 1
    report = json.loads(out)
    assert report["error"] == {
        "kind": "domain",
        "message": "modules over different fields",
        "type": "AmbientMismatchError",
    }
    assert set(report) == {"command", "error", "format"}
    assert "Traceback" not in err


def test_decompose_same_as_decomposes_each_module_once(capsys, monkeypatch):
    from persloc import twoparam

    calls = []
    decompose = twoparam.decompose

    def counting(module):
        calls.append(module)
        return decompose(module)

    monkeypatch.setattr(twoparam, "decompose", counting)
    code, report, _ = run_json(
        capsys, "decompose", str(FIXTURES / "samerank_M.json"), "--same-as", str(FIXTURES / "samerank_N.json")
    )
    assert code == 0 and report["result"]["equivalent"] is False
    assert len(calls) == 2 and calls[0] != calls[1]


def test_kdim_shorthand(capsys):
    code, report, _ = run_json(capsys, "kdim", "skeleton:3:0")
    assert code == 0
    assert report["result"]["kdim"] == 1


def test_verify_paper_exit_codes(capsys):
    code, report, err = run_json(capsys, "verify-paper")
    assert code == 0
    assert report["result"]["all_ok"] is True
    # one stderr line per check, in registry order, then the total
    lines = err.splitlines()
    ids = [c["id"] for c in report["result"]["checks"]]
    assert [line.partition("=")[0] for line in lines] == [f"check_ms {cid}" for cid in ids] + ["elapsed_ms"]
    assert all(line.partition("=")[2].isdigit() for line in lines)
    code, report, _ = run_json(capsys, "verify-paper", "--list")
    assert code == 0
    assert len(report["result"]["checks"]) == 7


def test_quiver_commands_roundtrip(tmp_path, capsys):
    code, report, _ = run_json(capsys, "quiverize", "m3_indecomposable", "-n", "2")
    assert code == 0
    rep_obj = report["result"]["rep"]
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(rep_obj))
    code, endo, _ = run_json(capsys, "endo", str(f))
    assert code == 0
    assert endo["result"]["dimension"] == 1
    code, indec, _ = run_json(capsys, "indec", str(f))
    assert indec["result"]["verdict"] == "yes"
    code, indec2, _ = run_json(capsys, "indec", "m3_indecomposable", "-n", "2")
    assert indec2["result"] == indec["result"]
    # the raw quiverize report itself is also accepted, envelope and all
    g = tmp_path / "quiverize_report.json"
    g.write_text(json.dumps(report))
    code, endo2, _ = run_json(capsys, "endo", str(g))
    assert code == 0
    assert endo2["result"] == endo["result"]
    code, legs, _ = run_json(capsys, "split-legs", str(g))
    assert code == 0
    assert legs["result"]["torsion"] is False
    # -n conflicting with the file's leg length is a usage error
    code, _, _ = run_json(capsys, "endo", str(f), "-n", "3")
    assert code == 2


def test_split_legs_on_sink_zero_module(capsys, tmp_path):
    strip = {
        "characteristic": 5,
        "m": 3,
        "generators": [[0, 0, 0]],
        "relations": [{"degree": [1, 0, 0], "coeffs": [1]}],
    }
    f = tmp_path / "strip.json"
    f.write_text(json.dumps(strip))
    code, report, _ = run_json(capsys, "split-legs", str(f), "-n", "2")
    assert code == 0
    assert report["result"]["torsion"] is True
    assert report["result"]["legs"][0] == [{"start": 0, "end": 1, "mult": 1}]
    code, report, _ = run_json(capsys, "split-legs", "m3_indecomposable", "-n", "2")
    assert report["result"]["torsion"] is False


def test_indec_over_a_large_prime_is_bounded(capsys, tmp_path):
    # End of the level-3 tube is k[N]/(N^3): 101^3 elements over F_101, too many to
    # enumerate; Berlekamp's count of the Frobenius fixed space reads off that End is local
    f = tmp_path / "tube.json"
    f.write_text(modfile.canonical_json(modfile.rep_to_obj(_tube(101, 3))))
    start = time.perf_counter()
    code, report, _ = run_json(capsys, "indec", str(f))
    assert time.perf_counter() - start < 2
    assert code == 0
    assert report["result"]["verdict"] == "yes"
    assert report["result"]["endo_dim"] == 3


def test_endomorphism_budget(capsys, tmp_path):
    # the level-13 tube has 4,056 End unknowns; solving them took 14 s
    f = tmp_path / "tube.json"
    f.write_text(modfile.canonical_json(modfile.rep_to_obj(_tube(2, 13))))
    for command in ("indec", "endo"):
        start = time.perf_counter()
        code, report, _ = run_json(capsys, command, str(f))
        assert time.perf_counter() - start < 2, command
        assert code == 1, command
        assert report["error"]["type"] == "PreconditionError"
        assert "4056 unknowns" in report["error"]["message"]


def test_barcode_and_sigma_options(capsys):
    code, report, _ = run_json(capsys, "barcode", "coordinate_cross", "--axis", "1")
    assert report["result"]["bars"] == [{"start": 0, "end": 1, "mult": 1}]
    code, report, _ = run_json(
        capsys, "dims", "coordinate_cross", "--sigma", "1", "--box", "1,1"
    )
    assert code == 0
    dims = {tuple(row["degree"]): row["dim"] for row in report["result"]["dims"]}
    assert dims[(0, 0)] == 1 and dims[(1, 1)] == 0
    # with t1 inverted the cross is torsion in t2: alive at 0, dead by 1
    code, report, _ = run_json(
        capsys, "rank", "coordinate_cross", "0,0", "0,0", "--sigma", "1"
    )
    assert report["result"]["rank"] == 1
    code, report, _ = run_json(
        capsys, "rank", "coordinate_cross", "0,0", "0,3", "--sigma", "1"
    )
    assert report["result"]["rank"] == 0


def test_simples_and_serre_step_cli(capsys):
    code, report, _ = run_json(capsys, "simples", "skeleton:3:0")
    assert code == 0
    assert len(report["result"]["simples"]) == 3
    code, report, _ = run_json(capsys, "serre-step", "skeleton:3:0")
    assert report["result"]["added_faces"] == [[1, 2], [1, 3], [2, 3]]
    code, report, _ = run_json(capsys, "serre-step", "empty:3", "--iterate")
    assert report["result"]["steps"] == 4


def test_ibar_cli(capsys):
    code, report, _ = run_json(capsys, "ibar", "samerank_m", "1,0", "0,1", "1,1")
    assert report["result"]["rank"] == 1
    code, report, _ = run_json(capsys, "ibar", "samerank_n", "1,0", "0,1", "1,1")
    assert report["result"]["rank"] == 0


def test_delocalize_cli(capsys):
    code, report, _ = run_json(capsys, "delocalize", "coordinate_cross", "--box", "1,1")
    dims = {tuple(r["degree"]): r["dim"] for r in report["result"]["dims"]}
    assert dims[(0, 0)] == 2
    assert dims[(1, 1)] == 0


def test_reader_closing_early_prints_no_traceback():
    # `persloc dims samerank_m --box 300,300 | head -c 10`: the report is far
    # larger than a pipe holds, so the final print meets a closed pipe
    with subprocess.Popen(
        [sys.executable, "-m", "persloc", "dims", "samerank_m", "--box", "300,300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=SRC_ENV,
    ) as proc:
        assert proc.stdout.read(10) == b'{"command"'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err


# Run cli.main in a fresh interpreter, then name the persloc submodules of
# argv[1] (comma-separated) that have run: an executed module is a plain
# ModuleType, while one still waiting for first use is not (type() does not
# trigger the load) or is absent.
_EXECUTED_AFTER_MAIN = """
import contextlib, io, sys, types
from persloc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
names = sys.argv[1].split(",")
print(code, [n for n in names if type(sys.modules.get("persloc." + n)) is types.ModuleType])
"""


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["dims", str(FIXTURES / "coordinate_cross.json")], ["quiver", "complexes", "twoparam", "verify", "svgplot"]),
        (["indec", str(FIXTURES / "m3_indecomposable.json"), "-n", "2"], ["twoparam", "verify", "svgplot"]),
        (["verify-paper", "--list"], ["complexes", "quiver", "twoparam", "svgplot"]),
        (
            ["decompose", str(FIXTURES / "samerank_M.json"), "--reconstruct"],
            ["examples", "quiver", "verify", "svgplot"],
        ),
    ],
)
def test_a_command_runs_only_the_modules_it_uses(argv, unused):
    probe = ",".join(["cli", "modfile", *unused])
    proc = subprocess.run(
        [sys.executable, "-c", _EXECUTED_AFTER_MAIN, probe, *argv],
        capture_output=True,
        text=True,
        env=SRC_ENV,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the probe does see the modules the command ran
    assert proc.stdout.strip() == "0 ['cli', 'modfile']"


# Run cli.main in a fresh interpreter, then name the modules of argv[1]
# (comma-separated) that persloc imported: those loaded since just before
# `from persloc import cli`, so what the interpreter's start-up (`site` and
# its hooks) loaded does not count.
_IMPORTED_BY_PERSLOC = """
import contextlib, io, sys
before = set(sys.modules)
from persloc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(code, [n for n in sys.argv[1].split(",") if n in sys.modules and n not in before])
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", str(FIXTURES / "coordinate_cross.json")],
        ["indec", str(FIXTURES / "m3_indecomposable.json"), "-n", "2"],
        ["verify-paper"],  # runs every submodule
    ],
)
def test_a_command_imports_neither_dataclasses_nor_inspect(argv):
    # the two cost more start-up than anything else persloc could import
    probe = ",".join(["persloc.cli", "dataclasses", "inspect"])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTED_BY_PERSLOC, probe, *argv],
        capture_output=True,
        text=True,
        env=SRC_ENV,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the probe does see a module persloc imported
    assert proc.stdout.strip() == "0 ['persloc.cli']"
