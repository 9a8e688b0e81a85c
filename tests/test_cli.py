"""Command-line behavior: envelopes, exit codes, determinism, coverage."""

import json
import time
from pathlib import Path

import pytest

import persloc
from persloc import cli, modfile
from persloc.examples import named_example


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


def test_box_limits_of_dims_and_delocalize(capsys):
    # a negative limit used to print an empty table and a huge one ran unbounded
    for argv in (["dims", "samerank_m", "--box=-1,-1", "--sigma", "1"], ["delocalize", "samerank_m", "--box=0,-1"]):
        code, report, _ = run_json(capsys, *argv)
        assert code == 2, argv
        assert report["error"]["type"] == "UsageError"
    for argv in (["dims", "samerank_m", "--box", "3000,3000"], ["delocalize", "samerank_m", "--box", "100000,0"]):
        code, report, _ = run_json(capsys, *argv)
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


def test_file_characteristic_wins_over_flag(capsys):
    path = str(FIXTURES / "coordinate_cross.json")
    _, report, _ = run_json(capsys, "dims", path, "--char", "7")
    assert report["field"] == "F_5"
    assert report["result"]["characteristic"] == 5


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


def test_kdim_shorthand(capsys):
    code, report, _ = run_json(capsys, "kdim", "skeleton:3:0")
    assert code == 0
    assert report["result"]["kdim"] == 1


def test_verify_paper_exit_codes(capsys):
    code, report, _ = run_json(capsys, "verify-paper")
    assert code == 0
    assert report["result"]["all_ok"] is True
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
