"""Regenerate the stored answers under ``expected/`` from the library.

Run from the repository root:

    python3 perfbench/make_expected.py

It evaluates every pool entry the workloads can draw and writes one JSON
file per workload.  The answers are the gate, so regenerate them only when a
change is meant to alter an invariant, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from run import load_library  # noqa: E402


def write(name: str, entries: dict) -> None:
    """One entry per line, so a regeneration diff reads entry by entry."""
    lines = []
    for section, items in entries.items():
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in items.items())
        lines.append(f"{json.dumps(section)}: {{\n{body}\n}}")
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    (wl.EXPECTED_DIR / f"{name}.json").write_text(text, encoding="utf-8")


def decompose_m2(lib) -> None:
    out = {"small": {}, "medium": {}, "large": {}}
    for kind, params, seeds in (
        ("small", wl.SMALL, range(wl.SMALL_POOL)),
        ("medium", wl.MEDIUM, range(wl.MEDIUM_POOL)),
        ("large", wl.LARGE, [wl.LARGE_SEED]),
    ):
        for i in seeds:
            module = wl.presentation(lib, params, i)
            deco = lib.twoparam.decompose(module)
            out[kind][str(i)] = {"shape": wl.module_shape(module), "deco": wl.deco_obj(deco)}
    write("decompose_m2", out)


def quiver_m3(lib) -> None:
    out = {"m3": {}, "rep": {}, "tube": {}}
    bench = wl.QuiverM3({"m3": {}, "rep": {}})
    for i in range(wl.M3_POOL):
        module = wl.presentation(lib, wl.M3, i)
        job = wl.Job("m3", f"m3:{i}", (module, lib.complexes.random_complex(i, 3)), modules=[module])
        out["m3"][str(i)] = {"shape": wl.module_shape(module), "invariants": wl.m3_invariants(bench.run(lib, job))}
    for i in range(wl.REP_POOL):
        rep = lib.quiver.random_rep(i, n=3)
        res = lib.quiver.is_indecomposable(rep)
        out["rep"][str(i)] = {"shape": wl.rep_shape(rep), "indec": [res.verdict, res.endo_dim]}
    for p, level in wl.TUBES:
        res = lib.quiver.is_indecomposable(wl.tube_rep(lib, p, level))
        out["tube"][f"{p}-{level}"] = {"indec": [res.verdict, res.endo_dim]}
    write("quiver_m3", out)


def cli_small(lib) -> None:
    (wl.RUN_DIR / "cli").mkdir(parents=True, exist_ok=True)
    argvs = list(wl.CLI_FIXED)
    for kind, params, pool, make in (
        ("small", wl.SMALL, wl.CLI_SMALL_POOL, wl.cli_argvs),
        ("m3", wl.M3, wl.CLI_M3_POOL, wl.cli_m3_argvs),
    ):
        for i in range(pool):
            module = wl.presentation(lib, params, i)
            argvs += make(wl.write_module_file(lib, kind, i, module), module, i)
    bench = wl.CliSmall({"commands": {}})
    out = {}
    for argv in argvs:
        code, stdout, stderr = bench.run_in_process(lib, wl.Job("cli", " ".join(argv), argv=argv))
        if code != 0:
            raise SystemExit(f"persloc {' '.join(argv)} exited {code}: {stderr}")
        if argv[0] in wl.VERDICT_COMMANDS:
            result = json.loads(stdout)["result"]
            entry = {"verdict": wl.cli_verdict(argv, result)}
            if argv[0] == "indec":
                entry["total_dim"] = lib.quiver.to_quiver_rep(
                    lib.modfile.module_from_obj(json.loads(Path(argv[1]).read_text())), int(argv[3])
                ).total_dim()
        else:
            entry = {"sha256": wl.sha256(stdout)}
        out[" ".join(argv)] = entry
    write("cli_small", {"commands": out})


def main() -> int:
    os.chdir(wl.BENCH_DIR.parent)
    wl.EXPECTED_DIR.mkdir(exist_ok=True)
    lib = load_library(("persloc", "persloc.cli"))
    for make in (decompose_m2, quiver_m3, cli_small):
        make(lib)
        print(f"wrote {wl.EXPECTED_DIR / make.__name__}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
