"""Self-test of the benchmark's correctness gate.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it copies the stored answers, corrupts one answer that
every block of jobs uses, and runs the benchmark against the copy.  The gate
works if the job is counted as failed, the result line says
``"correct": false`` and the command exits non-zero.  Exits 0 when all three
workloads behave so.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads as wl


def _bump_large(expected: dict) -> str:
    expected["large"][str(wl.LARGE_SEED)]["deco"]["q"].append([99, 99, 1])
    return f"large:{wl.LARGE_SEED}"


def _bump_tube(expected: dict) -> str:
    expected["tube"]["5-2"]["indec"] = ["yes", 3]
    return "tube:5-2"


def _flip_verify_paper(expected: dict) -> str:
    expected["commands"]["verify-paper"]["verdict"]["all_ok"] = False
    return "verify-paper"


CORRUPTIONS = {"decompose_m2": _bump_large, "quiver_m3": _bump_tube, "cli_small": _flip_verify_paper}


def check(workload: str, corrupt) -> list[str]:
    directory = wl.RUN_DIR / "selftest"
    directory.mkdir(parents=True, exist_ok=True)
    expected = wl.load_expected(workload)
    key = corrupt(expected)
    (directory / f"{workload}.json").write_text(json.dumps(expected), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(wl.BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0", "--expected-dir", str(directory)],
        capture_output=True, text=True, timeout=600, cwd=wl.BENCH_DIR.parent,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0 despite a wrong stored answer")
    if result.get("correct") is not False or not result.get("failed"):
        problems.append(f"result line does not report the failure: {lines[-1:] or proc.stderr[-300:]}")
    if not any(line.startswith(f"  FAILED {key}: ") for line in lines):
        problems.append(f"no FAILED line for {key}")
    return problems


def main() -> int:
    ok = True
    for workload, corrupt in CORRUPTIONS.items():
        problems = check(workload, corrupt)
        ok = ok and not problems
        print(f"{workload}: {'gate ok' if not problems else 'GATE BROKEN: ' + '; '.join(problems)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
