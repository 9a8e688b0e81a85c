"""The persloc benchmark: one closed-loop workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload decompose_m2 --seed 1 --seconds 30 --trace 0

One client runs jobs back to back, one job (or one ``persloc`` subprocess)
in flight, over whole blocks of the workload's mix until ``--seconds`` have
passed and at least ``MIN_JOBS`` jobs ran.  Every job's output is checked
against the stored answers.  Times are reported at a reference machine
speed, set by a calibration loop timed next to every job (see
``at_reference_speed``).  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
run times each job of one block untraced and with spans around every layer,
and reports the per-layer metrics.  Any failed job makes the exit
code 1.  See ``perfbench/README.md`` for the metrics and what each should
move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import workloads as wl
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 3  # at least; more while they total under SETUP_MIN_S
SETUP_MIN_S = 1.5
SETUP_MAX_REPS = 15
MIN_JOBS = 100  # job_ms.p90 keeps at least ten samples beyond it
# Machine-speed calibration.  On a shared virtual machine the CPU's speed
# drifts by up to half within minutes (other tenants, clock changes), and
# every time the benchmark takes drifts with it.  So just before each timed
# job the client times a fixed pure-Python loop where the job runs: in this
# process, or for a subprocess job in a fresh ``python -S`` child (process
# start-up and the child's CPU, which the client's own loop does not track).
# A sample is its time over the reference time, and each time is reported at
# the reference speed: divided by the median of the CAL_WINDOW samples on
# each side of it.  The loop calls nothing in persloc, so no change to the
# program can move it.
CAL_SOURCE = """
def loop():
    acc, seen = 0, {}
    for _ in range(12):
        for a in range(1, 400):
            acc = (acc * 31 + a * a) % 10007
            seen[a & 63] = acc
loop()
"""
CAL_CODE = compile(CAL_SOURCE, "<calibration>", "exec")
CAL_REF_S = 1e-3  # the loop in this process at the reference speed
CAL_CHILD_REF_S = 16e-3  # a child that runs it, start to exit
CAL_WINDOW = 5
LIB_MODULES = ("fields", "presentation", "localization", "twoparam", "complexes", "quiver", "modfile", "cli")


def load_library(names) -> SimpleNamespace:
    """Import persloc from this checkout afresh and return its submodules.

    Earlier imports are dropped first, so every set-up repetition pays the
    import again.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "persloc" or n.startswith("persloc.")]:
        del sys.modules[name]
    for name in names:
        importlib.import_module(name)
    pkg = sys.modules["persloc"]
    if Path(pkg.__file__).resolve().parent != SRC / "persloc":
        raise RuntimeError(f"imported persloc from {pkg.__file__}, not from {SRC}")
    lib = SimpleNamespace(**{n: sys.modules.get(f"persloc.{n}") for n in LIB_MODULES})
    lib.child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return lib


def in_process_sample() -> float:
    """The calibration loop's time in this process, over CAL_REF_S."""
    t0 = time.perf_counter()
    exec(CAL_CODE, {})
    return (time.perf_counter() - t0) / CAL_REF_S


def child_sample() -> float:
    """Time to start ``python -S``, run the calibration loop in it and exit, over CAL_CHILD_REF_S."""
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls at doubling intervals and the
    # sample lands on 16 or 32 ms.  The loop is fixed and always ends.
    subprocess.run([sys.executable, "-S", "-c", CAL_SOURCE], check=True)
    return (time.perf_counter() - t0) / CAL_CHILD_REF_S


def at_reference_speed(times: list, cal: list) -> list:
    """Each time divided by the median of its nearby calibration samples."""
    w = CAL_WINDOW
    return [t / statistics.median(cal[max(0, i - w) : i + w + 1]) for i, t in enumerate(times)]


@dataclass
class Phase:
    calibrate: Callable[[], float]  # in_process_sample or child_sample, where the jobs run
    times: list = field(default_factory=list)  # wall seconds per job, as measured
    cal: list = field(default_factory=list)  # the calibration sample taken just before each job
    failures: list = field(default_factory=list)
    elapsed: float = 0.0
    blocks: int = 0

    @property
    def jobs(self) -> int:
        return len(self.times)

    def end_to_end(self) -> dict:
        """Job metrics at the reference speed; jobs_per_s over the summed job times."""
        times = at_reference_speed(self.times, self.cal)
        return {
            "jobs_per_s": self.jobs / sum(times),
            "job_ms.p50": statistics.median(times) * 1000,
            "job_ms.p90": statistics.quantiles(times, n=10)[8] * 1000,
        }

    def as_measured(self) -> dict:
        """The same metrics from the raw wall times; jobs_per_s over the elapsed time."""
        return {
            "jobs_per_s": self.jobs / self.elapsed,
            "job_ms.p50": statistics.median(self.times) * 1000,
            "job_ms.p90": statistics.quantiles(self.times, n=10)[8] * 1000,
            "calibration.p50": statistics.median(self.cal),
        }


def time_job(bench, lib, job, execute, phase: Phase, after_job=None) -> None:
    """Run one job on fresh inputs, time it, check it, record it in `phase`."""
    bench.fresh(lib, job)
    phase.cal.append(phase.calibrate())
    t0 = time.perf_counter()
    try:
        out = execute(lib, job)
        error = None
    except Exception as exc:  # a job that raises is a failed job
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    phase.times.append(seconds)
    if error is None:
        try:
            error = bench.check(job, out)
        except Exception as exc:  # malformed output is a failed job
            error = f"output check raised {type(exc).__name__}: {exc}"
    if error:
        phase.failures.append(f"{job.key}: {error}")
    elif after_job is not None:
        after_job(job, out, seconds)
    job.modules = []


def run_phase(bench, lib, blocks, seconds, min_jobs, execute, calibrate, after_job=None) -> Phase:
    """Closed loop over whole blocks until `seconds` passed and `min_jobs` ran."""
    phase = Phase(calibrate)
    start = time.perf_counter()
    while True:
        for job in blocks[phase.blocks % len(blocks)]:
            time_job(bench, lib, job, execute, phase, after_job)
        phase.blocks += 1
        phase.elapsed = time.perf_counter() - start
        if phase.elapsed >= seconds and phase.jobs >= min_jobs:
            return phase


def run_pairs(bench, lib, block, execute, tracer, after_traced) -> tuple[Phase, Phase]:
    """Each job of the block untraced and traced, back to back.

    The order alternates from job to job.  Pairing cancels the drift in
    machine speed, which on a shared virtual machine exceeds the tracing
    overhead; elapsed is then the sum of job times on each side.
    """
    plain, traced = Phase(in_process_sample, blocks=1), Phase(in_process_sample, blocks=1)

    def run_traced(lib_, job):
        return tracer.run_job(job.kind, lambda: execute(lib_, job))

    for n, job in enumerate(block):
        for tracing in (False, True) if n % 2 == 0 else (True, False):
            if tracing:
                with tracer.installed():
                    time_job(bench, lib, job, run_traced, traced, after_traced)
            else:
                time_job(bench, lib, job, execute, plain)
    plain.elapsed, traced.elapsed = sum(plain.times), sum(traced.times)
    return plain, traced


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup(bench, seed):
    """Import, input generation and sanity checks, repeated; median time.

    A cheap set-up is repeated until the repetitions total SETUP_MIN_S, so
    its median rests on enough samples to be steady.  Each repetition is
    reported at the reference speed, by the calibration samples taken just
    before and after it.
    """
    raw, samples = [], []
    while len(raw) < SETUP_REPS or (sum(raw) < SETUP_MIN_S and len(raw) < SETUP_MAX_REPS):
        lib = blocks = None  # let the previous repetition's objects go first
        gc.collect()
        cal = [in_process_sample() for _ in range(CAL_WINDOW)]
        t0 = time.perf_counter()
        lib = load_library(bench.library)
        blocks = bench.setup(lib, seed)
        raw.append(time.perf_counter() - t0)
        cal += [in_process_sample() for _ in range(CAL_WINDOW)]
        samples.append(raw[-1] / statistics.median(cal))
    # The prepared inputs and stored answers live for the whole run; keep the
    # collector from rescanning them inside timed jobs.
    gc.collect()
    gc.freeze()
    return lib, blocks, statistics.median(samples), samples, raw


def describe(label: str, phase: Phase) -> None:
    e2e = phase.end_to_end()
    beyond = sum(t * 1000 > e2e["job_ms.p90"] for t in at_reference_speed(phase.times, phase.cal))
    print(
        f"{label}: {phase.blocks} block(s), {phase.jobs} jobs in {phase.elapsed:.2f} s; "
        f"job_ms samples {phase.jobs} ({beyond} beyond p90); failed {len(phase.failures)}"
    )
    print("  as measured: " + ", ".join(f"{k} {v:.4f}" for k, v in phase.as_measured().items()))
    for failure in phase.failures[:20]:
        print(f"  FAILED {failure}")


def timed_run(bench, lib, blocks, seconds) -> tuple[dict, list]:
    calibrate = child_sample if bench.subprocesses else in_process_sample
    phase = run_phase(bench, lib, blocks, seconds, MIN_JOBS, bench.run, calibrate)
    describe("timed phase", phase)
    metrics = phase.end_to_end()
    metrics["peak_rss_mb"] = peak_rss_mb(children=bench.subprocesses)
    metrics["ok_frac"] = 1 - len(phase.failures) / phase.jobs
    print(f"  failed_frac {len(phase.failures) / phase.jobs:.4f} ({len(phase.failures)} of {phase.jobs})")
    return metrics, [phase]


def traced_run(bench, lib, blocks) -> tuple[dict, list]:
    first = blocks[:1]
    phases = []  # the subprocess block (cli_small), the untraced and the traced jobs
    extra: dict[str, float] = {}
    if bench.subprocesses:
        samples = []
        sub = run_phase(
            bench, lib, first, 0, 0, bench.run, child_sample, lambda job, out, sec: samples.append((sec, out[2]))
        )
        describe("untraced subprocess block", sub)
        phases.append(sub)
        extra = cli_timings(samples)
        execute = bench.run_in_process
    else:
        execute = bench.run
    tracer = Tracer()
    counters = {"quiver.enum.candidates": 0}
    large: dict[str, int] = {}

    def after_job(job, out, _seconds):
        counters["quiver.enum.candidates"] += bench.enum_candidates(job, out)
        if job.kind == "large":
            module = job.modules[0]
            calls, pairs = tracer.job_rank_pairs[id(module)]
            large.update(calls=calls, distinct=len(pairs), slices=len(module._slices))

    base, traced = run_pairs(bench, lib, first[0], execute, tracer, after_job)
    describe("untraced jobs (sum of job times)", base)
    describe("traced jobs (sum of job times)", traced)
    phases += [base, traced]
    wl.RUN_DIR.mkdir(exist_ok=True)
    spans_path = wl.RUN_DIR / f"spans-{bench.name}.csv.gz"
    print(f"spans: {tracer.write(spans_path)} written to {spans_path.relative_to(ROOT)}")

    plain, with_spans = base.end_to_end(), traced.end_to_end()
    overhead = traced.elapsed / base.elapsed - 1
    print(f"{'metric':<14}{'untraced':>12}{'traced':>12}")
    for name in plain:
        print(f"{name:<14}{plain[name]:>12.4f}{with_spans[name]:>12.4f}")
    print(f"tracing overhead on {bench.name}: {overhead * 100:.1f}% of the untraced job time")
    if large:
        print(
            f"ROADMAP large input (seed 11, 60/100/40), first decompose: rank_invariant calls "
            f"{large['calls']}, distinct (a, b) pairs {large['distinct']}, slices built {large['slices']}"
        )

    metrics = tracer.layer_metrics()
    metrics["presentation.rank_invariant.distinct_frac"] = (
        tracer.rank_distinct / tracer.rank_calls if tracer.rank_calls else 0.0
    )
    metrics["fields._rref.cells"] = tracer.rref_cells
    metrics["fields._rref.max_cells"] = tracer.rref_max_cells
    metrics["presentation.slices_built"] = tracer.slices_built
    metrics.update(counters)
    for name in ("process_ms", "reported_ms", "startup_ms"):
        metrics[f"cli.{name}.p50"] = extra.get(name, 0.0)
    metrics["large_input.rank_invariant.calls"] = large.get("calls", 0)
    metrics["large_input.rank_invariant.distinct"] = large.get("distinct", 0)
    metrics["large_input.slices_built"] = large.get("slices", 0)
    metrics["trace.overhead_frac"] = overhead
    return metrics, phases


def cli_timings(phase_jobs: list) -> dict:
    """Medians of subprocess wall time, the CLI's own elapsed_ms, and their gap.

    elapsed_ms is truncated to whole milliseconds, so each value stands for
    the interval [k, k+1) and its median is interpolated within it.
    """
    process = [seconds * 1000 for seconds, _ in phase_jobs]
    reported = []
    for _, stderr in phase_jobs:
        ms = [int(line.split("=", 1)[1]) for line in stderr.splitlines() if line.startswith("elapsed_ms=")]
        reported.append(ms[-1] + 0.5)
    return {
        "process_ms": statistics.median(process),
        "reported_ms": statistics.median_grouped(reported, interval=1),
        "startup_ms": statistics.median(p - r for p, r in zip(process, reported)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--expected-dir", type=Path, default=None, help="read stored answers from here (gate self-test)"
    )
    args = parser.parse_args(argv)

    if not (SRC / "persloc" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no persloc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    expected = wl.load_expected(args.workload, args.expected_dir or wl.EXPECTED_DIR)
    bench = wl.WORKLOADS[args.workload](expected)
    try:
        lib, blocks, setup_s, samples, raw = setup(bench, args.seed)
    except wl.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"workload {bench.name}, seed {args.seed}: closed loop, 1 client, 1 job in flight; "
        f"set-up {' '.join(f'{s:.3f}' for s in samples)} s at reference speed (median {setup_s:.3f}), "
        f"{' '.join(f'{s:.3f}' for s in raw)} s as measured"
    )
    if args.trace:
        values, phases = traced_run(bench, lib, blocks)
    else:
        values, phases = timed_run(bench, lib, blocks, args.seconds)
        values["setup_s"] = setup_s
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    attempted = sum(p.jobs for p in phases)
    failed = sum(len(p.failures) for p in phases)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
