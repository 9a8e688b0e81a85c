"""Workload definitions: seeded inputs, the job each input runs, and the gate.

Every workload is a closed loop: one client runs jobs back to back with one
job (or one ``persloc`` subprocess) in flight.  Inputs come from fixed pools
of generator seeds whose expected invariants are stored under ``expected/``;
the workload seed only chooses which pool entries a block of jobs uses and in
what order, so any seed has stored answers.  Every timed job gets module
objects no earlier job has touched, because the slice and transition caches
live on the module and a user pays to fill them.

Why each workload exists:

``decompose_m2``
    Strip/quadrant decomposition along the size ladder.  Each job runs
    ``decompose``, ``reconstruct`` and ``decompose`` again.  It exercises the
    Moebius barcode route (``rank_invariant`` through ``localized_barcode``)
    and ``intersection_table``: the measured hot spot, and a cache-hit-heavy
    use of ``presentation`` (many repeated (a, b) rank queries).  The small
    rung sets ``job_ms.p50``; the medium block and the large input set
    ``job_ms.p90`` and ``jobs_per_s``, so a change that speeds up big modules
    but adds per-module overhead shows.
``quiver_m3``
    Support complexes, the two in-kernel routes, quiver conversion and
    certified indecomposability.  It never evaluates a barcode, so it is the
    bypass case for barcode work; it loads the field kernel with wide
    matrices (commutation kernels, ``Matrix.mul`` in the Fitting and
    idempotent tests), asks for transitions at many distinct degrees (the
    cache-miss-heavy use of ``presentation``), and holds the p^dim(End)
    enumeration in the homogeneous-tube jobs.
``cli_small``
    Sequential ``python -m persloc`` subprocesses on the fixtures and small
    generated module files.  The only workload through ``cli`` and
    ``modfile``: argument parsing, file validation, canonical JSON and the
    digest.  Start-up and imports dominate, so it catches import-time and
    serialization regressions and predicts no change from compute-only work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"
RUN_DIR = BENCH_DIR / "_run"

# Pools: (m, max_gens, max_rels, max_degree) and the number of generator
# seeds 0..size-1 with stored answers.  The small rung is the acceptance
# corpus shape (corpus200 is its first 200 seeds).  The ROADMAP large input is
# in every block.  Medium job times spread so widely that a seeded draw of a
# few dozen moved jobs_per_s and job_ms.p90 by about 20% between seeds, so
# the medium inputs are the same for every seed: block k takes those of even
# size rank in the pool when k is even, of odd rank when k is odd.
SMALL = (2, 5, 8, 6)
SMALL_POOL = 1000
MEDIUM = (2, 20, 30, 20)
MEDIUM_POOL = 40
LARGE_SEED = 11
LARGE = (2, 60, 100, 40)
M3 = (3, 6, 8, 3)
M3_POOL = 400
REP_POOL = 400
TUBES = ((5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (7, 4))  # (p, L)
CLI_SMALL_POOL = 100
CLI_M3_POOL = 60

# Jobs per block.  A run executes whole blocks, so every run sees the same
# mix; block k of a run draws its own pool entries, stratified by input size
# (see `stratified`), and its own job order.  A block takes 5-9 s on a 2-vCPU
# virtual machine, so a run of 30 s holds four blocks or more.  In a
# decompose_m2 block (121 jobs) the median falls among the small inputs and
# the 90th percentile among the medium ones.
DECOMPOSE_BLOCK = {"small": 100}
QUIVER_BLOCK = {"m3": 110, "rep": 110}
CLI_BLOCK = {"small": 3, "m3": 3}
PREPARED_BLOCKS = 6

CLI_FIXED = (
    ("decompose", "fixtures/samerank_M.json", "--same-as", "fixtures/samerank_N.json"),
    ("barcode", "fixtures/coordinate_cross.json", "--axis", "1"),
    ("dims", "fixtures/coordinate_cross.json"),
    ("support", "fixtures/coordinate_cross.json"),
    ("delocalize", "fixtures/coordinate_cross.json"),
    ("indec", "fixtures/m3_indecomposable.json", "-n", "2"),
    ("section-exists", "fixtures/notsplit_map.json"),
    ("section-exists", "fixtures/split_projection_map.json"),
    ("verify-paper",),
)
CLI_TIMEOUT_S = 120


class SetupError(Exception):
    """Generated inputs disagree with the stored pool they were drawn from."""


@dataclass
class Job:
    kind: str
    key: str
    data: object = None
    argv: tuple = ()
    modules: list = field(default_factory=list)


# -- generators --------------------------------------------------------------


def presentation(lib, params, seed):
    m, g, r, d = params
    return lib.presentation.random_presentation(seed, m=m, max_gens=g, max_rels=r, max_degree=d)


def tube_rep(lib, p, level):
    """Level-L homogeneous-tube representation of the affine E6 star (n = 2).

    Sink k^{3L}; each leg has dims (L, 2L).  Leg i's first arrow is [I; A_i]
    with A_1 = I + N (N the nilpotent shift), A_2 = A_3 = I; its second arrow
    puts its two L-blocks into sink blocks (1,2), (2,3), (3,1).  End is
    k[N]/(N^L), local of dimension L, so the certified verdict is "yes" with
    endo_dim == L.
    """
    fld = lib.fields.Field(p)
    eye = [[int(i == j) for j in range(level)] for i in range(level)]
    eye_plus_shift = [[int(j == i or j == i + 1) for j in range(level)] for i in range(level)]

    def first(a):
        return lib.fields.Matrix.from_rows(fld, eye + a)

    def second(b1, b2):
        rows = [[0] * (2 * level) for _ in range(3 * level)]
        for k in range(level):
            rows[b1 * level + k][k] = 1
            rows[b2 * level + k][level + k] = 1
        return lib.fields.Matrix.from_rows(fld, rows)

    arrows = (
        (first(eye_plus_shift), second(0, 1)),
        (first(eye), second(1, 2)),
        (first(eye), second(2, 0)),
    )
    return lib.quiver.QuiverRep(fld, 2, 3 * level, ((level, 2 * level),) * 3, arrows)


def fresh_copy(lib, module):
    """Same presentation, empty slice and transition caches."""
    return lib.presentation.GradedPresentation(
        module.m, module.field, module.gen_degrees, module.rel_degrees, module.rel_coeffs
    )


def module_shape(module) -> list:
    return [module.num_gens, module.num_rels, *module.stabilization_bound()]


def quiver_n(module) -> int:
    return max(1, *module.stabilization_bound())


def rep_shape(rep) -> list:
    return [rep.sink_dim, *(d for leg in rep.leg_dims for d in leg)]


# -- invariants as plain data ------------------------------------------------


def deco_obj(deco) -> dict:
    return {
        "v": [[iv.start, iv.end, m] for iv, m in deco.vertical],
        "h": [[iv.start, iv.end, m] for iv, m in deco.horizontal],
        "q": [[*c, m] for c, m in deco.quadrants],
    }


def faces_obj(complex_) -> list:
    return sorted((sorted(f) for f in complex_.faces), key=lambda f: (len(f), f))


def witness_error(verdict, witness, total_dim) -> str | None:
    """A "no" needs two nonzero parts whose dimensions add up; others none."""
    if verdict != "no":
        return None if witness is None else f"verdict {verdict!r} came with a witness"
    if witness is None or len(witness) != 2:
        return "verdict 'no' without a two-part witness"
    dims = [part.total_dim() for part in witness]
    if min(dims) == 0 or sum(dims) != total_dim:
        return f"witness part dims {dims} do not split total dim {total_dim}"
    return None


def enumerated(p: int, verdict: str, endo_dim: int) -> int:
    """Candidates a "yes" certificate enumerated: p^endo_dim for endo_dim >= 2."""
    return p**endo_dim if verdict == "yes" and endo_dim >= 2 and p else 0


def stratified(rng, sizes: dict, n: int) -> list[int]:
    """One pool entry from each of n equal strata of the pool ordered by size.

    Every block then holds the same spread of input sizes, and the seed
    chooses the members; `sizes` maps a pool index to a work estimate.
    """
    order = sorted((size, i) for i, size in sizes.items())
    bounds = [k * len(order) // n for k in range(n + 1)]
    return [order[rng.randrange(lo, hi)][1] for lo, hi in zip(bounds, bounds[1:])]


def presentation_size(shape) -> int:
    """generators x (sum of the stabilization bound + m)^2, from a shape."""
    gens, _, *bound = shape
    return gens * (sum(bound) + len(bound)) ** 2


def stored_sizes(entries: dict, size) -> dict:
    return {int(i): size(entry["shape"]) for i, entry in entries.items()}


def mismatch(what, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


# -- expected values ---------------------------------------------------------


def load_expected(name: str, directory: Path = EXPECTED_DIR) -> dict:
    return json.loads((directory / f"{name}.json").read_text(encoding="utf-8"))


def check_shape(what, got, want) -> None:
    if got != want:
        raise SetupError(f"{what}: generated input has shape {got}, stored pool says {want}")


# -- workloads ---------------------------------------------------------------


class DecomposeM2:
    name = "decompose_m2"
    library = ("persloc",)
    subprocesses = False

    def __init__(self, expected: dict):
        self.expected = expected
        self.small_sizes = stored_sizes(expected["small"], presentation_size)
        medium_sizes = stored_sizes(expected["medium"], presentation_size)
        self.medium_by_size = sorted(medium_sizes, key=lambda i: (medium_sizes[i], i))

    def setup(self, lib, seed: int) -> list[list[Job]]:
        blocks = []
        for k in range(PREPARED_BLOCKS):
            rng = random.Random(f"{self.name}:{seed}:{k}")
            picks = [("small", i) for i in stratified(rng, self.small_sizes, DECOMPOSE_BLOCK["small"])]
            picks += [("medium", i) for i in self.medium_by_size[k % 2 :: 2]]
            picks.append(("large", LARGE_SEED))
            rng.shuffle(picks)
            blocks.append(picks)
        params = {"small": SMALL, "medium": MEDIUM, "large": LARGE}
        inputs = {}
        for kind, i in {p for block in blocks for p in block}:
            module = presentation(lib, params[kind], i)
            check_shape(f"{kind}:{i}", module_shape(module), self.expected[kind][str(i)]["shape"])
            inputs[kind, i] = module
        return [[Job(kind, f"{kind}:{i}", inputs[kind, i]) for kind, i in block] for block in blocks]

    def fresh(self, lib, job: Job) -> None:
        job.modules = [fresh_copy(lib, job.data)]

    def run(self, lib, job: Job):
        module = job.modules[0]
        first = lib.twoparam.decompose(module)
        rebuilt = lib.twoparam.reconstruct(first, module.field)
        job.modules.append(rebuilt)
        return first, lib.twoparam.decompose(rebuilt)

    def enum_candidates(self, job: Job, out) -> int:
        return 0

    def check(self, job: Job, out) -> str | None:
        first, second = out
        if second != first:
            return "decompose(reconstruct(d)) differs from d"
        kind, i = job.key.split(":")
        return mismatch("decomposition", deco_obj(first), self.expected[kind][i]["deco"])


class QuiverM3:
    name = "quiver_m3"
    library = ("persloc",)
    subprocesses = False

    def __init__(self, expected: dict):
        self.expected = expected
        self.sizes = {"m3": stored_sizes(expected["m3"], presentation_size), "rep": stored_sizes(expected["rep"], sum)}

    def setup(self, lib, seed: int) -> list[list[Job]]:
        blocks = []
        for k in range(PREPARED_BLOCKS):
            rng = random.Random(f"{self.name}:{seed}:{k}")
            picks = [(kind, i) for kind, n in QUIVER_BLOCK.items() for i in stratified(rng, self.sizes[kind], n)]
            picks += [("tube", f"{p}-{level}") for p, level in TUBES]
            rng.shuffle(picks)
            blocks.append(picks)
        inputs = {}
        for kind, i in {p for block in blocks for p in block}:
            stored = self.expected[kind][str(i)]
            if kind == "m3":
                module = presentation(lib, M3, i)
                check_shape(f"m3:{i}", module_shape(module), stored["shape"])
                inputs[kind, i] = (module, lib.complexes.random_complex(i, 3))
            elif kind == "rep":
                rep = lib.quiver.random_rep(i, n=3)
                check_shape(f"rep:{i}", rep_shape(rep), stored["shape"])
                inputs[kind, i] = rep
        for p, level in TUBES:
            rep = tube_rep(lib, p, level)
            res = lib.quiver.is_indecomposable(rep)
            if (res.verdict, res.endo_dim) != ("yes", level):
                raise SetupError(
                    f"tube p={p} L={level} certified {res.verdict!r} with endo_dim "
                    f"{res.endo_dim}; expected 'yes' with endo_dim {level}"
                )
            inputs["tube", f"{p}-{level}"] = rep
        return [[Job(kind, f"{kind}:{i}", inputs[kind, i]) for kind, i in block] for block in blocks]

    def fresh(self, lib, job: Job) -> None:
        job.modules = [fresh_copy(lib, job.data[0])] if job.kind == "m3" else []

    def run(self, lib, job: Job):
        if job.kind != "m3":
            return lib.quiver.is_indecomposable(job.data)
        module, complex_ = job.modules[0], job.data[1]
        support = lib.complexes.supp_complex(module)
        by_support = lib.complexes.in_kernel(module, complex_)
        by_nilpotence = lib.complexes.in_kernel_by_nilpotence(module, complex_)
        rep = lib.quiver.to_quiver_rep(module, quiver_n(module))
        return support, by_support, by_nilpotence, rep, lib.quiver.is_indecomposable(rep)

    def enum_candidates(self, job: Job, out) -> int:
        res, p = (out, job.data.field.char) if job.kind != "m3" else (out[4], out[3].field.char)
        return enumerated(p, res.verdict, res.endo_dim)

    def check(self, job: Job, out) -> str | None:
        kind, i = job.key.split(":")
        want = self.expected[kind][i]
        if kind != "m3":
            total = job.data.total_dim()
            return mismatch("verdict", [out.verdict, out.endo_dim], want["indec"]) or witness_error(
                out.verdict, out.witness, total
            )
        _, by_support, by_nilpotence, rep, res = out
        if by_support != by_nilpotence:
            return f"in_kernel {by_support} but in_kernel_by_nilpotence {by_nilpotence}"
        return mismatch("invariants", m3_invariants(out), want["invariants"]) or witness_error(
            res.verdict, res.witness, rep.total_dim()
        )


def m3_invariants(out) -> dict:
    """What the gate compares for one m = 3 job."""
    support, by_support, _, rep, res = out
    return {
        "support": faces_obj(support),
        "in_kernel": by_support,
        "rep": rep_shape(rep),
        "indec": [res.verdict, res.endo_dim],
    }


def cli_argvs(module_file: str, module, index: int) -> list[tuple]:
    """CLI commands run on one generated m = 2 module file."""
    b1, b2 = module.stabilization_bound()
    return [
        ("decompose", module_file),
        ("barcode", module_file, "--axis", str(1 + index % 2)),
        ("support", module_file),
        ("dims", module_file),
        ("rank", module_file, "0,0", f"{b1},{b2}"),
        ("ibar", module_file, f"{b1},0", f"0,{b2}", f"{b1},{b2}"),
        ("delocalize", module_file),
    ]


def cli_m3_argvs(module_file: str, module, index: int) -> list[tuple]:
    """CLI commands run on one generated m = 3 module file."""
    return [
        ("in-kernel", module_file, f"skeleton:3:{index % 3 - 1}"),
        ("indec", module_file, "-n", str(quiver_n(module))),
    ]


def write_module_file(lib, kind: str, index: int, module) -> str:
    """Write a generated module as a CLI input file; returns its relative path."""
    path = (RUN_DIR / "cli" / f"{kind}-{index}.json").relative_to(BENCH_DIR.parent).as_posix()
    text = lib.modfile.canonical_json(lib.modfile.module_to_obj(module))
    Path(path).write_text(text + "\n", encoding="utf-8")
    if lib.modfile.module_from_obj(json.loads(text), where=path) != module:
        raise SetupError(f"{path}: module file does not read back to the generated module")
    return path


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_verdict(argv: tuple, result: dict) -> dict:
    """The fields the gate compares for commands whose witness may vary."""
    if argv[0] == "indec":
        return {"verdict": result["verdict"], "endo_dim": result["endo_dim"]}
    if argv[0] == "section-exists":
        return {k: result[k] for k in ("exists", "axis1_solvable", "axis2_solvable")}
    return {"all_ok": result["all_ok"], "checks": [[c["id"], c["ok"]] for c in result["checks"]]}


def cli_witness_error(argv: tuple, result: dict, want: dict) -> str | None:
    witness = result.get("witness")
    if argv[0] == "indec":
        if result["verdict"] != "no":
            return None if witness is None else "indec witness without verdict 'no'"
        dims = [
            part["sink_dim"] + sum(sum(leg["dims"]) for leg in part["legs"]) for part in witness or []
        ]
        if len(dims) != 2 or min(dims) == 0 or sum(dims) != want["total_dim"]:
            return f"indec witness part dims {dims} do not split total dim {want['total_dim']}"
    if argv[0] == "section-exists":
        if (witness is not None) != result["exists"]:
            return "section witness present iff a section exists"
        if witness is not None and not (
            len(witness["axis1"]) == len(witness["axis2"]) == len(witness["degrees"])
        ):
            return "section witness has one vector per target generator and axis"
    return None


VERDICT_COMMANDS = ("indec", "section-exists", "verify-paper")


class CliSmall:
    name = "cli_small"
    library = ("persloc", "persloc.cli")
    subprocesses = True  # peak_rss_mb is the largest child's

    def __init__(self, expected: dict):
        self.expected = expected["commands"]

    def setup(self, lib, seed: int) -> list[list[Job]]:
        (RUN_DIR / "cli").mkdir(parents=True, exist_ok=True)
        pools = {
            "small": {i: presentation(lib, SMALL, i) for i in range(CLI_SMALL_POOL)},
            "m3": {i: presentation(lib, M3, i) for i in range(CLI_M3_POOL)},
        }
        sizes = {kind: {i: presentation_size(module_shape(m)) for i, m in pool.items()} for kind, pool in pools.items()}
        blocks = []
        for k in range(PREPARED_BLOCKS):
            rng = random.Random(f"{self.name}:{seed}:{k}")
            argvs = [("small", i, j) for i in stratified(rng, sizes["small"], CLI_BLOCK["small"]) for j in range(7)]
            argvs += [("m3", i, j) for i in stratified(rng, sizes["m3"], CLI_BLOCK["m3"]) for j in range(2)]
            argvs += [("fixed", j, 0) for j in range(len(CLI_FIXED))]
            rng.shuffle(argvs)
            blocks.append(argvs)
        files = {}
        for kind, i in {(kind, i) for block in blocks for kind, i, _ in block if kind != "fixed"}:
            module = pools[kind][i]
            make = cli_argvs if kind == "small" else cli_m3_argvs
            files[kind, i] = make(write_module_file(lib, kind, i, module), module, i)
        jobs = []
        for block in blocks:
            jobs.append([])
            for kind, i, j in block:
                argv = CLI_FIXED[i] if kind == "fixed" else files[kind, i][j]
                key = " ".join(argv)
                if key not in self.expected:
                    raise SetupError(f"no stored answer for persloc {key}")
                jobs[-1].append(Job("cli", key, argv=argv))
        return jobs

    def fresh(self, lib, job: Job) -> None:
        pass

    def run(self, lib, job: Job):
        """One ``python -m persloc`` subprocess: (exit code, stdout, stderr)."""
        proc = subprocess.run(
            [sys.executable, "-m", "persloc", *job.argv],
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
            env=lib.child_env,
        )
        return proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace")

    def run_in_process(self, lib, job: Job):
        """The same argv through ``persloc.cli.main`` with output captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(job.argv))
        return code, out.getvalue().encode("utf-8"), err.getvalue()

    def enum_candidates(self, job: Job, out) -> int:
        if job.argv[0] != "indec":
            return 0
        report = json.loads(out[1])
        p = int(report["field"].removeprefix("F_")) if report["field"] != "Q" else 0
        return enumerated(p, report["result"]["verdict"], report["result"]["endo_dim"])

    def check(self, job: Job, out) -> str | None:
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-200:]}"
        want = self.expected[job.key]
        if job.argv[0] not in VERDICT_COMMANDS:
            return mismatch("stdout sha256", sha256(stdout), want["sha256"])
        result = json.loads(stdout)["result"]
        return mismatch("verdict", cli_verdict(job.argv, result), want["verdict"]) or cli_witness_error(
            job.argv, result, want
        )


WORKLOADS = {w.name: w for w in (DecomposeM2, QuiverM3, CliSmall)}
