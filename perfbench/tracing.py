"""Spans around calls into persloc's layers, recorded from the benchmark's side.

``Tracer.installed`` replaces each attribute listed in ``LAYERS`` with a wrapper
that records a span: name, start, end, parent span and job id.  Functions are
replaced in every persloc module that holds them by name (``_rref`` is
imported by name into ``presentation`` and ``twoparam``), methods on their
class.  Spans stay in memory and are written out once, after the run.  A
layer's self time is its duration minus the time covered by its child spans.
Nothing stays wrapped outside ``installed``.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager

# (metric name, persloc submodule, attribute)
LAYERS = (
    ("fields._rref", "fields", "_rref"),
    ("fields.Matrix.mul", "fields", "Matrix.mul"),
    ("fields.Subspace.plus", "fields", "Subspace.plus"),
    ("presentation.dim_at", "presentation", "GradedPresentation.dim_at"),
    ("presentation.transition", "presentation", "GradedPresentation.transition"),
    ("presentation.rank_invariant", "presentation", "GradedPresentation.rank_invariant"),
    ("localization.localized_barcode", "localization", "localized_barcode"),
    ("twoparam.decompose", "twoparam", "decompose"),
    ("twoparam.intersection_table", "twoparam", "intersection_table"),
    ("twoparam.quadrant_corners", "twoparam", "quadrant_corners"),
    ("twoparam.reconstruct", "twoparam", "reconstruct"),
    ("complexes.supp_complex", "complexes", "supp_complex"),
    ("complexes.in_kernel_by_nilpotence", "complexes", "in_kernel_by_nilpotence"),
    ("quiver.to_quiver_rep", "quiver", "to_quiver_rep"),
    ("quiver.endomorphism_basis", "quiver", "endomorphism_basis"),
    ("quiver.try_split", "quiver", "try_split"),
    ("quiver.is_indecomposable", "quiver", "is_indecomposable"),
    ("modfile.module_from_obj", "modfile", "module_from_obj"),
    ("modfile.canonical_json", "modfile", "canonical_json"),
    ("modfile.digest", "modfile", "digest"),
    ("cli.main", "cli", "main"),
)
MODULE_METHODS = ("presentation.dim_at", "presentation.transition", "presentation.rank_invariant")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[list] = []  # [span index, time covered by children]
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.job_id = -1
        self.jobs = 0
        # counters measured at the layer boundaries
        self.rref_cells = 0
        self.rref_max_cells = 0
        self.rank_calls = 0
        self.rank_distinct = 0
        self.slices_built = 0
        # per-job state: modules the job queried, rank pairs per module
        self.job_modules: dict[int, object] = {}
        self.job_rank_pairs: dict[int, list] = {}
        for name, _, _ in LAYERS:
            self._name(name)

    def _name(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def _span(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.job.append(self.job_id)
        frame = [idx, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.end[idx] = t1
            dur = t1 - t0
            self.calls[nid] += 1
            self.total[nid] += dur
            self.self_time[nid] += dur - frame[1]
            if self.stack:
                self.stack[-1][1] += dur

    def _wrapper(self, nid: int, fn):
        name = self.names[nid]
        counts_module = name in MODULE_METHODS
        is_rank = name == "presentation.rank_invariant"
        is_rref = name == "fields._rref"

        def wrapper(*args, **kwargs):
            if self.job_id < 0:
                return fn(*args, **kwargs)
            if counts_module:
                module = args[0]
                self.job_modules[id(module)] = module
                if is_rank:
                    entry = self.job_rank_pairs.setdefault(id(module), [0, set()])
                    entry[0] += 1
                    entry[1].add((tuple(args[1]), tuple(args[2])))
            elif is_rref:
                cells = len(args[1]) * args[2]
                self.rref_cells += cells
                if cells > self.rref_max_cells:
                    self.rref_max_cells = cells
            return self._span(nid, fn, args, kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every listed layer of the loaded persloc; restore on exit."""
        loaded = [m for n, m in list(sys.modules.items()) if n == "persloc" or n.startswith("persloc.")]
        restore = []
        for nid, (_, modname, attr) in enumerate(LAYERS):
            module = sys.modules.get(f"persloc.{modname}")
            if module is None:
                continue  # not loaded by this workload: the layer reports zero
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrapper(nid, orig))
                restore.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrapper(nid, orig)
            for holder in loaded:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapped)
                        restore.append((holder, key, orig))
        try:
            yield self
        finally:
            for holder, key, orig in reversed(restore):
                setattr(holder, key, orig)

    def run_job(self, kind: str, fn):
        """Run one job under a root span; fold its per-module counters."""
        self.job_id = self.jobs
        self.jobs += 1
        self.job_modules = {}
        self.job_rank_pairs = {}
        try:
            return self._span(self._job_name(kind), fn, (), {})
        finally:
            self.job_id = -1
            for module in self.job_modules.values():
                self.slices_built += len(module._slices)
            for calls, pairs in self.job_rank_pairs.values():
                self.rank_calls += calls
                self.rank_distinct += len(pairs)

    def _job_name(self, kind: str) -> int:
        name = f"job.{kind}"
        if name in self.names:
            return self.names.index(name)
        return self._name(name)

    def layer_metrics(self) -> dict[str, float]:
        out = {}
        for nid, (name, _, _) in enumerate(LAYERS):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.total_s"] = self.total[nid]
            out[f"{name}.self_s"] = self.self_time[nid]
        return out

    def write(self, path) -> int:
        """Write every span as gzipped CSV; returns the number written."""
        t0 = self.start[0] if self.start else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{names[self.name_id[i]]},{self.start[i] - t0:.7f},"
                    f"{self.end[i] - t0:.7f},{self.parent[i]},{self.job[i]}\n"
                )
        return len(self.start)
