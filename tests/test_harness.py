"""The benchmark harness wraps persloc by name: every name it lists must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from persloc.presentation import GradedPresentation, free_module, random_presentation
from persloc.twoparam import decompose

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = _load_tracing()
    assert tracing.LAYERS
    for name, modname, attr in tracing.LAYERS:
        module = importlib.import_module(f"persloc.{modname}")
        if "." in attr:
            # methods are wrapped on the class that defines them
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(meth)), name
        else:
            assert callable(getattr(module, attr, None)), name


def test_traced_counters_read_existing_state():
    # the rref counter reads (field, rows, ncols) positionally, and the slice
    # counter reads the module's slice cache
    from persloc.fields import _rref

    assert list(inspect.signature(_rref).parameters) == ["field", "rows", "ncols"]
    module = free_module(2, (0, 0))
    module.dim_at((1, 1))
    assert len(module._slices) == 1


def test_decompose_asks_its_input_for_ranks(monkeypatch):
    # `after_job` in perfbench/run.py reads the traced rank_invariant calls of
    # a large job's input module, keyed by the module itself, and fails when
    # there are none: decompose must keep asking its input for ranks
    seen = []
    rank_invariant = GradedPresentation.rank_invariant

    def recording(self, a, b):
        seen.append(self)
        return rank_invariant(self, a, b)

    monkeypatch.setattr(GradedPresentation, "rank_invariant", recording)
    module = random_presentation(11, m=2, max_gens=5, max_rels=8, max_degree=6)
    decompose(module)
    assert any(queried is module for queried in seen)
