"""The benchmark harness wraps persloc by name: every name it lists must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from persloc.presentation import free_module

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
