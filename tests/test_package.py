"""The package root: lazily registered submodules and the public names."""

import subprocess
import sys

from test_cli import SRC_ENV

# After `import persloc` in a fresh interpreter: every submodule file is
# registered in sys.modules and none has run; each public name resolves to
# the object its submodule defines, and `import *` binds them all.
_CONTRACT = """
import importlib, sys, types
from pathlib import Path
import persloc

files = sorted(p.stem for p in Path(persloc.__file__).parent.glob("*.py") if not p.stem.startswith("_"))
assert [n for n in files if "persloc." + n not in sys.modules] == [], files
assert [n for n in files if type(sys.modules["persloc." + n]) is types.ModuleType] == []
assert all(getattr(persloc, n) is sys.modules["persloc." + n] for n in files)

assert persloc.decompose is importlib.import_module("persloc.twoparam").decompose
assert persloc.example_names is importlib.import_module("persloc.examples").names
for name in persloc.__all__:
    home = importlib.import_module("persloc." + persloc._HOME[name])
    assert getattr(persloc, name) is getattr(home, persloc._RENAMED.get(name, name)), name

star = {}
exec("from persloc import *", star)
assert all(star[name] is getattr(persloc, name) for name in persloc.__all__)
assert len(persloc.__all__) == 69

try:
    persloc.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown name resolved")
print("ok")
"""


def test_import_registers_every_submodule_and_resolves_public_names():
    proc = subprocess.run(
        [sys.executable, "-c", _CONTRACT], capture_output=True, text=True, env=SRC_ENV, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
