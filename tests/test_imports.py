"""What the package imports, and when.

Every name a module of the package imports at module level is used.  No
linter is part of the toolchain, so a deletion that leaves an import
without a use would pass unnoticed; this check parses each module with
``ast`` instead.  A name counts as used where the module reads it (an
attribute access reads its base name) or lists it in ``__all__``.  In the
same way every private module-level name (one leading underscore) is read,
read as an attribute or imported somewhere in the package: a helper whose
last caller went would otherwise stay, held up only by its tests.

No module imports scipy when it is imported: ``import scipy.integrate``
takes several times longer than the rest of the package, and only the
time-integration oracle needs it (``docs/conventions.md``, "Import
cost").  A static scan guards the source, and a fresh interpreter guards
what actually loads.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vflux

SRC = Path(__file__).resolve().parents[1] / "src" / "vflux"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that it never
    reads or exports, ``from __future__`` left out."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)]
    used |= {item.value for value in exported for item in value.elts}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\nfrom math import comb, sqrt as root\n"
              "from .errors import UsageError\n"
              "__all__ = ['UsageError']\n"
              "def f(x: np.ndarray):\n    return root(x)\n")
    assert unused_imports(source) == ["os", "comb"]


def private_definitions(tree) -> list[str]:
    """Module-level functions, classes and assignments of ``tree`` whose
    names start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def references(tree) -> set[str]:
    """Names that ``tree`` reads, reads as an attribute or imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private module-level name of ``sources``
    (module -> source) that no module reads, reads as an attribute or
    imports."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*map(references, trees.values()))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in private_definitions(tree) if name not in used]


def test_package_uses_every_private_name():
    # a private name is the package's own, so one that nothing in the
    # package reads is left over from a deletion (tests may still call it)
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_dead_private_names_are_found():
    sources = {"a": ("import numpy as np\n_LIMIT = 1\n_shared: int = 2\n_TABLE = {}\n"
                     "def _unused():\n    return _LIMIT\n"
                     "def _helper():\n    pass\nclass _Old:\n    pass\n"
                     "def __getattr__(name):\n    raise AttributeError(name)\n"),
               "b": ("from .a import _helper\nimport a\n"
                     "def f():\n    return _helper(), a._TABLE\n")}
    assert dead_private_names(sources) == ["a._shared", "a._unused", "a._Old"]


def import_time_modules(node) -> list[str]:
    """Modules that the import statements under ``node`` name, in source
    order, leaving out function bodies: what importing the module runs
    (module level, class bodies, ``if`` and ``try`` blocks).  A relative
    import keeps its leading dots."""
    names = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Import):
            names += [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names.append("." * child.level + (child.module or ""))
        names += import_time_modules(child)
    return names


def scipy_imports(source: str) -> list[str]:
    return [name for name in import_time_modules(ast.parse(source))
            if name.split(".")[0] == "scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_no_scipy_when_imported(path):
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def test_import_time_scipy_imports_are_found():
    source = ("import numpy as np, scipy.linalg\n"
              "from scipy.integrate import solve_ivp as integrate\n"
              "from .scipy import x\n"
              "try:\n    from scipy import sparse\nexcept ImportError:\n    sparse = None\n"
              "class Oracle:\n    import scipy.special\n"
              "    def f(self):\n        import scipy.optimize\n"
              "def g():\n    from scipy.linalg import expm\n    return expm\n")
    assert scipy_imports(source) == ["scipy.linalg", "scipy.integrate", "scipy", "scipy.special"]


COLD_START = """
import json
import sys
import types

import numpy as np

import vflux, vflux.cli, vflux.config, vflux.golden, vflux.runner
from vflux import SystemSpec, build_generator, cumulants_finite_difference, rectification, steady
from vflux.config import build_config, config_for_target


def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))


def report(**seen):
    print(json.dumps(seen), flush=True)


report(imported=scipy_modules())
for target in ("fig3", "fig21b"):
    vflux.runner.run(config_for_target(target))
vflux.runner.run(build_config({"task": "sweep", "sweep": {"axes": [
    {"field": "tempR", "min": 0.5, "max": 1.0, "steps": 3},
    {"field": "gL12", "min": 0.0, "max": 0.01, "steps": 3}]}}))
spec = SystemSpec(1.2, 0.8, 2.0, 1.0, 0.5, 0.01, 0.01, 0.0, 0.01, 0.01, 0.0, 0.01)
cumulants_finite_difference(spec, "R", "energy")
rectification(spec, 1.5, 0.5)
report(computed=scipy_modules())

calls = []


def integrate(fun, span, y0, **options):
    calls.append(options["method"])
    return types.SimpleNamespace(y=np.asarray(y0)[:, None])


gen = build_generator(spec)
steady.solve_ivp = integrate
steady.evolve(gen, np.array([0, 0, 1, 0, 0], dtype=complex), t_end=1.0)
report(patched_calls=calls, patched=scipy_modules())
del steady.solve_ivp
steady.steady_state_time_integration(gen, t_end=1.0)
report(integrated="scipy.integrate" in sys.modules)
import scipy.integrate

report(bound=steady.solve_ivp is scipy.integrate.solve_ivp)
"""


def test_cold_start_loads_no_scipy_until_the_oracle_runs():
    """A fresh interpreter imports the package and runs two reproduce
    targets, a 2-axis sweep and the one-point noise and rectification
    calls with no scipy module loaded; a patched ``vflux.steady.solve_ivp``
    serves ``evolve`` without loading scipy either, and the oracle's first
    run binds scipy's integrator there."""
    src = str(Path(vflux.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=120)
    seen = {}
    for line in run.stdout.splitlines():
        seen.update(json.loads(line))
    assert seen.get("imported") == [] and seen.get("computed") == [], seen
    assert run.returncode == 0, run.stderr
    assert seen["patched_calls"] == ["DOP853"] and seen["patched"] == []
    assert seen["integrated"] and seen["bound"]
