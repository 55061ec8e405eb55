"""Every name a module of the package imports at module level is used.

No linter is part of the toolchain, so a deletion that leaves an import
without a use would pass unnoticed; this check parses each module with
``ast`` instead.  A name counts as used where the module reads it (an
attribute access reads its base name) or lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

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
