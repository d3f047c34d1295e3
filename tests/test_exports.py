"""Every exported name is needed by something other than the tests.

A name in a module's ``__all__`` stays only while another module, a demo, the
README's library tour or the benchmark tracer refers to it.  A helper that
only tests call belongs in ``conftest`` as an oracle.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "symplat"
MODULES = sorted(
    path.stem for path in SRC.glob("*.py") if "__all__" in path.read_text()
)


def _loaded_names(tree, skip=None):
    """The names and attribute names used in a module, outside the top-level definition ``skip``."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _is_referenced(module, name):
    """Whether ``name`` of ``symplat.<module>`` is used outside its own definition.

    Import statements and ``__all__`` entries are not uses.  The README and the
    tracer name what they need in prose or in strings, so they are read as text.
    """
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        skip = name if path == SRC / f"{module}.py" else None
        if name in _loaded_names(ast.parse(path.read_text()), skip):
            return True
    word = re.compile(rf"\b{re.escape(name)}\b")
    return any(
        word.search((ROOT / text).read_text()) for text in ("README.md", "perfbench/tracing.py")
    )


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"symplat.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_used_outside_the_tests(module):
    exported = importlib.import_module(f"symplat.{module}").__all__
    assert [name for name in exported if not _is_referenced(module, name)] == []
