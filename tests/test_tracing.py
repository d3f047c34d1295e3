"""The benchmark tracer still fits the program.

``perfbench/tracing.py`` wraps library functions and methods by name; a name
that no longer resolves breaks every traced benchmark run.  This installs the
tracer, unedited, on a freshly imported ``symplat``, runs one command under
it and checks that removing it restores every patched attribute.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _is_symplat(name):
    return name == "symplat" or name.startswith("symplat.")


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fresh_symplat():
    """Import symplat anew; the suite's own modules are put back afterwards."""
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if _is_symplat(name)}
    try:
        importlib.invalidate_caches()
        yield importlib.import_module("symplat")
    finally:
        for name in [name for name in sys.modules if _is_symplat(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def _resolve(module, attr):
    """The object the tracer patches for (module, attr): a function or a class's method."""
    mod = sys.modules[f"symplat.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name).__dict__[meth]
    return getattr(mod, attr)


def _bindings():
    """Every module global and traced class attribute of symplat, by identity."""
    out = {}
    for name in [name for name in sys.modules if _is_symplat(name)]:
        for key, value in vars(sys.modules[name]).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_tracer_fits_the_program(tracing, fresh_symplat):
    names = tracing.SPANS + tracing.COUNTS
    for module in {module for module, _, _ in names}:
        importlib.import_module(f"symplat.{module}")
    for module, attr, _ in names:
        assert callable(_resolve(module, attr)), (module, attr)
    before = _bindings()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        code, _ = sys.modules["symplat.cli"].run(["cover", "--g", "2", "--m", "2"])
    finally:
        tracer.remove()

    assert code == 0
    assert tracer.calls["cli.run"] == 1
    assert tracer.calls["covers.cyclic_cover"] == 1
    assert any(during[key] is not value for key, value in before.items())
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
