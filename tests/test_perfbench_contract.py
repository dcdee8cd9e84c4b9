"""The benchmark tracer's targets exist in memwave, and tracing is undone.

`perfbench/tracer.py` wraps memwave callables by name.  A target that is
renamed or deleted makes every traced benchmark run fail while untraced runs
still pass, so these tests pin the contract from the package's side.  The
tracer is loaded from its file without writing anything under perfbench/.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def bindings(tracer) -> dict:
    """Every name the tracer may rebind: module globals, commands, class members."""
    out = {}
    for name in tracer.LAYER_MODULES:
        module = importlib.import_module(f"memwave.{name}")
        out.update({(name, attr): value for attr, value in vars(module).items()})
    cli = importlib.import_module("memwave.cli")
    out.update({("COMMANDS", cmd): fn for cmd, fn in cli.COMMANDS.items()})
    for mod_name, qualname in tracer.TARGETS:
        if "." in qualname:
            cls_name = qualname.split(".")[0]
            cls = getattr(importlib.import_module(f"memwave.{mod_name}"), cls_name)
            out.update({(cls_name, attr): value for attr, value in vars(cls).items()})
    return out


def test_every_target_resolves(tracer):
    missing = []
    for mod_name, qualname in tracer.TARGETS:
        home = importlib.import_module(f"memwave.{mod_name}")
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(home, cls_name, None)
            found = isinstance(cls, type) and meth in cls.__dict__
        else:
            found = callable(getattr(home, qualname, None))
        if not found:
            missing.append(f"{mod_name}.{qualname}")
    assert missing == []


def test_install_then_uninstall_restores_every_binding(tracer):
    from memwave import spectrum

    before = bindings(tracer)
    t = tracer.Tracer().install()
    try:
        spectrum.mu1_array([1, 2], 1.0)
        assert t.stats["spectrum.mu1_array"]["calls"] == 1
    finally:
        t.uninstall()
    after = bindings(tracer)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
