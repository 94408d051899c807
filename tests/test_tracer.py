"""The benchmark's tracer (perfbench/tracer.py) wraps program functions at
the names their callers look up, so each of those names must stay bound:
a missing one makes a traced benchmark run die with an AttributeError."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_name_and_uninstall_restores_it():
    tr = load_tracer().Tracer()
    try:
        tr.install()  # looks up every traced name
        patched = [(owner, attr, original, getattr(owner, attr)) for owner, attr, original in tr._undo]
    finally:
        tr.uninstall()
    assert patched
    for owner, attr, original, wrapped in patched:
        assert wrapped is not original
        assert getattr(owner, attr) is original
