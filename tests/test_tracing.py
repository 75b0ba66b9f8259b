"""Every layer that ``meshbench/tracing.py`` times names a function the
program still has. The tracer skips a missing function, and its layer then
reads zero instead of failing, so a rename would go unnoticed there."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "meshbench" / "tracing.py"


def _layers() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("meshbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_is_a_program_function():
    layers = _layers()
    assert len(layers) == 15
    for name in layers:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"meshtok.{module}"), attr, None)), name
