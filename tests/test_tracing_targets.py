"""The traced benchmark can wrap every function it names.

``perfbench/tracing.py`` lists its targets by module and name; an API change
that drops or moves one breaks the traced benchmark run, so it fails here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    targets = load_tracing(monkeypatch).TARGETS
    assert targets
    missing = []
    for module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        if "." in attr:
            # Tracer.install patches the method on the class that defines it
            cls_name, method = attr.split(".")
            found = callable(vars(getattr(owner, cls_name, object)).get(method))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module_name}:{attr}")
    assert missing == []
