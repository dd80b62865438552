"""The benchmark tracer wraps linremoval callables by name; every name it
lists must still exist, or the traced benchmark run breaks."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    missing = []
    for name, where in targets.items():
        home = importlib.import_module(f"linremoval.{where[0]}")
        if len(where) == 3:
            # the tracer replaces the method on the class it is defined in
            cls = getattr(home, where[1], None)
            found = cls is not None and callable(vars(cls).get(where[2]))
        else:
            found = callable(getattr(home, where[1], None))
        if not found:
            missing.append(name)
    assert missing == []
