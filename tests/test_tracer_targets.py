"""The benchmark's traced run (perfbench/tracing.py) wraps package entry
points by rebinding their module-level names. A refactor that drops or
renames one would otherwise surface only in a traced benchmark run."""

import importlib.util
import os


def test_tracer_layer_targets_resolve():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    targets = tracing._layer_targets()
    assert targets
    missing = [(getattr(owner, "__name__", repr(owner)), attr)
               for owner, attr, *_ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
