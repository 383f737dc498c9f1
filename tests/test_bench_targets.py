"""The functions and methods the bench tracer wraps by name still exist.

`bench/tracer.py` patches them only under `--trace 1`, so a rename or a
deletion in `qcluster` would otherwise show up only there.  Importing the
tracer module patches nothing.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, owner, attribute, *_ in tracer.TARGETS:
        obj = importlib.import_module(f"qcluster.{module}")
        if owner is not None:
            obj = getattr(obj, owner, None)
        if not callable(getattr(obj, attribute, None)):
            missing.append((module, owner, attribute))
    assert tracer.TARGETS and not missing
