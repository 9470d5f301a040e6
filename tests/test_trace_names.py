"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps quivercy
functions by name, so renaming or deleting one of them breaks it."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = tracer.function_names()
    missing = []
    for full in names:
        modname, _, name = full.partition(".")
        owner = importlib.import_module("quivercy." + modname)
        cls, _, attr = name.rpartition(".")
        if cls:
            owner = getattr(owner, cls, None)
            attr = tracer.METHOD_ATTR.get(attr, attr)
        if not callable(getattr(owner, attr, None)):
            missing.append(full)
    assert names
    assert missing == []
