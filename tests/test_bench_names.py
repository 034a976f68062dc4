"""The benchmark's tracer wraps lucentnet functions by name; a rename that
would break a traced benchmark run fails here first."""

import importlib
import importlib.util
import pathlib

TRACE = pathlib.Path(__file__).resolve().parent.parent / "bench" / "trace.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    for module_name, attr, _, _ in trace.TRACED:
        target = importlib.import_module(f"lucentnet.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, attr)
