"""The public surface: exported names and the functions the benchmark tracer wraps."""
import importlib
import importlib.util
import os

import binmc

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def test_all_names_resolve():
    missing = [name for name in binmc.__all__ if not hasattr(binmc, name)]
    assert not missing


def test_traced_names_resolve():
    # perfbench/tracer.py binds these by name; a deleted or renamed one breaks --trace 1
    spec = importlib.util.spec_from_file_location("binmc_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, attr, _ in tracer.WRAPPED:
        owner = importlib.import_module(f"binmc.{layer}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None or meth not in vars(cls):
                missing.append((layer, attr))
        elif not hasattr(owner, attr):
            missing.append((layer, attr))
    assert not missing
