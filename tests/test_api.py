"""The public surface: exported names and the functions the benchmark tracer wraps."""
import ast
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


def test_no_module_imports_a_name_it_never_uses():
    src = os.path.dirname(binmc.__file__)
    unused = []
    for fname in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, fname), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # a package re-exports what it imports: its __all__ entries count as uses
        used |= {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                unused += [f"{fname}:{node.lineno} {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used]
    assert not unused
