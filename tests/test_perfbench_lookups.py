"""The benchmark harness under perfbench/ reaches into edapt's modules by
attribute name; a trim of a module's names must not break it silently."""

import ast
import glob
import importlib
import importlib.util
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    tracing = _load("tracing")
    _load("workloads")
    assert tracing.BOUNDARIES
    for span, modname, attr in tracing.BOUNDARIES:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), (span, modname, attr)


def _lookups(tree):
    """``(module, attribute)`` pairs a harness file reads from edapt:
    ``from edapt.m import a``, ``edapt.m.a``, and ``m.a`` after
    ``from edapt import m``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "edapt":
            aliases.update({a.asname or a.name: f"edapt.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("edapt."):
            yield from ((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in aliases:
            yield aliases[base.id], node.attr
        elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
              and base.value.id == "edapt"):
            yield f"edapt.{base.attr}", node.attr


def test_every_edapt_name_the_harness_reads_resolves():
    seen = set()
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            seen.update(_lookups(ast.parse(fh.read())))
    assert ("edapt.multiview", "beta_gradient") in seen
    assert ("edapt.bench", "run_benchmark") in seen
    missing = sorted(f"{m}.{a}" for m, a in seen
                     if not hasattr(importlib.import_module(m), a))
    assert not missing, missing
