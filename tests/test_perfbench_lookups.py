"""The benchmark harness under perfbench/ reaches into edapt's modules by
attribute name; a trim of a module's names must not break it silently."""

import ast
import glob
import importlib
import importlib.util
import os
import sys

import numpy as np
import pytest

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


def _same_dataset(a, b):
    if a is None or b is None:
        return a is None and b is None
    labels = (a.labels is None and b.labels is None) or np.array_equal(a.labels, b.labels)
    return np.array_equal(a.features, b.features) and labels


@pytest.mark.parametrize("scale", ["tiny", "full"])
@pytest.mark.parametrize("workload", ["tall", "wide"])
def test_the_harness_fits_the_views_the_bench_makes(workload, scale):
    # the harness draws its own inputs; they must be the bench's view
    # recipe (config.view_bundle, params.view_map), array for array, or a
    # change to the recipe would leave the harness measuring other views
    from edapt import bench
    workloads = _load("workloads")
    for seed in (0, 3):
        inp = workloads.prepare(workload, scale, seed)
        ctx = bench._context(inp.config, seed, None)
        assert len(inp.bundles) == len(inp.maps) == (2 if workload == "wide" else 1)
        for v, (bundle, hm) in enumerate(zip(inp.bundles, inp.maps)):
            want_bundle, want_map = ctx.inputs(v)
            assert bundle.n_classes == want_bundle.n_classes
            for part in ("source", "target_labeled", "target_unlabeled", "target_test"):
                assert _same_dataset(getattr(bundle, part), getattr(want_bundle, part))
            assert np.array_equal(hm.weights, want_map.weights)
            assert np.array_equal(hm.biases, want_map.biases)
            assert (hm.activation, hm.seed) == (want_map.activation, want_map.seed)
