"""Self-tests of the benchmark harness at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402

SELF_SUM_RTOL = 1e-9
# A program defect these tiny sizes expose: the two-view solver's
# view-weight step minimizes only the smoothness term of the joint
# objective, so the objective can rise.  At grid point c_source=100,
# c_target=1 with L=20 it rises on data seeds 1 and 2 (by up to 2.3e-3
# relative).  No input of the full-size pool shows it.
KNOWN_FAILURES = ("objective rises in mveda_s1_100_1",
                  "objective rises in mveda_s2_100_1")


def _bench(*args, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _traced_op(workload, tmp_path):
    tracer = T.Tracer()
    inp = W.prepare(workload, "tiny", 0)
    with tracer.installed(), tracer.operation():
        _, out = W.run_op(workload, inp, str(tmp_path))
    return tracer, out


@pytest.mark.parametrize("workload", W.NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_each_workload_runs_end_to_end(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    failures = [line for line in done.stderr.splitlines()
                if "failed its checks" in line or " raised:" in line]
    assert result["failed"] == len(failures)
    assert result["correct"] == (result["failed"] == 0)
    assert all(any(k in line for k in KNOWN_FAILURES) for line in failures), done.stderr
    names = ([n for n, _ in run.END_TO_END] if trace == "0"
             else [n for n, _, _ in T.per_layer_specs()])
    assert list(result["metrics"]) == names
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "OPENBLAS_NUM_THREADS" in done.stdout


def test_every_boundary_records_a_span(tmp_path):
    seen = set()
    for workload in W.NAMES:
        tracer, _ = _traced_op(workload, tmp_path)
        seen |= {s.name for s in tracer.spans}
    assert set(T.SPAN_NAMES) <= seen, sorted(set(T.SPAN_NAMES) - seen)


def test_tracer_restores_every_binding(tmp_path):
    import edapt.multiview
    import edapt.single

    before = (edapt.single.solve_spd, edapt.multiview.beta_gradient)
    _traced_op("wide", tmp_path)
    assert (edapt.single.solve_spd, edapt.multiview.beta_gradient) == before


def _outputs(workload, out):
    if workload == "grid":
        return [np.array([v for *_, v in out["per_seed"]]),
                np.array([o for *_, o in out["convergence"]]),
                np.array(out["sweep"])]
    return [out["scores"], out["history"]]


@pytest.mark.parametrize("workload", W.NAMES)
def test_traced_outputs_equal_untraced(workload, tmp_path):
    _, plain = W.run_op(workload, W.prepare(workload, "tiny", 0), str(tmp_path))
    _, traced = _traced_op(workload, tmp_path)
    for a, b in zip(_outputs(workload, plain), _outputs(workload, traced), strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("workload", W.NAMES)
def test_self_times_add_up_to_the_root_span(workload, tmp_path):
    tracer, _ = _traced_op(workload, tmp_path)
    spans = {s.sid: s for s in tracer.spans}
    for s in spans.values():
        if s.parent is not None:
            p = spans[s.parent]
            assert p.start <= s.start <= s.end <= p.end, (s.name, p.name)
    (stats,) = tracer.op_stats()
    assert stats["trace.self_sum_s"] == pytest.approx(stats["trace.op_s"],
                                                      rel=SELF_SUM_RTOL)


def test_counts_read_the_work_done(tmp_path):
    tracer, out = _traced_op("tall", tmp_path)
    (stats,) = tracer.op_stats()
    assert stats["solver.rounds"] == len(out["history"])
    assert stats["graph.build_knn_graph.calls"] == 1
    assert stats["graph.build_knn_graph.distinct_ratio"] == 1.0
    n = 60 + 9  # unlabeled plus 3 labeled per class
    assert stats["graph.laplacian_bytes"] == 2 * n * n * 8 + n * 8
    assert stats["lapack.cho_factor.gflop"] > 0
    assert stats["single.beta_gradient.per_solve"] >= 1
    tracer, _ = _traced_op("grid", tmp_path)
    (stats,) = tracer.op_stats()
    # four EDA prelabel kinds plus the noise view; loss weights do not count
    distinct = stats["single.build_problem.distinct_ratio"] * stats["single.build_problem.calls"]
    assert round(distinct) == 5


def test_checks_flag_bad_outputs(tmp_path):
    _, out = W.run_op("tall", W.prepare("tall", "tiny", 0), str(tmp_path))
    ref = W.reference_of("tall", out)
    assert W.check("tall", out, ref) == []
    assert W.check("tall", out, dict(ref, accuracy=ref["accuracy"] - 3 * W.ACC_ATOL))
    assert W.check("tall", out, dict(ref, final_objective=ref["final_objective"] * 1.01))
    assert W.check("tall", out, None)
    rising = dict(out, history=out["history"][::-1].copy())
    assert any("rises" in p for p in W.check("tall", rising, ref))
    bad = dict(out, scores=np.where(out["scores"] > 0, np.nan, out["scores"]))
    assert "non-finite scores" in W.check("tall", bad, ref)


def test_known_defect_is_flagged(tmp_path):
    refs = W.load_references("grid", "tiny")
    for seed in (1, 2):
        _, out = W.run_op("grid", W.prepare("grid", "tiny", seed), str(tmp_path))
        problems = W.check("grid", out, refs[seed])
        assert [p.split(":")[0] for p in problems] == [KNOWN_FAILURES[seed - 1]]


def test_recorded_references_cover_the_pool():
    for workload in W.NAMES:
        for scale in W.SCALES:
            assert set(W.load_references(workload, scale)) == set(W.POOL)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(s) for s in T.per_layer_specs()]
    assert [w["name"] for w in spec["workloads"]] == list(W.NAMES)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench("--workload", "tall", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert "correct" not in done.stdout
