"""The benchmark's three workloads, their inputs, and their output checks.

Every workload draws synthetic ``generate_shift`` bundles from
``default_config`` and calls edapt's public library functions through
their modules (``single.fit_eda``, not a local alias), so that a
:class:`tracing.Tracer` sees the harness's own calls too.

- ``grid``: ``run_benchmark`` over all nine methods for one data seed,
  then ``emit_report``, then ``run_sweep`` on the same config.  Many
  small SPD solves and per-grid-point rebuilds; the only workload that
  enters the ``bench`` layer.
- ``tall``: one single-view fit with n >> L (3000 source and 3000
  unlabeled samples, L=1000), then save/load and scoring a test split
  ten times the labeled training set, in batches.  The dense k-NN graph,
  the n x n Laplacian refinement residual and feature mapping do the work.
- ``wide``: one two-view fit with L >> n (300 + 300 samples, L=2000;
  the second view is ``augment_noise_view``), then save/load and
  scoring.  Gram assembly and L x L Cholesky do the work.

Each operation runs on one data seed from a fixed pool.  Reference
accuracies and final objectives for the pool were recorded once
(``record_references.py``); an operation fails when it raises, returns
non-finite scores, lets an objective history rise, or drifts from those
references beyond the pinned tolerances below.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from edapt import bench, data, features, metrics, modelio, multiview, preclassify, single

# pinned output tolerances
DESCENT_RTOL = 1e-8      # criterion 1's bound on a rising objective
ACC_ATOL = 0.02          # 3 of 150 grid test rows; 600 of 30000 tall test rows
OBJ_RTOL = 1e-6          # final objective against its recorded reference

POOL = tuple(range(8))   # data seeds with recorded references
MIN_OPS = 2              # the first predict is cold; keep at least one warm one
PREDICT_PASSES = 3       # load-and-score passes per fitted model

FULL = {
    "grid": {},
    "tall": {"n_source": 3000, "n_unlabeled": 3000, "n_test": 30000,
             "n_hidden": 1000, "batch": 3000},
    "wide": {"n_source": 300, "n_unlabeled": 300, "n_test": 3000,
             "n_hidden": 2000, "batch": 3000},
}
# for the harness self-tests only
TINY = {
    "grid": {"n_source": 30, "n_unlabeled": 30, "n_test": 30, "n_hidden": 20,
             "grid": (1.0, 100.0)},
    "tall": {"n_source": 60, "n_unlabeled": 60, "n_test": 300, "n_hidden": 40,
             "batch": 100},
    "wide": {"n_source": 30, "n_unlabeled": 30, "n_test": 60, "n_hidden": 80,
             "batch": 60},
}
SCALES = {"full": FULL, "tiny": TINY}
NAMES = tuple(FULL)


def make_config(workload: str, scale: str) -> tuple[bench.BenchConfig, int]:
    """The workload's ``BenchConfig`` and its scoring batch size."""
    sizes = dict(SCALES[scale][workload])
    batch = sizes.pop("batch", 0)
    base = bench.default_config()
    params = replace(base.params, n_hidden=sizes.pop("n_hidden", base.params.n_hidden))
    if workload == "grid":
        sizes["methods"] = tuple(bench.METHOD_LABELS)
    return replace(base, params=params, **sizes), batch


def fingerprint(config: bench.BenchConfig, batch: int) -> str:
    text = bench.config_text(replace(config, seeds=(0,))) + f"batch = {batch}\n"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class Inputs:
    """One data seed's ready inputs."""

    seed: int
    config: bench.BenchConfig
    bundles: list          # one per view (empty for grid)
    maps: list             # hidden maps, one per view
    params: single.EdaParams
    tests: list            # per batch: one Dataset per view
    y_test: np.ndarray | None


def prepare(workload: str, scale: str, seed: int) -> Inputs:
    """Generate, standardize and draw everything an operation consumes."""
    config, batch = make_config(workload, scale)
    config = replace(config, seeds=(seed,))
    p = replace(config.params, seed=seed)
    if workload == "grid":
        return Inputs(seed, config, [], [], p, [], None)
    bundle = features.standardize_bundle(
        data.generate_shift(bench.synth_spec(config, seed)))
    bundles = [bundle]
    maps = [features.new_hidden_map(p.n_hidden, bundle.target_dim, p.activation, seed)]
    if workload == "wide":
        view_seed = features.derive_view_seed(seed, 1)
        extra = data.augment_noise_view(bundle, config.noise_dim, view_seed)
        bundles.append(extra)
        maps.append(features.new_hidden_map(p.n_hidden, extra.target_dim,
                                            p.activation, view_seed))
    n_test = bundle.target_test.n
    tests = [
        [data.Dataset(b.target_test.features[:, i:i + batch]) for b in bundles]
        for i in range(0, n_test, batch)
    ]
    return Inputs(seed, config, bundles, maps, p, tests, bundle.target_test.labels)


# ---------------------------------------------------------------------------
# operations: each returns (timings and counts, outputs to check)
# ---------------------------------------------------------------------------


def run_op(workload: str, inp: Inputs, out_dir: str) -> tuple[dict, dict]:
    return _RUNNERS[workload](inp, out_dir)


def _grid(inp: Inputs, out_dir: str):
    t0 = time.perf_counter()
    report = bench.run_benchmark(inp.config)
    paths = bench.emit_report(report, out_dir)
    rows = bench.run_sweep(inp.config)
    wall = time.perf_counter() - t0
    fits = sum(n for _, _, n, _ in report.timing) + len(rows)
    eda = next(s for s in report.summaries if s.method == "eda")
    timing = {"wall_s": wall, "fit_s": wall, "fits": fits,
              "rows": fits * inp.config.n_test, "predict_s": [wall],
              "accuracy": eda.best_mean}
    out = {"per_seed": report.per_seed, "convergence": report.convergence,
           "sweep": rows, "paths": paths}
    return timing, out


def _tall(inp: Inputs, out_dir: str):
    path = os.path.join(out_dir, "model.json")
    bundle, hm = inp.bundles[0], inp.maps[0]
    t0 = time.perf_counter()
    phi = preclassify.preclassify_elm(bundle, hm, inp.config.pre_ridge)
    model = single.fit_eda(bundle, phi, inp.params, hidden_map=hm)
    modelio.save_model(model, path)
    fit_s = time.perf_counter() - t0

    def score():
        loaded = modelio.load_model(path)
        return loaded, [single.predict_eda(loaded, views[0])[1] for views in inp.tests]

    return _fit_result(inp, t0, fit_s, model, score)


def _wide(inp: Inputs, out_dir: str):
    path = os.path.join(out_dir, "model")
    t0 = time.perf_counter()
    phis = [preclassify.preclassify_elm(b, m, inp.config.pre_ridge)
            for b, m in zip(inp.bundles, inp.maps)]
    model = multiview.fit_mveda(inp.bundles, phis, inp.params, hidden_maps=inp.maps)
    modelio.save_model(model, path)
    fit_s = time.perf_counter() - t0

    def score():
        loaded = modelio.load_model(path)
        return loaded, [multiview.predict_mveda(loaded, views)[1] for views in inp.tests]

    return _fit_result(inp, t0, fit_s, model, score)


def _fit_result(inp, t0, fit_s, model, score):
    """Time ``PREDICT_PASSES`` load-and-score passes over the test split."""
    passes, pass_scores = [], []
    for _ in range(PREDICT_PASSES):
        t1 = time.perf_counter()
        loaded, scores = score()
        passes.append(time.perf_counter() - t1)
        pass_scores.append(np.vstack(scores))
    scores = pass_scores[0]
    acc = metrics.accuracy(data.decode_labels(scores), inp.y_test)
    timing = {"wall_s": time.perf_counter() - t0, "fit_s": fit_s, "fits": 1,
              "rows": scores.shape[0], "predict_s": passes, "accuracy": acc}
    out = {"history": np.asarray(model.objective_history), "scores": scores,
           "repeat_scores": pass_scores[1:], "accuracy": acc, "model": model,
           "loaded": loaded}
    return timing, out


_RUNNERS = {"grid": _grid, "tall": _tall, "wide": _wide}


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------


def _point(p) -> str:
    return "/".join(repr(float(x)) for x in p)


def _histories(convergence) -> dict[str, list[float]]:
    hist: dict[str, list[float]] = {}
    for run_id, _, obj in convergence:
        hist.setdefault(run_id, []).append(obj)
    return hist


def reference_of(workload: str, out: dict) -> dict:
    """The values of one operation's outputs that later runs must match."""
    if workload == "grid":
        return {
            "per_seed": {f"{m}|{_point(p)}": v for m, _, p, v in out["per_seed"]},
            "final_objective": {k: h[-1] for k, h in
                                _histories(out["convergence"]).items()},
            "sweep": {_point(r[:2]): r[2] for r in out["sweep"]},
        }
    return {"accuracy": out["accuracy"],
            "final_objective": float(out["history"][-1])}


def _rise(history) -> float:
    """Largest step up of an objective history, relative to 1 + |value|."""
    h = np.asarray(history, dtype=np.float64)
    return float(np.max(np.diff(h) / (1.0 + np.abs(h[:-1])), initial=0.0))


def _off(value: float, ref: float, atol: float = 0.0, rtol: float = 0.0) -> bool:
    return not (math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref))


def check(workload: str, out: dict, ref: dict | None) -> list[str]:
    """Problems with one operation's outputs; empty when they are correct."""
    if ref is None:
        return ["no recorded reference for this input"]
    got = reference_of(workload, out)
    problems = []
    if workload == "grid":
        for run_id, h in _histories(out["convergence"]).items():
            if _rise(h) > DESCENT_RTOL:
                problems.append(f"objective rises in {run_id}: {h!r}")
        for part, tol in (("per_seed", {"atol": ACC_ATOL}),
                          ("final_objective", {"rtol": OBJ_RTOL}),
                          ("sweep", {"atol": ACC_ATOL})):
            if set(got[part]) != set(ref[part]):
                problems.append(f"{part}: keys differ from the reference")
                continue
            problems += [f"{part} {k}: {got[part][k]!r} vs reference {ref[part][k]!r}"
                         for k in ref[part] if _off(got[part][k], ref[part][k], **tol)]
        missing = [k for k, p in out["paths"].items() if not os.path.getsize(p)]
        problems += [f"empty report file {k}" for k in missing]
        return problems
    if not np.isfinite(out["scores"]).all():
        problems.append("non-finite scores")
    if not all(np.array_equal(out["scores"], s) for s in out["repeat_scores"]):
        problems.append("scoring the same rows twice gave different scores")
    if _rise(out["history"]) > DESCENT_RTOL:
        problems.append(f"objective rises: {out['history'].tolist()}")
    if _off(got["accuracy"], ref["accuracy"], atol=ACC_ATOL):
        problems.append(f"accuracy {got['accuracy']!r} vs reference {ref['accuracy']!r}")
    if _off(got["final_objective"], ref["final_objective"], rtol=OBJ_RTOL):
        problems.append(f"final objective {got['final_objective']!r} vs "
                        f"reference {ref['final_objective']!r}")
    model, loaded = out["model"], out["loaded"]
    betas = getattr(model, "betas", None) or [model.beta]
    loaded_betas = getattr(loaded, "betas", None) or [loaded.beta]
    if not all(np.array_equal(a, b) for a, b in zip(betas, loaded_betas)):
        problems.append("saved and loaded model weights differ")
    return problems


REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_references(workload: str, scale: str, path: str = REFERENCES) -> dict:
    """``{data seed: reference}`` for the workload at this scale's sizes."""
    try:
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return {}
    key = f"{workload}:{fingerprint(*make_config(workload, scale))}"
    return {int(s): r for s, r in table.get(key, {}).items()}
