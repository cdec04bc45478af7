"""Benchmark harness: config parsing, resplits, fairness token, reports."""

import os
import re
import signal
import threading
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from edapt import (
    BenchConfig,
    EdaParams,
    ParameterError,
    ParseError,
    accuracy,
    augment_noise_view,
    build_problem,
    default_config,
    derive_view_seed,
    emit_report,
    emit_sweep,
    fit_eda,
    fit_mveda,
    generate_shift,
    mean_average_precision,
    new_hidden_map,
    preclassify_elm,
    predict_eda,
    predict_mveda,
    run_benchmark,
    run_sweep,
    standardize_bundle,
)
from edapt import bench
from edapt.bench import (
    METHOD_LABELS,
    BenchReport,
    MethodSummary,
    _parse_value,
    check_synthetic_graph,
    config_hash,
    config_text,
    load_config,
    parse_config,
    resplit_bundle,
    split_map_hash,
    synth_spec,
)
from edapt.data import decode_labels, save_bundle
from edapt.features import map_features
from edapt.graph import laplacian_gram
from edapt.preclassify import average_prelabels, preclassify_kernel
from edapt.single import _alternate

from helpers import run_python


def _fast(**over):
    over.setdefault("seeds", (0, 1))
    over.setdefault("grid", (1.0, 10.0))
    over.setdefault("n_source", 30)
    over.setdefault("n_unlabeled", 12)
    over.setdefault("n_test", 12)
    over.setdefault("m", 2)
    cfg = default_config(**over)
    return replace(cfg, params=replace(cfg.params, n_hidden=20, max_iter=2))


def _pool_bundle(seed=0):
    # small labeled-test bundle usable as a resplit pool
    spec = synth_spec(_fast(), seed)
    return generate_shift(spec)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_parse_value_kinds():
    assert _parse_value("bool", "Yes") is True
    assert _parse_value("bool", "0") is False
    with pytest.raises(ParseError):
        _parse_value("bool", "maybe")
    assert _parse_value("strlist", "a, b ,c") == ("a", "b", "c")
    assert _parse_value("intlist", "0,1, 2") == (0, 1, 2)
    assert _parse_value("floatlist", "1.5,2") == (1.5, 2.0)
    assert _parse_value("rows", "1,2; 3,4") == ((1.0, 2.0), (3.0, 4.0))


def test_parse_config_routes_solver_keys():
    cfg = parse_config({
        "metric": "map",
        "seeds": "0,1",
        "m": "2",
        "n_hidden": "50",
        "c_target": "500",
        "standardize": "false",
    })
    assert cfg.metric == "map"
    assert cfg.seeds == (0, 1)
    assert cfg.m == 2
    assert cfg.standardize is False
    assert cfg.params.n_hidden == 50
    assert cfg.params.c_target == 500.0
    with pytest.raises(ParseError):
        parse_config({"not_a_key": "1"})


def test_config_validation():
    with pytest.raises(ParameterError):
        default_config(metric="rmse")
    with pytest.raises(ParameterError):
        default_config(methods=("elm_s", "mystery"))
    with pytest.raises(ParameterError):
        default_config(seeds=())
    with pytest.raises(ParameterError):
        default_config(m=0)
    with pytest.raises(ParameterError):
        default_config(grid=(1.0, -1.0))
    with pytest.raises(ParameterError):
        default_config(views=0)


@pytest.mark.parametrize("over, want", [
    ({"methods": ()}, "methods must hold at least one value"),
    ({"methods": ("elm_s", "eda", "elm_s")},
     r"methods values must be distinct; repeated \['elm_s'\]"),
    ({"seeds": (0, 1, 0)}, r"seeds values must be distinct; repeated \[0\]"),
    ({"seeds": (0, -1)}, r"seeds must be >= 0, got \(0, -1\)"),
    ({"seeds": (0, 1.5)}, "seeds must be an integer, got 1.5"),
])
def test_config_refuses_empty_repeated_and_negative_entries(over, want):
    # no methods crashed emit_report; a repeated method wrote its rows
    # twice, a repeated seed counted twice in every mean and std, and a
    # negative seed failed inside numpy's seeding
    with pytest.raises(ParameterError, match=want):
        default_config(**over)


def test_config_checks_n_neighbors_against_the_synthetic_graph():
    # 2 labeled per class x 3 classes + 12 unlabeled target rows; sselm's
    # graph also holds the 30 source rows, and the ELM baselines build none
    want = ("key 'n_neighbors': 18 needs at least 19 samples for the k-NN graph, "
            "the synthetic scenario has 18")
    base = _fast()
    k18 = replace(base.params, n_neighbors=18)
    config = replace(base, params=k18)  # a config alone builds no graph
    for run in (run_benchmark, run_sweep, check_synthetic_graph):
        with pytest.raises(ParameterError, match=want):
            run(config)
    check_synthetic_graph(replace(base, params=k18, methods=("sselm",)))
    check_synthetic_graph(replace(base, params=k18, methods=("elm_s", "elm_t")))
    check_synthetic_graph(replace(base, params=k18, data="bundle/manifest.txt"))


def test_repeated_grid_values_are_rejected():
    with pytest.raises(ParameterError, match=r"repeated \[1\.0\]"):
        default_config(grid=(1.0, 10.0, 1.0))


def test_config_hash_is_stable_and_sensitive():
    a, b = default_config(), default_config()
    assert config_text(a) == config_text(b)
    assert config_hash(a) == config_hash(b)
    assert config_hash(default_config(m=5)) != config_hash(a)
    assert config_hash(default_config(metric="map")) != config_hash(a)
    # every configurable key appears in the canonical text
    text = config_text(a)
    for key in ("methods", "grid", "c_source", "n_hidden", "standardize"):
        assert f"{key} = " in text


def test_config_text_names_every_setting():
    # a setting left out of the canonical text would be left out of the
    # config hash, so two different runs could share report names
    text = config_text(default_config())
    names = [f.name for f in fields(BenchConfig) if f.name != "params"]
    names += [f.name for f in fields(EdaParams)]
    for name in names:
        assert f"\n{name} = " in "\n" + text, name


def test_synth_spec_carries_the_split_sizes():
    cfg = _fast(rotation_deg=45.0)
    spec = synth_spec(cfg, seed=7)
    assert spec.seed == 7
    assert spec.n_labeled_per_class == 2
    assert spec.n_source == 30
    assert spec.rotation_deg == 45.0
    assert spec.means.shape == (3, 2)


# ---------------------------------------------------------------------------
# resplitting a manifest pool
# ---------------------------------------------------------------------------


def test_resplit_draws_m_per_class_and_conserves_the_pool():
    bundle = _pool_bundle()
    out = resplit_bundle(bundle, 2, seed=0)
    assert out.source is bundle.source
    counts = np.bincount(out.target_labeled.labels, minlength=3)
    assert np.array_equal(counts, [2, 2, 2])
    assert out.target_unlabeled.labels is None
    # labeled + test columns are exactly the original pool columns
    pool = np.hstack([bundle.target_labeled.features,
                      bundle.target_test.features])
    got = np.hstack([out.target_labeled.features, out.target_test.features])
    assert np.array_equal(np.sort(pool, axis=1), np.sort(got, axis=1))
    # held-out rows are reused (unlabeled = rest of pool + original unlabeled)
    n_pool = pool.shape[1]
    assert out.target_unlabeled.n == (n_pool - 6) + bundle.target_unlabeled.n
    assert out.target_test.n == n_pool - 6


def test_resplit_is_seeded():
    bundle = _pool_bundle()
    a = resplit_bundle(bundle, 2, seed=3)
    b = resplit_bundle(bundle, 2, seed=3)
    c = resplit_bundle(bundle, 2, seed=4)
    assert np.array_equal(a.target_labeled.features, b.target_labeled.features)
    assert not np.array_equal(a.target_labeled.features,
                              c.target_labeled.features)


def test_resplit_needs_enough_pool_per_class():
    bundle = _pool_bundle()
    with pytest.raises(ParameterError):
        resplit_bundle(bundle, 50, seed=0)
    stripped = type(bundle)(bundle.source, bundle.target_labeled,
                            bundle.target_unlabeled, bundle.n_classes, None)
    with pytest.raises(ParameterError):
        resplit_bundle(stripped, 2, seed=0)


@pytest.mark.parametrize("m, k, want", [
    # 18 pool rows (2 labeled and 4 test per class) plus 12 unlabeled
    (2, 30, "key 'n_neighbors': 30 needs at least 31 samples for the k-NN graph, "
            "{manifest} has 30"),
    (6, 5, "key 'm': {manifest}: class 0 has 6 pool samples; need at least 7"),
])
def test_a_manifest_run_refuses_k_and_m_before_its_first_seed(tmp_path, monkeypatch,
                                                              m, k, want):
    manifest = save_bundle(_pool_bundle(), str(tmp_path))
    monkeypatch.setattr(bench, "_context", lambda *a: pytest.fail("a seed was built"))
    config = _fast(data=manifest, m=m)
    config = replace(config, params=replace(config.params, n_neighbors=k))
    for run in (run_benchmark, run_sweep):
        with pytest.raises(ParameterError, match=re.escape(want.format(manifest=manifest))):
            run(config)


def test_split_map_hash_tracks_content():
    bundle = _pool_bundle(seed=0)
    hm = new_hidden_map(8, 2, seed=0)
    token = split_map_hash(bundle, hm)
    assert token == split_map_hash(bundle, hm)
    assert token != split_map_hash(_pool_bundle(seed=1), hm)
    assert token != split_map_hash(bundle, new_hidden_map(8, 2, seed=1))


# ---------------------------------------------------------------------------
# the benchmark driver
# ---------------------------------------------------------------------------


def test_benchmark_summaries_recompute_from_per_seed_rows():
    cfg = _fast(methods=("elm_s", "elm_st"))
    report = run_benchmark(cfg)
    assert len(report.per_seed) == 2 * 2 * 2  # methods x seeds x grid
    assert [s.method for s in report.summaries] == ["elm_s", "elm_st"]
    for s in report.summaries:
        assert s.label == METHOD_LABELS[s.method]
        by_point = {}
        for method, _seed, point, value in report.per_seed:
            if method == s.method:
                by_point.setdefault(point, []).append(value)
        means = {pt: float(np.mean(v)) for pt, v in by_point.items()}
        assert s.best_mean == max(means.values())
        assert means[s.best_point] == s.best_mean
        assert s.best_std == float(np.std(by_point[s.best_point]))
    # one split token per seed, identical across methods by construction
    assert [seed for seed, _ in report.split_hashes] == [0, 1]


def test_benchmark_is_deterministic():
    cfg = _fast(methods=("elm_s",), seeds=(0,))
    a, b = run_benchmark(cfg), run_benchmark(cfg)
    assert a.summaries == b.summaries
    assert a.per_seed == b.per_seed
    assert a.split_hashes == b.split_hashes


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the stock nine-method, two-seed bench: each seed runs on one BLAS
    # thread, so two threads leave every deterministic report unchanged
    cfg = tmp_path / "nine.cfg"
    cfg.write_text(f"methods = {','.join(METHOD_LABELS)}\nseeds = 0,1\n")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run_python(["-m", "edapt", "bench", "--config", str(cfg), "--out-dir", str(out)],
                   OPENBLAS_NUM_THREADS=threads)
        reports.append({f.name: f.read_bytes() for f in sorted(out.iterdir())
                        if not f.name.startswith("timing_")})
    assert any(name.startswith("convergence_") for name in reports[0])
    assert reports[0] == reports[1]


def test_adaptation_runs_record_convergence_and_defaults():
    cfg = _fast(methods=("eda",), seeds=(0,))
    report = run_benchmark(cfg)
    # 2x2 weight grid
    assert len(report.per_seed) == 4
    run_ids = {rid for rid, _, _ in report.convergence}
    assert "eda_s0_1_10" in run_ids
    s = report.summaries[0]
    assert s.default_point == (cfg.params.c_source, cfg.params.c_target)
    assert report.view_weights == []


def test_multiview_runs_record_view_weights():
    cfg = _fast(methods=("mveda",), seeds=(0,), grid=(1.0,))
    report = run_benchmark(cfg)
    assert report.view_weights
    rid, it, view, w = report.view_weights[0]
    assert rid == "mveda_s0_1_1" and it == 1 and view == 0 and 0.0 <= w <= 1.0
    iters = cfg.params.max_iter
    views = cfg.views
    n_hist = max(it for _, it, _, _ in report.view_weights)
    assert len(report.view_weights) == n_hist * views
    for i in range(1, n_hist + 1):
        row = [w for _, it_, _, w in report.view_weights if it_ == i]
        assert abs(sum(row) - 1.0) < 1e-12


def test_multiview_prelabels_are_computed_once_per_seed(monkeypatch):
    import edapt.preclassify
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return preclassify_elm(*args, **kwargs)

    monkeypatch.setattr(edapt.preclassify, "preclassify_elm", counting)
    cfg = _fast(methods=("mveda",))
    run_benchmark(cfg)
    assert len(calls) == cfg.views * len(cfg.seeds)


def test_builtin_prelabels_are_computed_once_per_seed(monkeypatch):
    # eda_avg averages the two kernel ridges eda_lap and eda_inv anchor
    # to, and eda shares mveda's first-view random-feature ridge
    import edapt.preclassify
    calls = {"elm": 0, "kernel": 0}

    def counting(name, producer):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return producer(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(edapt.preclassify, "preclassify_elm",
                        counting("elm", preclassify_elm))
    monkeypatch.setattr(edapt.preclassify, "preclassify_kernel",
                        counting("kernel", preclassify_kernel))
    cfg = _fast(methods=("eda", "eda_lap", "eda_inv", "eda_avg", "mveda"))
    run_benchmark(cfg)
    assert calls == {"elm": cfg.views * len(cfg.seeds), "kernel": 2 * len(cfg.seeds)}


ADAPTATION = ("eda", "eda_lap", "eda_inv", "eda_avg", "mveda")


# each method alone, then all five together: they differ only in their
# pre-classifier scores, so they share each seed's view problems
@pytest.mark.parametrize("methods", [*ADAPTATION, ",".join(ADAPTATION)])
def test_adaptation_problems_are_built_once_per_seed(methods, monkeypatch):
    import edapt.bench
    import edapt.single
    built = []

    def counting(bundle, *args, **kwargs):
        built.append(bundle)
        return build_problem(bundle, *args, **kwargs)

    # every module binding the library builds problems through
    for module in (edapt.bench, edapt.single):
        monkeypatch.setattr(module, "build_problem", counting)
    cfg = _fast(methods=tuple(methods.split(",")))
    run_benchmark(cfg)
    views = cfg.views if "mveda" in cfg.methods else 1
    assert len(built) == views * len(cfg.seeds)
    assert len({id(b) for b in built}) == len(built)


def test_adaptation_grams_are_built_once_per_seed_and_view(monkeypatch):
    import edapt.bench
    import edapt.single
    built = []

    def counting(graph, h):
        built.append(h.shape)
        return laplacian_gram(graph, h)

    def fresh(problems, params, grams):
        return _alternate(problems, params)

    monkeypatch.setattr(edapt.single, "laplacian_gram", counting)
    # 48 stacked rows: every view primal at L = 20, in sample space at
    # L = 60, where no fit builds a Gram
    for n_hidden, grams in ((20, 2 * 2), (60, 0)):
        cfg = _fast(methods=ADAPTATION)  # 2 seeds x 2 views
        cfg = replace(cfg, params=replace(cfg.params, n_hidden=n_hidden))
        built.clear()
        cached = run_benchmark(cfg)
        assert len(built) == grams
        with monkeypatch.context() as m:
            m.setattr(edapt.bench, "_alternate", fresh)
            report = run_benchmark(cfg)
        assert report.per_seed == cached.per_seed
        assert report.convergence == cached.convergence


# the baselines map their training rows on first use; an adaptation
# method's problem maps its own, so no row is mapped twice without them
@pytest.mark.parametrize("methods", ["eda", "mveda", "elm_s,elm_t,elm_st", "sselm"])
def test_no_rows_are_mapped_twice_by_one_method_kind(methods, monkeypatch):
    import edapt.bench
    import edapt.single
    mapped = []
    alive = []  # ids name distinct objects only while those objects live

    def counting(hidden_map, data, *args, **kwargs):
        alive.append(data)
        mapped.append((id(hidden_map), id(data)))
        return map_features(hidden_map, data, *args, **kwargs)

    for module in (edapt.bench, edapt.single):
        monkeypatch.setattr(module, "map_features", counting)
    run_benchmark(_fast(methods=tuple(methods.split(","))))
    assert mapped and len(set(mapped)) == len(mapped)


@pytest.mark.parametrize("metric", ["accuracy", "map"])
def test_adaptation_grid_matches_the_public_fit_and_predict(metric):
    cfg = _fast(methods=ADAPTATION, views=3, metric=metric)
    score = (lambda s, y: accuracy(decode_labels(s), y)) if metric == "accuracy" \
        else mean_average_precision
    report = run_benchmark(cfg)
    p0 = cfg.params
    values = {(m, s, pt): v for m, s, pt, v in report.per_seed}
    histories, weights = {}, {}
    for run_id, _, obj in report.convergence:
        histories.setdefault(run_id, []).append(obj)
    for run_id, it, _, w in report.view_weights:
        weights.setdefault((run_id, it), []).append(w)
    n_runs = 0
    for seed in cfg.seeds:
        bundle = standardize_bundle(generate_shift(synth_spec(cfg, seed)))
        hm = new_hidden_map(p0.n_hidden, bundle.target_dim, p0.activation, seed)
        bundles, maps = [bundle], [hm]
        for v in range(1, cfg.views):
            bundles.append(augment_noise_view(bundle, cfg.noise_dim,
                                              derive_view_seed(seed, v)))
            maps.append(new_hidden_map(p0.n_hidden, bundles[-1].target_dim,
                                       p0.activation, derive_view_seed(seed, v)))
        phis = [preclassify_elm(b, m, cfg.pre_ridge) for b, m in zip(bundles, maps)]
        lap = preclassify_kernel(bundle, "laplacian", cfg.pre_ridge)
        inv = preclassify_kernel(bundle, "inverse", cfg.pre_ridge)
        single_phi = {"eda": phis[0], "eda_lap": lap, "eda_inv": inv,
                      "eda_avg": average_prelabels([lap, inv])}
        y = bundle.target_test.labels
        for cs in cfg.grid:
            for ct in cfg.grid:
                p = replace(p0, seed=seed, c_source=cs, c_target=ct)
                for method, phi in single_phi.items():
                    model = fit_eda(bundle, phi, p, hidden_map=hm)
                    _, scores = predict_eda(model, bundle.target_test)
                    assert values[(method, seed, (cs, ct))] == score(scores, y)
                    run_id = f"{method}_s{seed}_{cs:g}_{ct:g}"
                    assert histories.pop(run_id) == list(model.objective_history)
                    n_runs += 1
                model = fit_mveda(bundles, phis, p, hidden_maps=maps)
                _, scores, _ = predict_mveda(model, [b.target_test for b in bundles])
                assert values[("mveda", seed, (cs, ct))] == score(scores, y)
                run_id = f"mveda_s{seed}_{cs:g}_{ct:g}"
                assert histories.pop(run_id) == list(model.objective_history)
                for it, row in enumerate(model.alpha_history, start=1):
                    assert weights.pop((run_id, it)) == list(row)
                n_runs += 1
    assert n_runs == len(report.per_seed)
    assert histories == {} and weights == {}


# ---------------------------------------------------------------------------
# one seed's points split among forked processes
# ---------------------------------------------------------------------------


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pid_log(path, fn):
    # fn, appending the calling process's pid to path on every call
    def logged(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fn(*args, **kwargs)
    return logged


@pytest.mark.parametrize("metric", ["accuracy", "map"])
def test_split_points_give_the_serial_reports(metric, tmp_path, monkeypatch):
    cfg = _fast(methods=tuple(METHOD_LABELS), views=3, metric=metric)
    reports, pids = [], []
    for cpus in (1, 3):
        log = tmp_path / f"alternate{cpus}"
        monkeypatch.setattr(bench, "_cpu_count", lambda cpus=cpus: cpus)
        monkeypatch.setattr(bench, "_alternate", _pid_log(log, _alternate))
        reports.append(run_benchmark(cfg))
        pids.append(log.read_text().split())
    _no_children_left()
    serial, split = reports
    for name in ("per_seed", "convergence", "view_weights", "summaries"):
        assert getattr(split, name) == getattr(serial, name)
    assert [row[:3] for row in split.timing] == [row[:3] for row in serial.timing]
    # 25 adaptation fits per seed: a 2 x 2 grid plus the default point
    assert len(pids[0]) == len(pids[1]) == 2 * 5 * len(ADAPTATION)
    assert set(pids[0]) == {str(os.getpid())}
    assert str(os.getpid()) in pids[1] and 1 + 2 * 2 == len(set(pids[1]))


def test_every_shared_input_is_built_in_the_parent(tmp_path, monkeypatch):
    import edapt.preclassify
    import edapt.single
    log = tmp_path / "pids"
    monkeypatch.setattr(bench, "_cpu_count", lambda: 3)
    for module, name in ((bench, "build_problem"), (edapt.single, "build_problem"),
                         (edapt.preclassify, "preclassify_elm"),
                         (edapt.preclassify, "preclassify_kernel"),
                         (edapt.single, "laplacian_gram"),
                         (bench, "build_knn_graph"), (edapt.single, "build_knn_graph"),
                         # every view's map is drawn, and every row mapped, on
                         # first use: in the parent, before any point runs
                         (edapt.single, "new_hidden_map"),
                         (bench, "map_features"), (edapt.single, "map_features")):
        monkeypatch.setattr(module, name, _pid_log(log, getattr(module, name)))
    run_benchmark(_fast(methods=tuple(METHOD_LABELS)))
    pids = log.read_text().split()
    assert pids and set(pids) == {str(os.getpid())}


@pytest.mark.parametrize("serial_because", ["one cpu", "no fork", "threads", "order"])
def test_a_serial_seed_forks_nothing(serial_because, monkeypatch):
    monkeypatch.setattr(bench, "_cpu_count", lambda: 1 if serial_because == "one cpu" else 3)
    if serial_because == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    if serial_because == "order":  # at L = 20 the seed's order is 20
        monkeypatch.setattr(bench, "_PIN_BELOW", 20)
    done = threading.Event()
    waiter = threading.Thread(target=done.wait, args=(60,))
    if serial_because == "threads":
        waiter.start()
    try:
        report = run_benchmark(_fast(methods=("eda", "elm_s")))
    finally:
        done.set()
        if serial_because == "threads":
            waiter.join(60)
    assert not waiter.is_alive()
    assert len(report.per_seed) == 2 * (4 + 2)


def test_the_worker_count_is_capped_by_cpus_and_points(monkeypatch):
    monkeypatch.setattr(bench, "_cpu_count", lambda: 4)
    assert [bench._workers(n, 200) for n in (1, 3, 4, 9)] == [1, 3, 4, 4]
    assert bench._workers(9, bench._PIN_BELOW) == 1


def _failing_at(points, fail):
    # _alternate, failing by ``fail`` at the (c_source, c_target) points
    def alternate(problems, params, grams=None):
        if (params.c_source, params.c_target) in points:
            fail()
        return _alternate(problems, params, grams)
    return alternate


def _boom():
    raise ParameterError("boom")


# tasks 0-4 of eda at seed 0 run in processes 0, 1, 0, 1, 0 of two: the
# first failing task in task order is raised, wherever it ran
@pytest.mark.parametrize("points, named", [
    ([(1.0, 10.0)], "1/10"),
    ([(10.0, 1.0)], "10/1"),
    ([(10.0, 1.0), (10.0, 10.0)], "10/1"),
    ([(1.0, 10.0), (10.0, 1.0)], "1/10"),
])
def test_a_failing_point_is_raised_with_its_type_and_name(points, named, monkeypatch):
    monkeypatch.setattr(bench, "_cpu_count", lambda: 2)
    monkeypatch.setattr(bench, "_alternate", _failing_at(points, _boom))
    with pytest.raises(ParameterError, match=f"^eda at seed 0, point {named}: boom$"):
        run_benchmark(_fast(methods=("eda",), seeds=(0,)))
    _no_children_left()


def test_a_warning_raised_as_an_error_in_a_child_fails_as_in_a_serial_run(monkeypatch):
    # pyproject's filters turn RuntimeWarning into an error; the child
    # inherits them, so its fit fails where the serial run's would
    def drift():
        warnings.warn("drift", RuntimeWarning)

    monkeypatch.setattr(bench, "_cpu_count", lambda: 2)
    monkeypatch.setattr(bench, "_alternate", _failing_at([(1.0, 10.0)], drift))
    with pytest.raises(RuntimeWarning, match="^eda at seed 0, point 1/10: drift$"):
        run_benchmark(_fast(methods=("eda",), seeds=(0,)))
    _no_children_left()


@pytest.mark.parametrize("end, how", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
])
def test_a_child_that_ends_without_reporting_names_its_seed(end, how, monkeypatch):
    parent = os.getpid()

    def end_child():
        if os.getpid() == parent:
            pytest.fail("the point ran in the test's own process")
        end()

    monkeypatch.setattr(bench, "_cpu_count", lambda: 2)
    monkeypatch.setattr(bench, "_alternate", _failing_at([(1.0, 10.0)], end_child))
    with pytest.raises(RuntimeError, match=f"^seed 1: .* without reporting .*{how}"):
        run_benchmark(_fast(methods=("eda",), seeds=(1,)))
    _no_children_left()


def test_each_points_warning_is_warned_once_in_task_order(monkeypatch):
    def warning(problems, params, grams=None):
        if (params.c_source, params.c_target) == (10.0, 10.0):
            phi = float(problems[0].prelabels.sum())
            warnings.warn(f"{len(problems)} views, phi {phi!r}", UserWarning)
        return _alternate(problems, params, grams)

    monkeypatch.setattr(bench, "_alternate", warning)
    cfg = _fast(methods=ADAPTATION)
    seen = []
    for cpus in (1, 3):
        monkeypatch.setattr(bench, "_cpu_count", lambda cpus=cpus: cpus)
        with pytest.warns(UserWarning) as record:
            run_benchmark(cfg)
        seen.append([str(w.message) for w in record])
    serial, split = seen
    assert split == serial
    assert len(set(split)) == len(split) == len(ADAPTATION) * len(cfg.seeds)


def test_manifest_data_is_resplit_per_seed(tmp_path):
    manifest = save_bundle(_pool_bundle(), str(tmp_path / "b"))
    cfg = _fast(data=manifest, methods=("elm_s",), standardize=False)
    report = run_benchmark(cfg)
    tokens = [t for _, t in report.split_hashes]
    assert len(set(tokens)) == 2  # different seed, different split
    with pytest.raises(ParameterError):
        run_benchmark(_fast(data=manifest, methods=("mveda",)))


def test_emit_report_names_files_by_config_hash(tmp_path):
    cfg = _fast(methods=("elm_s",), seeds=(0,))
    report = run_benchmark(cfg)
    paths = emit_report(report, str(tmp_path))
    h = report.config_hash
    assert set(paths) == {"results", "per_seed", "convergence", "timing",
                          "table", "config"}
    for name, p in paths.items():
        assert p.endswith(f"{name}_{h}.csv") or p.endswith(f"{name}_{h}.txt")
        with open(p) as fh:
            assert fh.read().strip()
    with open(paths["per_seed"]) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    assert lines[0] == "method,seed,point,value\n"
    # repr floats round-trip exactly
    for ln, (method, seed, point, value) in zip(lines[1:], report.per_seed):
        assert float(ln.rsplit(",", 1)[1]) == value


def test_sweep_covers_the_grid_in_order(tmp_path):
    cfg = _fast(methods=("elm_s",))
    rows = run_sweep(cfg)
    assert [(cs, ct) for cs, ct, _, _ in rows] == [
        (1.0, 1.0), (1.0, 10.0), (10.0, 1.0), (10.0, 10.0)]
    assert all(0.0 <= mean <= 1.0 and std >= 0.0 for _, _, mean, std in rows)
    # the rows are the per-point aggregates of the benchmark's eda grid
    report = run_benchmark(replace(cfg, methods=("eda",)))
    for cs, ct, mean, std in rows:
        vals = [v for _, _, pt, v in report.per_seed if pt == (cs, ct)]
        assert len(vals) == len(cfg.seeds)
        assert (mean, std) == (float(np.mean(vals)), float(np.std(vals)))
    path = emit_sweep(rows, cfg, str(tmp_path))
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    assert lines[0] == "c_source,c_target,mean,std\n"
    assert len(lines) == 1 + len(rows)


def _hand_report(cfg):
    # fixed floats, two methods, view weights and timing; no solver runs
    return BenchReport(
        config=cfg,
        config_hash=config_hash(cfg),
        summaries=[
            MethodSummary("elm_s", METHOD_LABELS["elm_s"], (10.0,), 0.75, 0.05,
                          (1.0,), 0.5, 0.25),
            MethodSummary("mveda", METHOD_LABELS["mveda"], (1.0, 10.0), 0.875, 0.0,
                          (1.0, 1000.0), 0.1, 1e-17),
        ],
        per_seed=[("elm_s", 0, (1.0,), 0.25), ("elm_s", 1, (1.0,), 0.75),
                  ("mveda", 0, (1.0, 10.0), 0.875), ("mveda", 1, (1.0, 10.0), 0.875)],
        convergence=[("mveda_s0_1_10", 1, 12.5),
                     ("mveda_s0_1_10", 2, 0.30000000000000004)],
        view_weights=[("mveda_s0_1_10", 1, 0, 0.5), ("mveda_s0_1_10", 1, 1, 0.5),
                      ("mveda_s0_1_10", 2, 0, 0.6), ("mveda_s0_1_10", 2, 1, 0.4)],
        timing=[("elm_s", 0, 2, 0.001), ("mveda", 0, 4, 0.25)],
        split_hashes=[(0, "00112233445566ff"), (1, "8899aabbccddeeff")],
    )


_NOTE = (
    "# splits: regenerated (synthetic) or reshuffled from the labeled target pool\n"
    "#         (manifest) per seed, m labeled target samples per class; all\n"
    "#         methods share each seed's split and hidden map (hash-checked)\n"
    "# selection: best-on-grid takes the grid point with the best mean test\n"
    "#         metric (optimistic, tuned on test); fixed-default uses the\n"
    "#         configured parameters unchanged\n"
)

_PINNED = {
    "results": ("results_bf4749229539.csv", "benchmark summary", (
        "method,label,best_point,best_mean,best_std,default_point,default_mean,"
        "default_std",
        "elm_s,ELM (source only),10,0.75,0.05,1,0.5,0.25",
        "mveda,MvEDA,1/10,0.875,0.0,1/1000,0.1,1e-17")),
    "per_seed": ("per_seed_bf4749229539.csv", "per-seed metric values", (
        "method,seed,point,value",
        "elm_s,0,1,0.25",
        "elm_s,1,1,0.75",
        "mveda,0,1/10,0.875",
        "mveda,1,1/10,0.875")),
    "convergence": ("convergence_bf4749229539.csv", "objective per iteration", (
        "run_id,iteration,objective",
        "mveda_s0_1_10,1,12.5",
        "mveda_s0_1_10,2,0.30000000000000004")),
    "view_weights": ("view_weights_bf4749229539.csv", "view weights per iteration", (
        "run_id,iteration,view,weight",
        "mveda_s0_1_10,1,0,0.5",
        "mveda_s0_1_10,1,1,0.5",
        "mveda_s0_1_10,2,0,0.6",
        "mveda_s0_1_10,2,1,0.4")),
    "timing": ("timing_bf4749229539.csv", "wall-clock fit times (not reproducible)", (
        "method,seed,n_fits,fit_seconds",
        "elm_s,0,2,0.001",
        "mveda,0,4,0.25")),
    "table": ("table_bf4749229539.txt", "benchmark table", (
        "method             best grid  best              default",
        "-----------------  ---------  ----------------  ----------------",
        "ELM (source only)  10         0.7500 +- 0.0500  0.5000 +- 0.2500",
        "MvEDA              1/10       0.8750 +- 0.0000  0.1000 +- 0.0000")),
    "config": ("config_bf4749229539.txt", "configuration echo", (
        "cov_scale = 0.16", "data = synth", "grid = 1.0,10.0", "m = 3", "means = ",
        "methods = elm_s,mveda", "metric = accuracy", "n_source = 150",
        "n_test = 150", "n_unlabeled = 150", "noise_dim = 2", "pre_ridge = 1.0",
        "rotation_deg = 30.0", "scale = 1.0", "seeds = 0,1", "standardize = true",
        "translation = 2.0,0.0", "views = 2", "activation = radbas",
        "c_source = 1.0", "c_target = 1000.0", "drift_weight = 1.0",
        "fidelity_weight = 20.0", "manifold_weight = 1.0", "max_iter = 5",
        "n_hidden = 200", "n_neighbors = 5", "reweight_eps = 1e-06", "seed = 0",
        "view_exponent = 2.0", "# per-seed split/map hashes",
        "# seed 0: 00112233445566ff", "# seed 1: 8899aabbccddeeff")),
    "sweep": ("sweep_bf4749229539.csv", "weight-grid sweep", (
        "c_source,c_target,mean,std",
        "1,1,0.5,0.0",
        "1,10,0.875,0.125",
        "10,1,0.6666666666666666,0.001",
        "10,10,1.0,0.0")),
}


def test_report_files_have_pinned_text(tmp_path):
    cfg = default_config(methods=("elm_s", "mveda"), seeds=(0, 1), grid=(1.0, 10.0))
    paths = emit_report(_hand_report(cfg), str(tmp_path))
    rows = [(1.0, 1.0, 0.5, 0.0), (1.0, 10.0, 0.875, 0.125), (10.0, 1.0, 2 / 3, 1e-3),
            (10.0, 10.0, 1.0, 0.0)]
    paths["sweep"] = emit_sweep(rows, cfg, str(tmp_path))
    # same files, in the same order
    assert list(paths) == list(_PINNED)
    for name, (file_name, title, lines) in _PINNED.items():
        assert paths[name] == str(tmp_path / file_name)
        with open(paths[name], encoding="utf-8", newline="") as fh:
            got = fh.read()
        want = f"# {title}\n# config bf4749229539\n{_NOTE}" + "".join(
            f"{line}\n" for line in lines)
        assert got == want, name


def test_report_config_echo_loads_back(tmp_path):
    # a default config writes "means = ", which used to read back as ()
    # and be refused
    every_key = BenchConfig(
        data="bundle/manifest.txt", methods=("eda", "mveda"), metric="map",
        seeds=(3, 5), m=2, grid=(0.5, 2.0), rotation_deg=-12.5,
        translation=(0.25, -1.0, 3.0), scale=1.5, n_source=40, n_unlabeled=0,
        n_test=7, cov_scale=0.3, means=((0.0, 1.0, 2.0), (3.0, 4.0, 5.5)),
        views=3, noise_dim=4, pre_ridge=0.1, standardize=False,
        params=EdaParams(c_source=2.0, c_target=30.0, drift_weight=0.5,
                         fidelity_weight=4.0, manifold_weight=0.0, n_hidden=17,
                         max_iter=3, reweight_eps=1e-4, n_neighbors=6,
                         view_exponent=3.0, activation="sigmoid", seed=9))
    for obj, base in ((every_key, default_config()), (every_key.params, EdaParams())):
        for f in fields(obj):
            assert getattr(obj, f.name) != getattr(base, f.name), f.name
    for cfg in (default_config(), every_key):
        out = tmp_path / config_hash(cfg)
        path = emit_report(_hand_report(cfg), str(out))["config"]
        assert load_config(path) == cfg
