"""Benchmark harness: config parsing, resplits, fairness token, reports."""

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
from edapt.bench import (
    METHOD_LABELS,
    _parse_value,
    config_hash,
    config_text,
    parse_config,
    resplit_bundle,
    split_map_hash,
    synth_spec,
)
from edapt.data import decode_labels, save_bundle
from edapt.preclassify import average_prelabels, preclassify_kernel


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


def test_config_checks_n_neighbors_against_the_synthetic_graph():
    # 2 labeled per class x 3 classes + 12 unlabeled target rows; sselm's
    # graph also holds the 30 source rows, and the ELM baselines build none
    want = ("key 'n_neighbors': 18 needs at least 19 samples for the k-NN graph, "
            "the synthetic scenario has 18")
    base = _fast()
    k18 = replace(base.params, n_neighbors=18)
    with pytest.raises(ParameterError, match=want):
        replace(base, params=k18)
    replace(base, params=k18, methods=("sselm",))
    replace(base, params=k18, methods=("elm_s", "elm_t"))
    replace(base, params=k18, data="bundle/manifest.txt")


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


@pytest.mark.parametrize("method", ADAPTATION)
def test_adaptation_problems_are_built_once_per_seed(method, monkeypatch):
    import edapt.multiview
    import edapt.single
    built = []

    def counting(bundle, *args, **kwargs):
        built.append(bundle)
        return build_problem(bundle, *args, **kwargs)

    # every module binding the library builds problems through
    for module in (edapt.single, edapt.multiview):
        monkeypatch.setattr(module, "build_problem", counting)
    cfg = _fast(methods=(method,))
    run_benchmark(cfg)
    views = cfg.views if method == "mveda" else 1
    assert len(built) == views * len(cfg.seeds)
    assert len({id(b) for b in built}) == len(built)


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
