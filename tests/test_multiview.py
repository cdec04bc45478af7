"""The multi-view solver: simplex weights, per-view updates, reductions."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edapt import (
    Dataset,
    EdaModel,
    ParameterError,
    ShapeError,
    augment_noise_view,
    build_problem,
    derive_view_seed,
    fit_eda,
    fit_mveda,
    load_model,
    new_hidden_map,
    predict_eda,
    predict_mveda,
    save_model,
    standardize_bundle,
    update_beta,
    update_beta_view,
    update_theta,
    update_theta_view,
)
from edapt.features import fit_standardizer
from edapt.multiview import mv_objective, update_alpha, view_trace
from edapt.single import beta_gradient

from helpers import blob_bundle, random_prelabels, small_params, small_problem
from test_single import _naive_objective


# ---------------------------------------------------------------------------
# simplex weights
# ---------------------------------------------------------------------------


def test_update_alpha_hand_case():
    # r = 2: weights scale like 1/q -> (1, 1/3) -> (3/4, 1/4)
    assert np.allclose(update_alpha([1.0, 3.0], 2.0), [0.75, 0.25],
                       rtol=0, atol=1e-15)
    # r = 3: weights scale like 1/sqrt(q)
    s = np.sqrt(3.0)
    want = np.array([s, 1.0]) / (s + 1.0)
    assert np.allclose(update_alpha([1.0, 3.0], 3.0), want, rtol=1e-15)


def test_update_alpha_degenerate_views():
    # a numerically zero trace takes all the mass
    assert np.array_equal(update_alpha([0.0, 5.0], 2.0), [1.0, 0.0])
    assert np.array_equal(update_alpha([0.0, 5.0, 0.0], 2.0), [0.5, 0.0, 0.5])
    with pytest.warns(RuntimeWarning):
        alpha = update_alpha([0.0, 0.0], 2.0)
    assert np.array_equal(alpha, [0.5, 0.5])


def test_update_alpha_floor_is_relative_to_the_largest_trace():
    # traces of a fit with every loss weight scaled by 1e-4: both sit under
    # 1e-12, yet neither is zero next to the other
    traces = np.array([2.3e-15, 2.5e-15])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (2.0, 3.0):
            w = traces ** (-1.0 / (r - 1.0))
            assert np.allclose(update_alpha(traces, r), w / w.sum(), rtol=1e-15)
            assert np.allclose(update_alpha(traces, r), update_alpha(traces * 1e15, r),
                               rtol=1e-15)
        assert np.array_equal(update_alpha([0.0, 5.0], 2.0), [1.0, 0.0])
    with pytest.warns(RuntimeWarning):
        assert np.array_equal(update_alpha([0.0, 0.0], 2.0), [0.5, 0.5])


def test_update_alpha_validation():
    with pytest.raises(ParameterError):
        update_alpha([1.0, 2.0], 1.0)
    with pytest.raises(ShapeError):
        update_alpha([], 2.0)
    with pytest.raises(ShapeError):
        update_alpha(np.ones((2, 2)), 2.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=6),
       st.floats(1.1, 8.0))
def test_update_alpha_stays_on_simplex(traces, r):
    alpha = update_alpha(traces, r)
    assert abs(alpha.sum() - 1.0) < 1e-12
    assert np.all(alpha >= 0.0)
    # heavier smoothness cost means smaller weight
    order = np.argsort(traces)
    assert np.all(np.diff(alpha[order]) <= 1e-12)


# ---------------------------------------------------------------------------
# per-view updates
# ---------------------------------------------------------------------------


def test_view_trace_matches_pairwise_sum():
    prob, _ = small_problem(seed=0)
    rng = np.random.default_rng(1)
    beta = rng.standard_normal((prob.n_hidden, 3))
    f = prob.h_target @ beta
    a = prob.graph.adjacency
    want = 0.0
    for i in range(f.shape[0]):
        for j in range(f.shape[0]):
            diff = f[i] - f[j]
            want += 0.5 * float(a[i, j]) * float(diff @ diff)
    assert view_trace(beta, prob) == pytest.approx(want, rel=1e-10)


def test_update_beta_view_is_scaled_single_view_solve():
    prob, params = small_problem(seed=1)
    rng = np.random.default_rng(2)
    u = rng.uniform(0.5, 2.0, size=prob.n_hidden)
    theta = np.eye(3)
    got = update_beta_view(u, theta, prob, 0.3, params)
    want = update_beta(u, theta, prob, params, loss_scale=0.3,
                       smooth_scale=0.3**params.view_exponent)
    assert np.array_equal(got, want)
    grad = beta_gradient(got, u, theta, prob, params, 0.3,
                         0.3**params.view_exponent)
    assert np.max(np.abs(grad)) < 1e-8


def test_update_theta_view_ignores_the_view_weight():
    # the weight multiplies both drift terms, so it cancels exactly
    prob, params = small_problem(seed=2)
    rng = np.random.default_rng(3)
    beta = rng.standard_normal((prob.n_hidden, 3))
    base = update_theta(beta, prob, params)
    for w in (None, 0.1, 0.9):
        assert np.array_equal(update_theta_view(beta, prob, params, w), base)


def test_mv_objective_is_weighted_sum_of_view_objectives():
    params = small_params()
    probs, betas, thetas = [], [], []
    rng = np.random.default_rng(4)
    for seed in (3, 4):
        prob, _ = small_problem(seed=seed)
        probs.append(prob)
        betas.append(rng.standard_normal((prob.n_hidden, 3)))
        thetas.append(np.eye(3) + 0.05 * rng.standard_normal((3, 3)))
    alpha = np.array([0.3, 0.7])
    got = mv_objective(betas, thetas, alpha, probs, params)
    want = sum(
        _naive_objective(b, t, p, params, loss_scale=float(a),
                         smooth_scale=float(a)**params.view_exponent)
        for b, t, a, p in zip(betas, thetas, alpha, probs)
    )
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# the fitted model
# ---------------------------------------------------------------------------


def _two_view_setup(seed=0):
    b0 = blob_bundle(seed=seed, per_test=2)
    b1 = augment_noise_view(b0, 2, seed=seed + 50)
    maps = [new_hidden_map(20, 2, "radbas", seed=seed),
            new_hidden_map(20, 4, "radbas", seed=seed + 1)]
    pres = [random_prelabels(b0, seed), random_prelabels(b1, seed + 1)]
    return [b0, b1], maps, pres


def test_single_view_dispatch_is_bitwise():
    bundle = blob_bundle(seed=5)
    params = small_params()
    pre = random_prelabels(bundle, 5)
    for n_hidden in (20, 40):  # 27 stacked rows: primal, then sample space
        hm = new_hidden_map(n_hidden, 2, seed=5)
        single = fit_eda(bundle, pre, params, hm)
        multi = fit_mveda([bundle], pre, params, [hm])
        assert multi.n_views == 1
        assert np.array_equal(multi.betas[0], single.beta)
        assert np.array_equal(multi.thetas[0], single.theta)
        assert np.array_equal(multi.us[0], single.u)
        assert np.array_equal(multi.objective_history, single.objective_history)
        assert np.array_equal(multi.alpha, [1.0])
        assert np.array_equal(multi.alpha_history,
                              np.ones((len(single.objective_history), 1)))


def test_default_view_0_map_is_the_one_fit_eda_draws():
    bundle = blob_bundle(seed=5)
    params = small_params(seed=7)
    pre = random_prelabels(bundle, 5)
    single = fit_eda(bundle, pre, params)
    multi = fit_mveda([bundle, augment_noise_view(bundle, 2, 1)], pre, params)
    want, got = single.hidden_map, multi.hidden_maps[0]
    assert got.seed == want.seed == 7
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.biases, want.biases)
    assert multi.hidden_maps[1].seed == derive_view_seed(7, 1)


def test_identical_views_share_the_weight_evenly():
    bundle = blob_bundle(seed=6)
    params = small_params()
    hm = new_hidden_map(20, 2, seed=6)
    pre = random_prelabels(bundle, 6)
    model = fit_mveda([bundle, bundle], [pre, pre], params, [hm, hm])
    assert np.array_equal(model.alpha, [0.5, 0.5])
    assert np.array_equal(model.betas[0], model.betas[1])
    assert np.array_equal(model.thetas[0], model.thetas[1])
    assert np.all(model.alpha_history == 0.5)


def test_fit_descends_and_stays_on_simplex():
    bundles, maps, pres = _two_view_setup(seed=7)
    model = fit_mveda(bundles, pres, small_params(), maps)
    h = model.objective_history
    assert np.all(np.diff(h) <= 1e-8 * (1.0 + np.abs(h[:-1])))
    assert model.alpha_history.shape == (len(h), 2)
    sums = model.alpha_history.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    assert np.array_equal(model.alpha, model.alpha_history[-1])


def test_known_defect_is_flagged():
    # the alpha step minimizes the smoothness term alone, so with two views
    # the recorded objective can rise (module notes): here one round rises
    # by 3.5 % relative.  An alpha step that minimizes the whole objective
    # would turn this into a descent check.  The maps are pinned: view 0's
    # is drawn from SeedSequence([0, 0]), which shows the rise (under the
    # default maps one round rises by only 1.4 %)
    bundle = blob_bundle(6)
    view0_seed = int(np.random.SeedSequence([0, 0]).generate_state(1)[0])
    maps = [new_hidden_map(20, 2, "radbas", view0_seed),
            new_hidden_map(20, 4, "radbas", derive_view_seed(0, 1))]
    model = fit_mveda([bundle, augment_noise_view(bundle, 2, 1)],
                      random_prelabels(bundle, 6),
                      small_params(n_hidden=20, c_source=100.0, c_target=1.0), maps)
    h = model.objective_history
    assert np.max(np.diff(h) / np.abs(h[:-1])) > 0.03


def test_recorded_tail_matches_recomputed_objective():
    bundles, maps, pres = _two_view_setup(seed=8)
    params = small_params()
    model = fit_mveda(bundles, pres, params, maps)
    probs = [build_problem(b, p, params, m)[0]
             for b, p, m in zip(bundles, pres, maps)]
    value = mv_objective(model.betas, model.thetas, model.alpha, probs, params)
    assert value == model.objective_history[-1]


def test_shared_prelabels_broadcast():
    bundle = blob_bundle(seed=9)
    params = small_params()
    hm = new_hidden_map(20, 2, seed=9)
    pre = random_prelabels(bundle, 9)
    a = fit_mveda([bundle, bundle], pre, params, [hm, hm])
    b = fit_mveda([bundle, bundle], [pre, pre], params, [hm, hm])
    assert np.array_equal(a.betas[0], b.betas[0])


def test_alignment_guards():
    bundles, maps, pres = _two_view_setup(seed=10)
    params = small_params()
    with pytest.raises(ParameterError):
        fit_mveda([], pres, params)
    with pytest.raises(ShapeError):
        fit_mveda(bundles, [pres[0]], params, maps)
    with pytest.raises(ShapeError):
        fit_mveda(bundles, pres, params, [maps[0]])
    other = blob_bundle(seed=11, per_source=5)  # different sample counts
    with pytest.raises(ShapeError):
        fit_mveda([bundles[0], other], pres, params)
    relabeled = blob_bundle(seed=12)  # same counts, different labels drawn
    from edapt import Dataset, DomainBundle
    flipped = DomainBundle(
        Dataset(bundles[0].source.features,
                (bundles[0].source.labels + 1) % 3),
        bundles[0].target_labeled, bundles[0].target_unlabeled, 3,
        bundles[0].target_test)
    with pytest.raises(ParameterError):
        fit_mveda([bundles[0], flipped], pres, params)


def test_predict_mveda_fuses_with_the_learned_weights():
    bundles, maps, pres = _two_view_setup(seed=13)
    model = fit_mveda(bundles, pres, small_params(), maps)
    tests = [b.target_test for b in bundles]
    labels, fused, per_view = predict_mveda(model, tests)
    assert len(per_view) == 2
    from edapt.features import map_features
    manual = sum(a * (map_features(m, t) @ b)
                 for a, m, t, b in zip(model.alpha, model.hidden_maps,
                                       tests, model.betas))
    assert np.allclose(fused, manual, rtol=0, atol=1e-15)
    assert np.array_equal(labels, np.argmax(fused, axis=1))
    with pytest.raises(ShapeError):
        predict_mveda(model, tests[:1])


def test_a_standardized_model_rescales_each_views_raw_features():
    raw, maps, pres = _two_view_setup(seed=13)
    sts = [fit_standardizer(b.source, b.target_labeled) for b in raw]
    scaled = [standardize_bundle(b, st) for b, st in zip(raw, sts)]
    model = fit_mveda(scaled, pres, small_params(), maps)
    attached = replace(model, standardizers=sts)
    _, want, _ = predict_mveda(model, [b.target_test for b in scaled])
    _, got, _ = predict_mveda(attached, [b.target_test for b in raw])
    assert np.array_equal(got, want)
    with pytest.raises(ShapeError, match="view 1: missing field 'standardizer'"):
        replace(model, standardizers=[sts[0], None])
    with pytest.raises(ShapeError, match="disagree on view count"):
        replace(model, standardizers=sts[:1])
    with pytest.raises(ShapeError, match="view 0: field 'standardizer' has 4 "
                                         "features, the hidden map takes 2"):
        replace(model, standardizers=sts[::-1])


def test_predict_mveda_checks_sample_counts_before_mapping(monkeypatch):
    bundles, maps, pres = _two_view_setup(seed=13)
    model = fit_mveda(bundles, pres, small_params(), maps)
    tests = [b.target_test for b in bundles]
    short = Dataset(tests[1].features[:, :-1])

    def no_mapping(*args, **kwargs):
        raise AssertionError("mapped a view before checking the sample counts")

    monkeypatch.setattr("edapt.multiview.map_features", no_mapping)
    n = tests[0].n
    counts = rf"views disagree on sample count: \[{n - 1}, {n}\]"
    with pytest.raises(ShapeError, match=counts):
        predict_mveda(model, [tests[0], short])


def test_model_validation():
    bundles, maps, pres = _two_view_setup(seed=14)
    model = fit_mveda(bundles, pres, small_params(), maps)
    for alpha_history in (model.alpha_history[:, :1], model.alpha_history[:1]):
        with pytest.raises(ShapeError, match="alpha_history must have shape"):
            EdaModel(model.hidden_maps, model.betas, model.thetas, alpha_history,
                     model.objective_history, model.params)
    # one view's arrays against its map, and one class count across views
    for field, v, betas, thetas in [
        ("'beta'", 1, [model.betas[0], model.betas[1][:5]], model.thetas),
        ("'theta'", 0, model.betas, [np.eye(2), model.thetas[1]]),
        ("'beta'", 1, [model.betas[0], model.betas[1][:, :2]], model.thetas),
    ]:
        with pytest.raises(ShapeError, match=f"view {v}: field {field}"):
            EdaModel(model.hidden_maps, betas, thetas, model.alpha_history,
                     model.objective_history, model.params)
    # the one-view accessors, and so predict_eda, refuse a two-view model
    for name in ("hidden_map", "beta", "theta", "u", "standardizer"):
        with pytest.raises(ShapeError, match="a 2-view model has one"):
            getattr(model, name)
    with pytest.raises(ShapeError, match="a 2-view model has one"):
        predict_eda(model, bundles[0].target_test)


def test_fitted_and_loaded_models_are_read_only(tmp_path):
    # a write into a view's weights would silently change the model's
    # predictions and its derived reweighting
    bundles, maps, pres = _two_view_setup(seed=9)
    model = fit_mveda(bundles, pres, small_params(), maps)
    loaded = load_model(save_model(model, str(tmp_path / "model.json")))
    for m in (model, loaded):
        for a in (*m.betas, *m.thetas):
            assert a.dtype == np.float64 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
    # the model keeps copies: the caller's arrays stay writable
    betas = [np.array(b) for b in model.betas]
    replace(model, betas=betas)
    assert all(b.flags.writeable for b in betas)
