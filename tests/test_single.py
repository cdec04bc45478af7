"""The single-view alternating solver: objective, block updates, gradients."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edapt import (
    EdaModel,
    EdaParams,
    LaplacianGraph,
    ParameterError,
    ShapeError,
    build_problem,
    fit_eda,
    l21_norm,
    new_hidden_map,
    predict_eda,
    update_beta,
    update_theta,
)
from edapt.features import map_features
from edapt.single import (
    EdaProblem,
    beta_gradient,
    eda_objective,
    surrogate_objective,
    theta_gradient,
    update_u,
)

from helpers import (
    beta_gradient_reference,
    blob_bundle,
    random_prelabels,
    small_params,
    small_problem,
)


def _naive_objective(beta, theta, prob, params, loss_scale=1.0,
                     smooth_scale=1.0, u=None):
    """The objective re-derived with explicit sums (pairwise graph term)."""
    n_hidden, c = beta.shape
    if u is None:
        sparse = sum(math.sqrt(float(beta[i] @ beta[i])) for i in range(n_hidden))
    else:
        sparse = sum(float(u[i]) * float(beta[i] @ beta[i]) for i in range(n_hidden))

    def frob2(r):
        return sum(float(v) ** 2 for v in np.ravel(r))

    src = frob2(prob.h_source @ beta - prob.t_source)
    tgt = frob2(prob.h_labeled @ beta - prob.t_labeled @ theta)
    drift = frob2(theta - np.eye(c))
    fid = frob2(prob.h_unlabeled @ beta - prob.prelabels)
    f = prob.h_target @ beta
    a = prob.graph.adjacency
    smooth = 0.0
    for i in range(f.shape[0]):
        for j in range(f.shape[0]):
            diff = f[i] - f[j]
            smooth += 0.5 * float(a[i, j]) * float(diff @ diff)
    return (sparse
            + loss_scale * (params.c_source * src + params.c_target * tgt
                            + params.drift_weight * drift
                            + params.fidelity_weight * fid)
            + smooth_scale * params.manifold_weight * smooth)


# ---------------------------------------------------------------------------
# norms and reweighting
# ---------------------------------------------------------------------------


def test_l21_norm_hand_case():
    assert l21_norm(np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])) == 6.0


def test_update_u_formula():
    beta = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    u = update_u(beta, 1e-6)
    expected = [1.0 / (2.0 * (5.0 + 1e-6)),
                1.0 / (2.0 * 1e-6),
                1.0 / (2.0 * (1.0 + 1e-6))]
    assert np.array_equal(u, expected)
    with pytest.raises(ParameterError):
        update_u(beta, 0.0)


def test_reweighting_reproduces_row_sparse_norm():
    # with the epsilon floor removed, u_i = 1/(2||b_i||) makes
    # 2 tr(b' diag(u) b) collapse to the plain sum of row norms
    rng = np.random.default_rng(0)
    beta = rng.standard_normal((12, 4))
    norms = np.linalg.norm(beta, axis=1)
    u0 = 1.0 / (2.0 * norms)
    tr = float(np.sum(u0[:, None] * beta * beta))
    assert 2.0 * tr == pytest.approx(l21_norm(beta), rel=1e-12)
    tr_unhalved = float(np.sum((1.0 / norms)[:, None] * beta * beta))
    assert tr_unhalved == pytest.approx(l21_norm(beta), rel=1e-12)


def test_majorizer_inequality_random_pairs():
    # ||a|| - ||a||^2 / (2||b||) <= ||b|| / 2 for any non-zero pair; this
    # is what makes each reweighted step a true descent step
    rng = np.random.default_rng(1)
    a = rng.standard_normal((10_000, 5))
    b = rng.standard_normal((10_000, 5))
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    lhs = na - na**2 / (2.0 * nb)
    assert np.all(lhs <= nb / 2.0 + 1e-12)


# ---------------------------------------------------------------------------
# objective values
# ---------------------------------------------------------------------------


def test_objective_matches_naive_sums():
    prob, params = small_problem(seed=0)
    rng = np.random.default_rng(2)
    beta = rng.standard_normal((prob.n_hidden, prob.n_classes))
    theta = np.eye(prob.n_classes) + 0.1 * rng.standard_normal((3, 3))
    got = eda_objective(beta, theta, prob, params)
    want = _naive_objective(beta, theta, prob, params)
    assert got == pytest.approx(want, rel=1e-12)


def test_objective_scales_the_right_terms():
    prob, params = small_problem(seed=1)
    rng = np.random.default_rng(3)
    beta = rng.standard_normal((prob.n_hidden, prob.n_classes))
    theta = np.eye(prob.n_classes)
    got = eda_objective(beta, theta, prob, params, loss_scale=0.7,
                        smooth_scale=0.49)
    want = _naive_objective(beta, theta, prob, params, loss_scale=0.7,
                            smooth_scale=0.49)
    assert got == pytest.approx(want, rel=1e-12)


def test_surrogate_matches_naive_sums():
    prob, params = small_problem(seed=2)
    rng = np.random.default_rng(4)
    beta = rng.standard_normal((prob.n_hidden, prob.n_classes))
    theta = np.eye(prob.n_classes)
    u = update_u(beta, params.reweight_eps)
    got = surrogate_objective(beta, u, theta, prob, params)
    want = _naive_objective(beta, theta, prob, params, u=u)
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# block updates
# ---------------------------------------------------------------------------


def test_update_beta_reduces_to_reweighted_ridge():
    # with the target, fidelity, and smoothness terms switched off the
    # solve is (diag(u) + cs Hs'Hs) b = cs Hs'Ts
    prob, _ = small_problem(seed=3)
    params = small_params(c_source=2.0, c_target=0.0, fidelity_weight=0.0,
                          manifold_weight=0.0)
    rng = np.random.default_rng(5)
    u = rng.uniform(0.5, 2.0, size=prob.n_hidden)
    beta = update_beta(u, np.eye(3), prob, params)
    a = 2.0 * (prob.h_source.T @ prob.h_source) + np.diag(u)
    want = np.linalg.solve(a, 2.0 * (prob.h_source.T @ prob.t_source))
    assert np.allclose(beta, want, rtol=1e-10, atol=1e-12)


def test_update_beta_is_stationary_and_minimal():
    prob, params = small_problem(seed=4)
    rng = np.random.default_rng(6)
    u = rng.uniform(0.5, 2.0, size=prob.n_hidden)
    theta = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    beta = update_beta(u, theta, prob, params)
    assert np.max(np.abs(beta_gradient(beta, u, theta, prob, params))) < 1e-8
    base = surrogate_objective(beta, u, theta, prob, params)
    for _ in range(5):
        delta = 1e-3 * rng.standard_normal(beta.shape)
        assert surrogate_objective(beta + delta, u, theta, prob, params) >= base


def test_update_theta_matches_normal_equations():
    prob, params = small_problem(seed=5)
    rng = np.random.default_rng(7)
    beta = rng.standard_normal((prob.n_hidden, 3))
    theta = update_theta(beta, prob, params)
    ct, g = params.c_target, params.drift_weight
    a = ct * (prob.t_labeled.T @ prob.t_labeled) + g * np.eye(3)
    rhs = ct * (prob.t_labeled.T @ (prob.h_labeled @ beta)) + g * np.eye(3)
    assert np.allclose(theta, np.linalg.solve(a, rhs), rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(theta_gradient(theta, beta, prob, params))) < 1e-8


def test_strong_identity_pull_pins_theta():
    prob, _ = small_problem(seed=6)
    params = small_params(drift_weight=1e12)
    rng = np.random.default_rng(8)
    beta = rng.standard_normal((prob.n_hidden, 3))
    theta = update_theta(beta, prob, params)
    assert np.max(np.abs(theta - np.eye(3))) < 1e-9


def test_exact_fit_gives_identity_theta():
    # if b already reproduces the labeled targets, the drift update solves
    # (ct T'T + g I) theta = (ct T'T + g I), i.e. theta = I
    prob, params = small_problem(seed=7)
    beta = np.linalg.lstsq(prob.h_labeled, prob.t_labeled, rcond=None)[0]
    assert np.max(np.abs(prob.h_labeled @ beta - prob.t_labeled)) < 1e-8
    theta = update_theta(beta, prob, params)
    assert np.max(np.abs(theta - np.eye(3))) < 1e-8


# ---------------------------------------------------------------------------
# analytic gradients vs central differences
# ---------------------------------------------------------------------------


def _fd_beta(beta, u, theta, prob, params, loss_scale, smooth_scale, h=1e-5):
    g = np.zeros_like(beta)
    for i in range(beta.shape[0]):
        for j in range(beta.shape[1]):
            step = np.zeros_like(beta)
            step[i, j] = h
            fp = surrogate_objective(beta + step, u, theta, prob, params,
                                     loss_scale, smooth_scale)
            fm = surrogate_objective(beta - step, u, theta, prob, params,
                                     loss_scale, smooth_scale)
            g[i, j] = (fp - fm) / (2.0 * h)
    return g


@pytest.mark.parametrize("seed,loss_scale", [(0, 1.0), (1, 0.6)])
def test_beta_gradient_matches_central_differences(seed, loss_scale):
    prob, params = small_problem(seed=seed, n_hidden=6)
    rng = np.random.default_rng(seed + 20)
    beta = rng.standard_normal((prob.n_hidden, 3))
    u = rng.uniform(0.5, 2.0, size=prob.n_hidden)
    theta = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    smooth_scale = loss_scale**2
    grad = beta_gradient(beta, u, theta, prob, params, loss_scale, smooth_scale)
    fd = _fd_beta(beta, u, theta, prob, params, loss_scale, smooth_scale)
    assert np.linalg.norm(fd - grad) < 1e-5 * np.linalg.norm(grad)


@pytest.mark.parametrize("n_hidden", [24, 40])
@pytest.mark.parametrize("seed", range(3))
def test_beta_gradient_matches_the_blockwise_reference(seed, n_hidden):
    prob, params = small_problem(seed, n_hidden=n_hidden)
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal((n_hidden, 3))
    u = rng.uniform(0.5, 2.0, size=n_hidden)
    theta = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    for scale, smooth in [(1.0, 1.0), (0.37, 0.37 ** 2)]:
        got = beta_gradient(beta, u, theta, prob, params, scale, smooth)
        want = beta_gradient_reference(beta, u, theta, prob, params, scale, smooth)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_theta_gradient_matches_central_differences():
    prob, params = small_problem(seed=2, n_hidden=6)
    rng = np.random.default_rng(22)
    beta = rng.standard_normal((prob.n_hidden, 3))
    theta = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    grad = theta_gradient(theta, beta, prob, params, loss_scale=0.8)
    h = 1e-5
    fd = np.zeros_like(theta)
    for i in range(3):
        for j in range(3):
            step = np.zeros_like(theta)
            step[i, j] = h
            fp = eda_objective(beta, theta + step, prob, params, loss_scale=0.8)
            fm = eda_objective(beta, theta - step, prob, params, loss_scale=0.8)
            fd[i, j] = (fp - fm) / (2.0 * h)
    assert np.linalg.norm(fd - grad) < 1e-5 * np.linalg.norm(grad)


# ---------------------------------------------------------------------------
# the fitted model
# ---------------------------------------------------------------------------


def test_fit_records_consistent_state():
    bundle = blob_bundle(seed=0)
    params = small_params(max_iter=5)
    model = fit_eda(bundle, random_prelabels(bundle), params)
    assert model.beta.shape == (params.n_hidden, 3)
    assert 1 <= len(model.objective_history) <= params.max_iter
    assert np.array_equal(model.u, update_u(model.beta, params.reweight_eps))
    # the recorded tail value is the objective at the returned iterate
    prob, _ = build_problem(bundle, random_prelabels(bundle), params,
                            model.hidden_map)
    assert model.objective_history[-1] == eda_objective(
        model.beta, model.theta, prob, params)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_objective_descends(seed):
    bundle = blob_bundle(seed=seed)
    model = fit_eda(bundle, random_prelabels(bundle, seed), small_params())
    h = model.objective_history
    assert np.all(np.diff(h) <= 1e-8 * (1.0 + np.abs(h[:-1])))


def test_stop_rule_exits_once_stationary():
    bundle = blob_bundle(seed=1)
    # all data terms off: beta collapses to zero at the first solve and
    # the objective is exactly 0 from then on, so round two must exit
    params = small_params(max_iter=80, c_source=0.0, c_target=0.0,
                          fidelity_weight=0.0, manifold_weight=0.0)
    # the smoothness trace is 0 too, yet one view has no weight step to
    # warn about a degenerate trace
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_eda(bundle, random_prelabels(bundle, 1), params)
    assert np.array_equal(model.objective_history, [0.0, 0.0])
    assert np.array_equal(model.theta, np.eye(3))
    # a coarse reweighting floor converges fast enough to stop early too
    params = small_params(max_iter=80, reweight_eps=0.1)
    model = fit_eda(bundle, random_prelabels(bundle, 1), params)
    assert len(model.objective_history) < 80


def test_prelabels_shape_guard():
    bundle = blob_bundle(seed=2)
    with pytest.raises(ShapeError):
        build_problem(bundle, np.zeros((2, 2)), small_params())
    # a problem copied with new scores, as the bench does, is checked too
    phi = random_prelabels(bundle)
    prob, _ = build_problem(bundle, phi, small_params())
    with pytest.raises(ShapeError, match="prelabels must be"):
        replace(prob, prelabels=phi[:-1])
    with pytest.raises(ShapeError):
        replace(prob, prelabels=phi.ravel())
    swapped = replace(prob, prelabels=phi.astype(np.float32).tolist())
    assert swapped.prelabels.dtype == np.float64
    assert swapped.prelabels.tobytes() == phi.astype(np.float32).astype(np.float64).tobytes()


def test_build_problem_rejects_dim_mismatch():
    bundle = blob_bundle(seed=3)
    wide = blob_bundle(seed=3, d=4)
    from edapt import DomainBundle
    mixed = DomainBundle(wide.source, bundle.target_labeled,
                         bundle.target_unlabeled, 3)
    with pytest.raises(ShapeError):
        build_problem(mixed, random_prelabels(bundle), small_params())


def test_build_problem_arrays_are_read_only():
    # the bench shares one problem among the adaptation methods of a seed,
    # so no fit may change its arrays; the caller's prelabels stay as given
    bundle = blob_bundle(seed=5)
    phi = random_prelabels(bundle)
    prob, _ = build_problem(bundle, phi, small_params())
    for name in ("h_source", "h_labeled", "h_unlabeled", "h_target",
                 "t_source", "t_labeled"):
        a = getattr(prob, name)
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    assert prob.prelabels is phi and phi.flags.writeable


def test_each_fact_is_stored_once():
    # the degrees and adjacency come from the Laplacian, the labeled and
    # unlabeled activations from the target stack, the reweighting from
    # beta and the final view weights from their history
    assert [f.name for f in fields(LaplacianGraph)] == ["sparse_laplacian"]
    assert [f.name for f in fields(EdaProblem)] == [
        "h_source", "h_target", "t_source", "t_labeled", "prelabels", "graph"]
    # one record for one or many views
    assert [f.name for f in fields(EdaModel)] == [
        "hidden_maps", "betas", "thetas", "alpha_history", "objective_history",
        "params", "standardizers"]
    bundle = blob_bundle(seed=5)
    prob, _ = build_problem(bundle, random_prelabels(bundle), small_params())
    n_labeled = bundle.target_labeled.n
    for part, rows in ((prob.h_labeled, slice(None, n_labeled)),
                       (prob.h_unlabeled, slice(n_labeled, None))):
        assert np.shares_memory(part, prob.h_target)
        assert np.array_equal(part, prob.h_target[rows])


def test_predict_eda_and_detransform():
    bundle = blob_bundle(seed=4, per_test=3)
    model = fit_eda(bundle, random_prelabels(bundle, 4), small_params())
    labels, scores = predict_eda(model, bundle.target_test)
    assert np.array_equal(labels, np.argmax(scores, axis=1))
    h_test = map_features(model.hidden_map, bundle.target_test)
    assert np.array_equal(scores, h_test @ model.beta)
    _, undone = predict_eda(model, bundle.target_test, detransform=True)
    manual = np.linalg.solve(model.theta.T, scores.T).T
    assert np.allclose(undone, manual, rtol=1e-12, atol=1e-14)


def test_detransform_identity_theta_is_noop():
    hm = new_hidden_map(5, 2, seed=0)
    beta = np.random.default_rng(0).standard_normal((5, 3))
    model = EdaModel([hm], [beta], [np.eye(3)], [[1.0]], [1.0], EdaParams(n_hidden=5))
    from edapt import Dataset
    data = Dataset(np.random.default_rng(1).standard_normal((2, 4)))
    _, plain = predict_eda(model, data)
    _, undone = predict_eda(model, data, detransform=True)
    assert np.allclose(plain, undone, rtol=0, atol=1e-14)


def test_detransform_near_singular_theta_warns_and_uses_the_pseudo_inverse():
    hm = new_hidden_map(5, 2, seed=0)
    beta = np.random.default_rng(0).standard_normal((5, 2))
    theta = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    model = EdaModel([hm], [beta], [theta], [[1.0]], [1.0], EdaParams(n_hidden=5))
    from edapt import Dataset
    data = Dataset(np.random.default_rng(1).standard_normal((2, 4)))
    _, plain = predict_eda(model, data)
    with pytest.warns(UserWarning, match="near singular") as record:
        _, undone = predict_eda(model, data, detransform=True)
    assert [w.category for w in record] == [UserWarning]
    assert np.array_equal(undone, plain @ np.linalg.pinv(theta))


def test_params_validation():
    with pytest.raises(ParameterError):
        EdaParams(c_source=-1.0)
    with pytest.raises(ParameterError):
        EdaParams(drift_weight=0.0)
    with pytest.raises(ParameterError):
        EdaParams(max_iter=0)
    with pytest.raises(ParameterError):
        EdaParams(view_exponent=1.0)
    with pytest.raises(ParameterError):
        EdaParams(activation="relu")
    with pytest.raises(ParameterError):
        EdaParams(reweight_eps=0.0)
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        EdaParams(seed=-1)
    # operator.index takes a bool as 0 or 1
    with pytest.raises(ParameterError, match="max_iter must be an integer, got True"):
        EdaParams(max_iter=True)
    for name in ("c_source", "c_target", "drift_weight", "fidelity_weight",
                 "manifold_weight", "reweight_eps", "view_exponent"):
        with pytest.raises(ParameterError, match=name):
            EdaParams(**{name: float("nan")})


def test_model_validation():
    hm = new_hidden_map(4, 2, seed=0)
    # a one-view model's errors carry no view prefix
    with pytest.raises(ShapeError, match="^field 'beta'"):
        EdaModel([hm], [np.ones((5, 3))], [np.eye(3)], [[1.0]], [1.0], EdaParams())
    with pytest.raises(ShapeError, match="^field 'theta'"):
        EdaModel([hm], [np.ones((4, 3))], [np.eye(2)], [[1.0]], [1.0], EdaParams())
    # and a one-view fit weighs its view by 1 in every round
    with pytest.raises(ShapeError, match="alpha_history must be all ones"):
        EdaModel([hm], [np.ones((4, 3))], [np.eye(3)], [[1.0], [0.5]], [2.0, 1.0],
                 EdaParams())
