"""The sample-space beta solve, gated against the primal L x L solve.

A view whose stacked rows n (source + labeled + unlabeled) are fewer
than its hidden units L solves for beta through an n x n system.  Every
instance here has n = 27 < L; the primal reference is the same solve
run on the assembled L x L blocks.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from edapt import (
    ParameterError,
    augment_noise_view,
    build_problem,
    fit_eda,
    fit_mveda,
    new_hidden_map,
    update_beta,
)
from edapt import linalg, single
from edapt.single import beta_gradient

from helpers import blob_bundle, random_prelabels, small_params

# criterion 3's weights (cs = 1, ct = 10, tau = 5, lam = 1) and 1e4 weights
WEIGHTS = {"criterion3": {}, "1e4": dict(c_source=1e4, c_target=1e4,
                                        fidelity_weight=1e4)}
SCALES = [(1.0, 1.0), (0.37, 0.37 ** 2)]  # loss and smoothness scales, r = 2


def _instance(seed, n_hidden, weights):
    bundle = blob_bundle(seed)
    params = small_params(n_hidden=n_hidden, **WEIGHTS[weights])
    prob, _ = build_problem(bundle, random_prelabels(bundle, seed), params)
    assert single._in_sample_space(prob, params)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.5, 2.0, size=n_hidden)
    theta = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    return prob, params, u, theta


def _primal(u, theta, prob, params, scale, smooth):
    return single._solve_beta(single._beta_blocks(prob, params), u, theta, prob,
                              params, scale, smooth)


def _max_rel_diff(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("scale, smooth", SCALES)
@pytest.mark.parametrize("weights", sorted(WEIGHTS))
@pytest.mark.parametrize("seed, n_hidden", [(0, 40), (1, 64), (2, 40), (3, 64)])
def test_update_beta_matches_the_primal_solve(seed, n_hidden, weights, scale, smooth):
    prob, params, u, theta = _instance(seed, n_hidden, weights)
    got = update_beta(u, theta, prob, params, scale, smooth)
    want = _primal(u, theta, prob, params, scale, smooth)
    assert _max_rel_diff(got, want) < 1e-9
    grad = np.max(np.abs(beta_gradient(got, u, theta, prob, params, scale, smooth)))
    if weights == "criterion3":
        assert grad < 1e-8
    else:
        primal = beta_gradient(want, u, theta, prob, params, scale, smooth)
        assert grad <= 4.0 * np.max(np.abs(primal))


@pytest.mark.parametrize("scale, smooth", SCALES)
@pytest.mark.parametrize("seed", range(4))
def test_push_through_first_iterate_is_the_woodbury_image_of_the_primal_rhs(
        seed, scale, smooth, monkeypatch):
    prob, params, u, theta = _instance(seed, 40, "criterion3")
    p = params
    rhs = scale * (p.c_source * prob.h_source.T @ prob.t_source
                   + p.c_target * prob.h_labeled.T @ (prob.t_labeled @ theta)
                   + p.fidelity_weight * prob.h_unlabeled.T @ prob.prelabels)
    seen = []

    def capture(a, b, jitter, residual_fn, correction_fn, start_fn):
        factor = linalg.cho_factor(a, lower=True)
        seen.append((start_fn(factor, b), correction_fn(factor, rhs)))
        return linalg.solve_spd(a, b, jitter, residual_fn, correction_fn, start_fn)

    monkeypatch.setattr(single, "solve_spd", capture)
    update_beta(u, theta, prob, params, scale, smooth)
    [(first, woodbury)] = seen
    assert _max_rel_diff(first, woodbury) < 1e-12


def test_a_non_finite_prelabel_in_the_first_iterate_raises():
    # the problem refuses the scores before any solve, naming their row;
    # it used to fail inside the solve, naming neither
    prob, params, u, theta = _instance(0, 40, "criterion3")
    bad = prob.prelabels.copy()
    bad[1, 2] = np.nan
    with pytest.raises(ParameterError, match="field 'prelabels' has non-finite "
                                             "entries, the first in row 1"):
        update_beta(u, theta, replace(prob, prelabels=bad), params)


def test_zero_view_weight_gives_zero_beta_without_warning():
    prob, params, u, theta = _instance(0, 40, "criterion3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta = update_beta(u, theta, prob, params, 0.0, 0.0)
    assert np.array_equal(beta, np.zeros((40, 3)))
    assert np.array_equal(beta, _primal(u, theta, prob, params, 0.0, 0.0))


def _fits(seed, weights):
    params = small_params(n_hidden=48, max_iter=4, **WEIGHTS[weights])
    b0 = blob_bundle(seed=seed)
    b1 = augment_noise_view(b0, 2, seed=seed + 50)
    maps = [new_hidden_map(48, 2, seed=seed), new_hidden_map(48, 4, seed=seed + 1)]
    pres = [random_prelabels(b0, seed), random_prelabels(b1, seed + 1)]
    eda = fit_eda(b0, pres[0], params, maps[0])
    mv = fit_mveda([b0, b1], pres, params, maps)
    return eda, mv


@pytest.mark.parametrize("weights", sorted(WEIGHTS))
def test_fits_match_the_primal_solve(weights, monkeypatch):
    eda, mv = _fits(7, weights)
    monkeypatch.setattr(single, "_in_sample_space", lambda prob, params: False)
    eda_p, mv_p = _fits(7, weights)
    assert _max_rel_diff(eda.beta, eda_p.beta) < 1e-9
    np.testing.assert_allclose(eda.objective_history, eda_p.objective_history,
                               rtol=1e-9)
    for got, want in zip(mv.betas, mv_p.betas):
        assert _max_rel_diff(got, want) < 1e-9
    np.testing.assert_allclose(mv.alpha, mv_p.alpha, rtol=1e-9)
    np.testing.assert_allclose(mv.objective_history, mv_p.objective_history,
                               rtol=1e-9)


def test_sample_space_fits_never_assemble_the_primal_blocks(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a sample-space fit assembled the L x L blocks")

    monkeypatch.setattr(single, "_beta_blocks", fail)
    eda, mv = _fits(8, "criterion3")
    prob, params, u, theta = _instance(8, 40, "criterion3")
    update_beta(u, theta, prob, params)
    assert np.isfinite(eda.beta).all() and all(np.isfinite(b).all() for b in mv.betas)


def test_shape_and_loss_weights_select_the_path():
    bundle = blob_bundle(0)
    cases = [(small_params(n_hidden=40), True),
             (small_params(n_hidden=27), False),   # n = 27 rows, not below L
             (small_params(n_hidden=40, c_source=0.0), False),
             (small_params(n_hidden=40, fidelity_weight=0.0), False)]
    for params, expected in cases:
        prob, _ = build_problem(bundle, random_prelabels(bundle, 0), params)
        assert single._in_sample_space(prob, params) is expected
