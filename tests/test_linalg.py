"""solve_spd against dense references and its former refinement loop,
its failure modes, and the BLAS thread context small solves run in."""

import warnings

import numpy as np
import pytest

from edapt import NumericError, augment_noise_view, fit_eda, fit_mveda, update_beta
from edapt import linalg, single
from edapt.linalg import solve_spd
from edapt.single import beta_gradient

from helpers import (blob_bundle, random_prelabels, small_params, small_problem,
                     solve_spd_reference)


def test_matches_dense_solver():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((8, 8))
    a = m @ m.T + 8.0 * np.eye(8)
    b = rng.standard_normal((8, 3))
    x = solve_spd(a, b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(a @ x - b)) < 1e-12


def test_vector_rhs_hand_case():
    # [[4,1],[1,3]] x = [1,2]; det = 11, x = [3-2, 8-1]/11 = [1/11, 7/11]
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    x = solve_spd(a, np.array([1.0, 2.0]))
    assert np.allclose(x, np.array([1.0, 7.0]) / 11.0, rtol=0.0, atol=1e-15)


def test_jitter_retry_warns_once_naming_order_and_jitter():
    # zeros is not factorable; the unit-jitter retry solves (0 + I) x = b
    b = np.array([0.0, 1.0, 2.0])
    with pytest.warns(UserWarning, match=r"order-3 .*jitter 1\.0") as caught:
        x = solve_spd(np.zeros((3, 3)), b, jitter=1.0)
    assert [w.category for w in caught] == [UserWarning]
    assert np.array_equal(x, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no retry, no warning
        solve_spd(np.eye(3), b, jitter=1.0)


def test_failure_without_jitter():
    with pytest.raises(NumericError):
        solve_spd(np.zeros((2, 2)), np.ones(2))


def test_failure_despite_jitter():
    # -100 I stays indefinite after a tiny-jitter retry
    with pytest.raises(NumericError):
        solve_spd(-100.0 * np.eye(2), np.ones(2), jitter=1e-10)


def test_non_finite_rejected():
    a = np.eye(2)
    bad = a.copy()
    bad[0, 0] = np.nan
    with pytest.raises(NumericError):
        solve_spd(bad, np.ones(2))
    with pytest.raises(NumericError):
        solve_spd(a, np.array([np.inf, 1.0]))


def test_non_finite_residual_raises_numeric_error():
    with pytest.raises(NumericError, match="non-finite solution"):
        solve_spd(2.0 * np.eye(3), np.ones(3),
                  residual_fn=lambda x: np.full(3, np.nan))


def test_scipy_finiteness_checks_are_skipped(monkeypatch):
    # solve_spd checks a and b itself; the primal and sample-space beta
    # solves then call cho_factor and cho_solve with check_finite=False
    seen = []
    for module in (linalg, single):
        for name in ("cho_factor", "cho_solve"):
            def record(*args, _original=getattr(module, name), **kwargs):
                seen.append(kwargs.get("check_finite", True))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, record)
    for n_hidden in (24, 40):  # primal, then sample space
        prob, params = small_problem(0, n_hidden=n_hidden)
        update_beta(np.ones(n_hidden), np.eye(3), prob, params)
    assert len(seen) >= 6 and not any(seen)


def test_residual_fn_is_consulted():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 6))
    a = m @ m.T + np.eye(6)
    b = rng.standard_normal((6, 2))
    calls = []

    def residual(x):
        calls.append(1)
        return b - a @ x

    x = solve_spd(a, b, residual_fn=residual)
    assert len(calls) == 1  # one refinement pass
    assert np.max(np.abs(b - a @ x)) < 1e-12


def test_refinement_tightens_ill_scaled_system():
    # weight spreads like 1..1e4 leave the normal equations ill scaled;
    # the refined solve should still sit at machine-level residual
    rng = np.random.default_rng(7)
    m = rng.standard_normal((12, 12))
    a = m @ m.T + np.eye(12)
    a += 1e4 * np.outer(m[0], m[0])
    b = rng.standard_normal((12, 3))
    x = solve_spd(a, b)
    scale = np.linalg.norm(a) * np.linalg.norm(x)
    assert np.linalg.norm(a @ x - b) < 1e-12 * scale
    # the former stall loop lands on the same point: two backward-stable
    # solutions differ by up to cond(a) eps ~ 9e-12
    assert _rel(x, solve_spd_reference(a, b)) < 1e-11


# ---------------------------------------------------------------------------
# one refinement pass, against the former stall loop
# ---------------------------------------------------------------------------


def test_default_residual_is_evaluated_once():
    a, b = _spd(6)
    products = []

    class Counting(np.ndarray):  # counts the default residual's a @ x
        def __matmul__(self, other):
            products.append(1)
            return np.asarray(self) @ other

    x = solve_spd(a.view(Counting), b)
    assert len(products) == 1
    assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=1e-12)


def test_residual_through_a_correction_fn_is_evaluated_once():
    a, b = _spd(6, seed=2)
    residuals, corrections = [], []

    def residual(x):
        residuals.append(1)
        return b - a @ x

    def correction(factor, r):
        corrections.append(1)
        return linalg.cho_solve(factor, r)

    x = solve_spd(a, b, residual_fn=residual, correction_fn=correction)
    assert (len(residuals), len(corrections)) == (1, 2)
    assert np.max(np.abs(a @ x - b)) < 1e-12


@pytest.mark.parametrize("n_hidden", [24, 40])  # primal, sample space
def test_beta_solves_evaluate_the_gradient_once(n_hidden, monkeypatch):
    prob, params = small_problem(0, n_hidden=n_hidden)
    assert single._in_sample_space(prob, params) == (n_hidden == 40)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return beta_gradient(*args, **kwargs)

    monkeypatch.setattr(single, "beta_gradient", counted)
    update_beta(np.ones(n_hidden), np.eye(3), prob, params)
    assert len(calls) == 1


@pytest.mark.parametrize("scale, smooth", [(1.0, 1.0), (0.37, 0.37 ** 2)])
@pytest.mark.parametrize("n_hidden", [24, 40])  # primal, sample space
@pytest.mark.parametrize("seed", range(4))
def test_one_pass_beta_solve_matches_the_stall_loop(seed, n_hidden, scale, smooth,
                                                     monkeypatch):
    prob, params = small_problem(seed, n_hidden=n_hidden)
    assert single._in_sample_space(prob, params) == (n_hidden == 40)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.5, 2.0, size=n_hidden)
    theta = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    got = update_beta(u, theta, prob, params, scale, smooth)
    monkeypatch.setattr(single, "solve_spd", solve_spd_reference)
    want = update_beta(u, theta, prob, params, scale, smooth)
    assert _rel(got, want) < 1e-9
    grad = beta_gradient(got, u, theta, prob, params, scale, smooth)
    assert np.max(np.abs(grad)) < 1e-8


# ---------------------------------------------------------------------------
# BLAS thread context
# ---------------------------------------------------------------------------


def _spd(n, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n), rng.standard_normal((n, 2))


@pytest.fixture
def two_threads():
    """Every found OpenBLAS set to two threads, so a pin is visible."""
    controls = linalg._blas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    inherited = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, inherited):
        set_(count)


def _counts(controls):
    return [get() for get, _ in controls]


def test_small_solve_runs_on_one_thread_and_restores(two_threads):
    a, b = _spd(8)
    seen = []

    def residual(x):
        seen.append(_counts(two_threads))
        return b - a @ x

    solve_spd(a, b, residual_fn=residual)
    assert seen and all(c == [1] * len(two_threads) for c in seen)
    assert _counts(two_threads) == [2] * len(two_threads)


def test_count_restored_when_the_solve_raises(two_threads, monkeypatch):
    seen = []
    original = linalg.cho_factor

    def factor(*args, **kwargs):
        seen.append(_counts(two_threads))
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "cho_factor", factor)
    with pytest.raises(NumericError):
        solve_spd(-np.eye(3), np.ones(3), jitter=1e-10)
    # the factorization and its jitter retry both ran pinned
    assert seen == [[1] * len(two_threads)] * 2
    assert _counts(two_threads) == [2] * len(two_threads)


@pytest.mark.parametrize("n", [8, 9])
def test_solves_at_or_above_the_crossover_leave_the_count_alone(n, monkeypatch):
    calls = []
    controls = [(lambda: 2, calls.append)]
    monkeypatch.setattr(linalg, "_controls", controls)
    monkeypatch.setattr(linalg, "_PIN_BELOW", 8)
    solve_spd(*_spd(n))
    assert calls == []
    solve_spd(*_spd(7))  # below: pinned, then restored
    assert calls == [1, 2]


def test_solves_up_to_order_1500_run_on_one_thread_and_restore(monkeypatch):
    # tall's L = 1000 solves among them: two threads lost there in situ
    calls = []
    monkeypatch.setattr(linalg, "_controls", [(lambda: 2, calls.append)])
    for n in (7, 1000, 1500):
        calls.clear()
        solve_spd(*_spd(n))
        assert calls == [1, 2], n


def test_missing_thread_control_warns_once_and_solves_the_same(monkeypatch):
    a, b = _spd(8)
    want = solve_spd(a, b)
    monkeypatch.setattr(linalg, "_find_controls", lambda: [])
    monkeypatch.setattr(linalg, "_controls", None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = [solve_spd(a, b) for _ in range(3)]
    assert all(np.array_equal(g, want) for g in got)
    assert [w.category for w in caught] == [UserWarning]
    assert "thread control" in str(caught[0].message)


def _rel(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_fits_match_with_the_context_disabled(two_threads, monkeypatch):
    primal = blob_bundle(1, per_source=20, per_unlabeled=20)  # 126 rows, L=40
    sample = blob_bundle(2)  # 27 rows, L=60 and L=30: sample space
    views = [sample, augment_noise_view(sample, 2, seed=5)]

    def run():
        return {
            "primal": fit_eda(primal, random_prelabels(primal, 1),
                              small_params(n_hidden=40)),
            "sample": fit_eda(sample, random_prelabels(sample, 2),
                              small_params(n_hidden=60)),
            "mveda": fit_mveda(views, [random_prelabels(sample, 2)] * 2,
                               small_params(n_hidden=30)),
        }

    pinned = run()
    monkeypatch.setattr(linalg, "_controls", [])  # the context off
    plain = run()
    for name in ("primal", "sample"):
        got, want = pinned[name], plain[name]
        assert _rel(got.beta, want.beta) <= 1e-10, name
        assert _rel(got.theta, want.theta) <= 1e-10, name
        assert _rel(got.objective_history, want.objective_history) <= 1e-10, name
    got, want = pinned["mveda"], plain["mveda"]
    for v in range(2):
        assert _rel(got.betas[v], want.betas[v]) <= 1e-10
        assert _rel(got.thetas[v], want.thetas[v]) <= 1e-10
    assert _rel(got.objective_history, want.objective_history) <= 1e-10


def test_a_fit_factors_once_per_beta_and_theta_solve(monkeypatch):
    orders = []
    original = linalg.cho_factor

    def counting(a, *args, **kwargs):
        orders.append(a.shape[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "cho_factor", counting)
    bundle = blob_bundle(1, per_source=20, per_unlabeled=20)  # 126 rows, L=40
    params = small_params(n_hidden=40, max_iter=4)
    c = bundle.n_classes
    model = fit_eda(bundle, random_prelabels(bundle, 1), params)
    assert len(model.objective_history) == 4
    # each round: one beta solve of order L, one theta solve of order c
    assert orders == [40, c] * 4
    orders.clear()
    views = [bundle, augment_noise_view(bundle, 2, seed=5)]
    model = fit_mveda(views, [random_prelabels(bundle, 1)] * 2, params)
    assert len(model.objective_history) == 4
    assert orders == [40, 40, c, c] * 4
