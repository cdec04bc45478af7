"""Ridge baseline solvers: both solution branches and the graph variant."""

import numpy as np
import pytest

from edapt import (
    Dataset,
    ParameterError,
    ShapeError,
    build_knn_graph,
    fit_elm,
    fit_sselm,
)
from edapt.linalg import solve_spd


def test_identity_activations_hand_case():
    # h = I: beta = (I + I/r)^-1 t = t * r / (r + 1)
    t = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [0.5, 0.0]])
    beta = fit_elm(np.eye(4), t, ridge=3.0)
    assert np.allclose(beta, 0.75 * t, rtol=0.0, atol=1e-12)


def test_branches_agree_tall_problem():
    # 6x4: the solver takes the primal route; the dual form must match
    rng = np.random.default_rng(0)
    h = rng.standard_normal((6, 4))
    t = rng.standard_normal((6, 3))
    for ridge in (0.1, 1.0, 100.0):
        beta = fit_elm(h, t, ridge)
        dual = h.T @ np.linalg.solve(h @ h.T + np.eye(6) / ridge, t)
        assert np.linalg.norm(beta - dual) < 1e-8 * np.linalg.norm(dual)


def test_branches_agree_wide_problem():
    # 4x6: the solver takes the dual route; the primal form must match
    rng = np.random.default_rng(1)
    h = rng.standard_normal((4, 6))
    t = rng.standard_normal((4, 3))
    for ridge in (0.1, 1.0, 100.0):
        beta = fit_elm(h, t, ridge)
        primal = np.linalg.solve(h.T @ h + np.eye(6) / ridge, h.T @ t)
        assert np.linalg.norm(beta - primal) < 1e-8 * np.linalg.norm(primal)


def test_square_problem_takes_the_primal_form():
    # n = L: the adaptation solvers' rule, sample space only when n < L,
    # so the solve is the L x L system, bit for bit
    rng = np.random.default_rng(5)
    h = rng.standard_normal((5, 5))
    t = rng.standard_normal((5, 3))
    a = h.T @ h
    a.flat[::6] += 1.0 / 2.0
    assert np.array_equal(fit_elm(h, t, 2.0), solve_spd(a, h.T @ t))


def test_large_ridge_interpolates():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((5, 5)) + 2.0 * np.eye(5)
    t = rng.standard_normal((5, 2))
    beta = fit_elm(h, t, ridge=1e10)
    assert np.max(np.abs(h @ beta - t)) < 1e-6


def test_small_ridge_shrinks():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((8, 4))
    t = rng.standard_normal((8, 2))
    norms = [np.linalg.norm(fit_elm(h, t, r)) for r in (1e-6, 1e-2, 1.0, 1e2)]
    assert norms[0] < 1e-4
    assert all(a < b for a, b in zip(norms, norms[1:]))


def test_fit_elm_validation():
    with pytest.raises(ParameterError):
        fit_elm(np.eye(2), np.eye(2), 0.0)
    with pytest.raises(ShapeError):
        fit_elm(np.eye(3), np.eye(2), 1.0)


def test_sselm_without_graph_term_is_ridge_fit():
    rng = np.random.default_rng(4)
    h_all = rng.standard_normal((12, 4))
    h_lab = h_all[:8]
    t = rng.standard_normal((8, 3))
    graph = build_knn_graph(Dataset(rng.standard_normal((2, 12))), 3)
    beta = fit_sselm(h_all, t, ridge=2.0, manifold_weight=0.0, graph=graph)
    assert np.allclose(beta, fit_elm(h_lab, t, 2.0), rtol=1e-10, atol=1e-12)


def test_sselm_strong_smoothing_equalizes_cliques():
    # nodes 0/2 and 1/3 form two far-apart pairs; with a huge smoothness
    # weight the paired nodes must receive near-identical scores
    pos = np.array([[0.0, 10.0, 0.1, 10.1], [0.0, 0.0, 0.0, 0.0]])
    graph = build_knn_graph(Dataset(pos), 1)
    assert graph.adjacency[0, 2] == 1.0 and graph.adjacency[1, 3] == 1.0
    assert graph.adjacency[0, 1] == 0.0
    rng = np.random.default_rng(5)
    h_all = rng.standard_normal((4, 6))
    t = np.array([[1.0, -1.0], [-1.0, 1.0]])  # nodes 0 and 1 labeled
    beta = fit_sselm(h_all, t, ridge=10.0, manifold_weight=1e8, graph=graph)
    scores = h_all @ beta
    assert np.max(np.abs(scores[0] - scores[2])) < 1e-5
    assert np.max(np.abs(scores[1] - scores[3])) < 1e-5
    # the pairs still separate: labels did not wash out
    assert np.linalg.norm(scores[0] - scores[1]) > 1e-3


def test_sselm_validation():
    graph = build_knn_graph(Dataset(np.array([[0.0, 1.0, 3.0]])), 1)
    with pytest.raises(ParameterError):
        fit_sselm(np.ones((3, 2)), np.ones((2, 2)), 0.0, 1.0, graph)
    with pytest.raises(ParameterError):
        fit_sselm(np.ones((3, 2)), np.ones((2, 2)), 1.0, -1.0, graph)
    with pytest.raises(ShapeError):
        fit_sselm(np.ones((3, 2)), np.ones((4, 2)), 1.0, 1.0, graph)
    with pytest.raises(ShapeError):
        fit_sselm(np.ones((5, 2)), np.ones((2, 2)), 1.0, 1.0, graph)

