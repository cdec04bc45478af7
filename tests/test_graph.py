"""Neighborhood graph construction and Laplacian properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edapt import (
    Dataset,
    ParameterError,
    build_knn_graph,
    quadratic_energy,
)


def test_collinear_hand_case():
    # points 0, 1, 3 on a line, k=1: 0 and 1 nominate each other, 2
    # nominates 1; the or-symmetrized adjacency is the path 0-1-2
    g = build_knn_graph(Dataset(np.array([[0.0, 1.0, 3.0]])), 1)
    assert np.array_equal(g.adjacency, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert np.array_equal(g.degrees, [1, 2, 1])
    assert np.array_equal(g.laplacian, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_tie_breaks_toward_lower_index():
    # point 0 is equidistant from 1 and 2; the stable sort must pick 1
    x = np.array([[0.0, 1.0, -1.0], [0.0, 0.0, 0.0]])
    g = build_knn_graph(Dataset(x), 1)
    assert np.array_equal(g.adjacency, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    assert np.array_equal(g.degrees, [2, 1, 1])


def test_weighted_heat_kernel_hand_case():
    # path 0-1-2 with edge lengths 1 and 2; selected squared lengths are
    # (1, 1, 4, 4) so the bandwidth is their mean 2.5
    g = build_knn_graph(Dataset(np.array([[0.0, 1.0, 3.0]])), 1, weighted=True)
    assert g.adjacency[0, 1] == pytest.approx(np.exp(-1.0 / 5.0), rel=1e-15)
    assert g.adjacency[1, 2] == pytest.approx(np.exp(-4.0 / 5.0), rel=1e-15)
    assert g.adjacency[0, 2] == 0.0
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert np.all(np.diag(g.adjacency) == 0.0)


def _random_graph(seed, n=14, d=3, k=4, weighted=False):
    rng = np.random.default_rng(seed)
    return build_knn_graph(Dataset(rng.standard_normal((d, n))), k,
                           weighted=weighted)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_laplacian_structure(seed, weighted):
    g = _random_graph(seed, weighted=weighted)
    assert np.array_equal(g.laplacian, g.laplacian.T)
    assert np.max(np.abs(g.laplacian.sum(axis=1))) < 1e-12
    assert np.all(np.diag(g.adjacency) == 0.0)


def test_quadratic_form_nonnegative():
    g = _random_graph(0)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal(g.n)
        assert x @ g.laplacian @ x >= -1e-10


def test_energy_matches_pairwise_sum():
    # tr(F' L F) == 0.5 * sum_ij A_ij ||f_i - f_j||^2, checked by loops
    g = _random_graph(5, weighted=True)
    rng = np.random.default_rng(6)
    f = rng.standard_normal((g.n, 3))
    direct = quadratic_energy(g, f)
    pairwise = 0.0
    for i in range(g.n):
        for j in range(g.n):
            diff = f[i] - f[j]
            pairwise += 0.5 * g.adjacency[i, j] * float(diff @ diff)
    assert direct == pytest.approx(pairwise, rel=1e-10)
    assert direct >= 0.0


def test_energy_accepts_vectors():
    g = build_knn_graph(Dataset(np.array([[0.0, 1.0, 3.0]])), 1)
    # path graph, f = (1, 0, 2): energy = (1-0)^2 + (0-2)^2 = 5
    assert quadratic_energy(g, np.array([1.0, 0.0, 2.0])) == pytest.approx(5.0)


def test_neighbor_count_validation():
    ds = Dataset(np.zeros((2, 3)) + np.arange(3.0))
    with pytest.raises(ParameterError):
        build_knn_graph(ds, 0)
    with pytest.raises(ParameterError):
        build_knn_graph(ds, 3)  # needs at least k+1 samples
