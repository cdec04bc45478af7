"""The sparse k-NN graph: exact against the dense brute-force build, and
the only form the solvers touch."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from edapt import (
    Dataset,
    LaplacianGraph,
    augment_noise_view,
    build_knn_graph,
    fit_eda,
    fit_mveda,
    fit_sselm,
)
from edapt import graph as graph_module
from edapt.single import _beta_blocks

from helpers import (
    blob_bundle,
    dense_knn_reference,
    peak_bytes,
    random_prelabels,
    small_params,
    small_problem,
)

# heat weights and degrees against the dense reference: the sparse
# build computes each edge's squared length on its own, which can differ
# in the last bits from a distance matrix's, and sums each degree over
# its row's edges only, in another order
HEAT_RTOL = 1e-12


@st.composite
def point_sets(draw):
    """Kind, points, a neighbor count in [1, n-1], rows per distance block."""
    kind = draw(st.sampled_from(["random", "duplicated", "lattice"]))
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        x = rng.standard_normal((d, n))
    elif kind == "duplicated":
        base = rng.standard_normal((d, max(1, n // 3)))
        x = base[:, rng.integers(0, base.shape[1], n)]
    else:  # small integer lattice: exact distances and many exact ties
        x = rng.integers(-2, 3, size=(d, n)).astype(np.float64)
    return kind, x, draw(st.integers(1, n - 1)), draw(st.integers(1, n))


def _pattern(m, n) -> np.ndarray:
    """Boolean n x n matrix of a CSR array's stored entries."""
    out = np.zeros((n, n), dtype=bool)
    out[np.repeat(np.arange(n), np.diff(m.indptr)), m.indices] = True
    return out


def _assert_same_graph(g, reference, weighted, compare_weights=True):
    mask, adjacency, degrees, laplacian = reference
    # the Laplacian stores each edge and the whole diagonal, nothing else
    assert g.sparse_laplacian.nnz == mask.sum() + g.n
    assert np.array_equal(_pattern(g.sparse_laplacian, g.n),
                          mask | np.eye(g.n, dtype=bool))
    if not weighted:
        assert np.array_equal(g.adjacency, adjacency)
        assert np.array_equal(g.degrees, degrees)
        assert np.array_equal(g.laplacian, laplacian)
    elif compare_weights:
        np.testing.assert_allclose(g.adjacency, adjacency, rtol=HEAT_RTOL, atol=0.0)
        np.testing.assert_allclose(g.degrees, degrees, rtol=HEAT_RTOL, atol=0.0)
        np.testing.assert_allclose(g.laplacian, laplacian, rtol=HEAT_RTOL, atol=0.0)


@settings(max_examples=300, deadline=None)
@given(point_sets(), st.booleans())
def test_sparse_build_matches_dense_reference(case, weighted):
    kind, x, k, block_rows = case
    d, n = x.shape
    data = Dataset(x)
    # Between copies of one float point, squared distances are rounding
    # noise, and how a product rounds depends on the block and the
    # memory layout.  So duplicated float points are checked on the very
    # distances the build saw, and their heat weights (noise over noise)
    # are not compared.  When every selected edge has length 0 (lattice
    # sets can do that too) the heat bandwidth is 0 and both builds give
    # every edge weight 1.
    exact = kind != "duplicated"
    with mock.patch.object(graph_module, "_BLOCK_ENTRIES", block_rows * n):
        g = build_knn_graph(data, k, weighted=weighted)
        f = data.features
        blocks = np.vstack([b.copy() for _, b in
                            graph_module._sq_dist_blocks(f, f, block_rows)])
        _assert_same_graph(g, dense_knn_reference(x, k, weighted, blocks),
                           weighted, exact)
        if exact:
            _assert_same_graph(g, dense_knn_reference(x, k, weighted), weighted)
    sq = np.einsum("ij,ij->j", x, x)
    full = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x.T @ x), 0.0)
    bound = 4.0 * (d + 1) * np.finfo(np.float64).eps * (sq[:, None] + sq[None, :])
    assert np.all(np.abs(blocks - full) <= bound)


def _nominations_at(x, k, entries):
    with mock.patch.object(graph_module, "_BLOCK_ENTRIES", entries):
        return graph_module._nominations(x, k)


@pytest.mark.parametrize("d, span", [(2, 6), (4, 3)])
def test_nominations_are_a_full_sort_by_distance_then_index_at_any_block_size(d, span):
    # integer points: every distance is exact, so no block size can move a
    # bit; 1500 points on a 13**2 or 7**4 lattice hold many duplicates and
    # exact ties.  2**10 entries make one-row blocks, 2**20 one block.
    n, k = 1500, 7
    x = np.random.default_rng(d).integers(-span, span + 1, size=(d, n)).astype(float)
    d2 = ((x[:, :, None] - x[:, None, :]) ** 2).sum(axis=0)
    np.fill_diagonal(d2, np.inf)
    order = np.lexsort((np.broadcast_to(np.arange(n), (n, n)), d2))[:, :k]
    rows = np.repeat(np.arange(n), k)
    want = (rows, order.ravel(), d2[rows, order.ravel()])
    for entries in (1 << 10, 1 << 14, 1 << 17, 1 << 20):
        got = _nominations_at(x, k, entries)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1])
def test_heat_weights_do_not_depend_on_the_distance_blocks(seed):
    # float points in 4-D, as wide's noise view has them: one-row blocks
    # and one block round a distance product differently in the last
    # bits, but each edge's length is computed on its own, so the
    # weighted graph is the same bit for bit
    x = np.random.default_rng(seed).standard_normal((4, 609))
    graphs = []
    for entries in (1 << 10, 1 << 20):
        with mock.patch.object(graph_module, "_BLOCK_ENTRIES", entries):
            graphs.append(build_knn_graph(Dataset(x), 10, weighted=True))
    a, b = (g.sparse_laplacian for g in graphs)
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_the_build_holds_three_one_mib_distance_blocks():
    # 3009 target rows, the tall fit's graph: the three block buffers used
    # to take 25 MB (27 MB at peak)
    n, k = 3009, 10
    data = Dataset(np.random.default_rng(0).standard_normal((2, n)))
    assert peak_bytes(build_knn_graph, data, k) <= 3 * 8 * (1 << 17) + 64 * n * k


def test_graph_is_stored_sparse_and_read_only():
    n, k = 50, 4
    g = build_knn_graph(Dataset(np.random.default_rng(0).standard_normal((3, n))), k)
    assert g.n == n
    assert g.sparse_laplacian.nnz <= 2 * k * n + n
    assert isinstance(g.sparse_laplacian, sparse.csr_array)
    for a in (g.sparse_laplacian.data, g.sparse_laplacian.indices,
              g.sparse_laplacian.indptr):
        with pytest.raises(ValueError):
            a[0] = 1
    for dense in (g.adjacency, g.laplacian):
        assert dense.shape == (n, n) and dense.dtype == np.float64
        assert not dense.flags.writeable
    with pytest.raises(ValueError):
        g.degrees[0] = 0.0


def test_smoothness_gram_matches_the_dense_product():
    prob, params = small_problem(seed=3)
    _, g_smooth, _ = _beta_blocks(prob, params)
    dense = params.manifold_weight * (
        prob.h_target.T @ (prob.graph.laplacian @ prob.h_target))
    np.testing.assert_allclose(g_smooth, dense, rtol=1e-12, atol=1e-12)


def test_solvers_never_build_the_dense_views(monkeypatch):
    def refuse(self):
        raise AssertionError("a solver read a dense n x n graph view")

    monkeypatch.setattr(LaplacianGraph, "adjacency", property(refuse))
    monkeypatch.setattr(LaplacianGraph, "laplacian", property(refuse))
    bundle = blob_bundle(0)
    params = small_params(max_iter=2)
    pre = random_prelabels(bundle)
    fit_eda(bundle, pre, params)
    fit_mveda([bundle, augment_noise_view(bundle, 2, 1)], [pre, pre], params)
    rng = np.random.default_rng(0)
    graph = build_knn_graph(bundle.target_all(), 3)
    h_all = rng.standard_normal((graph.n, 5))
    fit_sselm(h_all, rng.standard_normal((4, 3)), ridge=1.0,
              manifold_weight=1.0, graph=graph)
