"""k-nearest-neighbor graphs and their unnormalized Laplacians.

The manifold term of the semi-supervised objectives is
``tr(F' L F)`` with ``L = D - A`` built over the target samples
(labeled block first, unlabeled block second, in that fixed order).
Adjacency is the symmetric OR of the k-nearest-neighbor relation under
Euclidean distance in raw feature space, self-edges excluded, equal
computed distances broken toward the lower sample index.  Copies of a
duplicated point are equally distant only up to the rounding of
``|x|^2 + |y|^2 - 2 x'y``, so which copy a row nominates follows that
rounding, not the index rule.

Storage is sparse: a graph over ``n`` samples has at most ``2 k n``
edges, so the adjacency and the Laplacian are kept as read-only CSR
arrays and every product with them costs O(n k) per column.  The dense
``adjacency`` and ``laplacian`` views cost O(n**2) time and memory on
each access; they exist for inspection and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import Dataset
from .errors import ParameterError

__all__ = ["LaplacianGraph", "build_knn_graph", "quadratic_energy"]

# rows per distance block are chosen so that one block of squared
# distances holds about this many doubles: the build's three block
# buffers take about 24 MB whatever n is (while n <= 2**20), where the
# full matrix would take 8 n**2 bytes
_BLOCK_ENTRIES = 1 << 20


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class LaplacianGraph:
    """Adjacency, degrees, and unnormalized Laplacian of a sample graph.

    ``sparse_adjacency`` and ``sparse_laplacian`` are read-only
    ``scipy.sparse.csr_array`` matrices; ``adjacency`` and ``laplacian``
    are dense float64 copies of them, built anew on every access.
    """

    sparse_adjacency: sparse.csr_array
    degrees: np.ndarray
    sparse_laplacian: sparse.csr_array
    n_neighbors: int

    def __post_init__(self):
        _read_only(self.degrees)
        for m in (self.sparse_adjacency, self.sparse_laplacian):
            for a in (m.data, m.indices, m.indptr):
                _read_only(a)

    @property
    def n(self) -> int:
        return self.degrees.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        """Dense ``n x n`` adjacency (O(n**2); inspection and tests only)."""
        return _read_only(self.sparse_adjacency.toarray())

    @property
    def laplacian(self) -> np.ndarray:
        """Dense ``n x n`` Laplacian (O(n**2); inspection and tests only)."""
        return _read_only(self.sparse_laplacian.toarray())


def _sq_dist_blocks(x: np.ndarray, block: int):
    """Row blocks ``(start, d2)`` of the squared-distance matrix.

    ``d2`` holds rows ``start:start + len(d2)`` of ``sq_i + sq_j -
    2 x_i'x_j`` (the association of the full-matrix formula), roundoff
    negatives clamped to 0.  The buffer is reused: each block overwrites
    the one before it.
    """
    n = x.shape[1]
    sq = np.einsum("ij,ij->j", x, x)
    d2_buf = np.empty((min(block, n), n))
    gram_buf = np.empty_like(d2_buf)
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2, gram = d2_buf[:stop - start], gram_buf[:stop - start]
        np.matmul(x[:, start:stop].T, x, out=gram)
        gram *= 2.0
        np.add(sq[start:stop, None], sq[None, :], out=d2)
        d2 -= gram
        np.maximum(d2, 0.0, out=d2)  # clamp roundoff negatives for duplicates
        yield start, d2


def _nominations(x: np.ndarray, n_neighbors: int):
    """Each sample's ``n_neighbors`` nearest other samples.

    Works through row blocks of the squared-distance matrix.  In each
    block a partition finds every row's k-th smallest distance; the
    candidates at or below it are ordered by (distance, index), so equal
    computed distances resolve toward the lower index (duplicates tie
    only up to rounding; see the module notes), and the first k are kept.
    Returns ``(rows, cols, sq_dists)`` of the ``n * k`` nominations.
    """
    n = x.shape[1]
    k = n_neighbors
    block = max(1, _BLOCK_ENTRIES // n)
    part_buf = np.empty((min(block, n), n))
    rows, cols, dists = [], [], []
    for start, d2 in _sq_dist_blocks(x, block):
        m = d2.shape[0]
        local = np.arange(m)
        d2[local, start + local] = np.inf  # no self-edges
        kth = part_buf[:m]
        np.copyto(kth, d2)
        kth.partition(k - 1, axis=1)
        r, c = np.nonzero(d2 <= kth[:, k - 1:k])
        dist = d2[r, c]
        order = np.lexsort((c, dist, r))
        r, c, dist = r[order], c[order], dist[order]
        # rank within the row; every row has at least k candidates
        counts = np.bincount(r, minlength=m)
        keep = np.arange(r.shape[0]) - (np.cumsum(counts) - counts)[r] < k
        rows.append(r[keep] + start)
        cols.append(c[keep])
        dists.append(dist[keep])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(dists)


def build_knn_graph(data: Dataset, n_neighbors: int = 5,
                    weighted: bool = False) -> LaplacianGraph:
    """Build the symmetric k-NN graph over a dataset's samples.

    Parameters
    ----------
    data : Dataset
        The samples to connect (Euclidean distance on raw features).
    n_neighbors : int
        Each sample nominates its ``n_neighbors`` nearest other samples;
        an edge exists if either endpoint nominates the other.
    weighted : bool
        If True, edges carry Gaussian heat weights
        ``exp(-d_ij**2 / (2 t))`` with ``t`` the mean squared length of
        the selected edges (all weights are 1 when every edge has length
        0); default is binary 0/1 weights.

    Raises
    ------
    ParameterError
        If ``n_neighbors < 1`` or ``n_neighbors >= n`` (self excluded).
    """
    n = data.n
    if n_neighbors < 1:
        raise ParameterError(f"n_neighbors must be >= 1, got {n_neighbors}")
    if n_neighbors >= n:
        raise ParameterError(
            f"n_neighbors={n_neighbors} needs at least {n_neighbors + 1} samples, got {n}"
        )
    rows, cols, d2 = _nominations(data.features, n_neighbors)
    # symmetric OR: each nomination and its transpose, deduplicated; an
    # entry's first occurrence is its own row's nomination when there is
    # one, so it keeps that row's distance
    keys, first = np.unique(np.concatenate([rows * n + cols, cols * n + rows]),
                            return_index=True)
    rows, cols = np.divmod(keys, n)
    weights = np.ones(keys.shape[0])
    if weighted:
        d2 = np.concatenate([d2, d2])[first]
        t = float(d2.mean())
        # t = 0 only when every edge has length 0, and then every heat
        # weight exp(-0 / (2 t)) is 1, as it is for any t > 0
        if t > 0.0:
            weights = np.exp(-d2 / (2.0 * t))
    adjacency = sparse.csr_array((weights, (rows, cols)), shape=(n, n))
    degrees = adjacency.sum(axis=1)
    laplacian = sparse.diags_array(degrees, format="csr") - adjacency
    return LaplacianGraph(adjacency, degrees, laplacian, n_neighbors)


def quadratic_energy(graph: LaplacianGraph, f: np.ndarray) -> float:
    """``tr(F' L F)``: the smoothness of per-sample values over the graph.

    Equals ``0.5 * sum_ij A_ij * ||f_i - f_j||**2``; non-negative.
    """
    f = np.asarray(f)
    if f.ndim == 1:
        f = f[:, None]
    return float(np.sum(f * (graph.sparse_laplacian @ f)))
