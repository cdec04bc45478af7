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
edges, so it is kept as one read-only CSR Laplacian and every product
with it costs O(n k) per column.  The degrees are its diagonal and,
since there are no self-edges, the adjacency is ``diag(degrees) - L``.
The dense ``adjacency`` and ``laplacian`` views cost O(n**2) time and
memory on each access; they exist for inspection and tests.  The
smoothness Gram ``H' L H`` of n x L activations ``H``, which the primal
solvers add to their normal equations, comes from
:func:`laplacian_gram` alone.  The row blocks of squared distances that
the build walks through also give the kernel pre-classifier
(:mod:`edapt.preclassify`) its distance matrices, one block each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import Dataset, _lock
from .errors import ParameterError

__all__ = ["LaplacianGraph", "build_knn_graph", "laplacian_gram", "quadratic_energy"]

# rows per distance block are chosen so that one block of squared
# distances holds about this many doubles: the build's three block
# buffers take about 24 MB whatever n is (while n <= 2**20), where the
# full matrix would take 8 n**2 bytes
_BLOCK_ENTRIES = 1 << 20

# columns per panel of H'LH are chosen so that one n x w panel of L H
# holds about this many doubles (2 MiB); panels start on multiples of 8
# columns, which kept the panelled H'LH bitwise equal to the full
# product on every measured shape with L a multiple of 8 (see
# laplacian_gram)
_PANEL_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class LaplacianGraph:
    """Unnormalized Laplacian ``L = D - A`` of a sample graph.

    ``sparse_laplacian`` is a read-only ``scipy.sparse.csr_array``; the
    degrees, the adjacency and the dense Laplacian are derived from it,
    anew and read-only on every access.
    """

    sparse_laplacian: sparse.csr_array

    def __post_init__(self):
        m = self.sparse_laplacian
        for a in (m.data, m.indices, m.indptr):
            _lock(a)

    @property
    def n(self) -> int:
        return self.sparse_laplacian.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degrees: the Laplacian's diagonal."""
        return _lock(self.sparse_laplacian.diagonal())

    @property
    def adjacency(self) -> np.ndarray:
        """Dense ``n x n`` adjacency ``diag(degrees) - L`` (O(n**2))."""
        a = self.sparse_laplacian.toarray()
        np.subtract(0.0, a, out=a)  # 0 - 0 keeps non-edges at +0.0
        a.flat[::self.n + 1] = 0.0  # no self-edges: d_i - L_ii = 0
        return _lock(a)

    @property
    def laplacian(self) -> np.ndarray:
        """Dense ``n x n`` Laplacian (O(n**2); inspection and tests only)."""
        return _lock(self.sparse_laplacian.toarray())


def _sq_dist_blocks(a: np.ndarray, b: np.ndarray, block: int):
    """Row blocks ``(start, d2)`` of the squared distances from the
    columns of ``a`` to those of ``b``.

    ``d2`` holds rows ``start:start + len(d2)`` of ``sq_i + sq_j -
    2 a_i'b_j`` (the association of the full-matrix formula), roundoff
    negatives clamped to 0.  The buffer is reused: each block overwrites
    the one before it.  The k-NN build passes ``x, x``; the kernel
    pre-classifier takes one block of all rows.
    """
    n, m = a.shape[1], b.shape[1]
    sq_a, sq_b = (np.einsum("ij,ij->j", v, v) for v in (a, b))
    d2_buf = np.empty((min(block, n), m))
    gram_buf = np.empty_like(d2_buf)
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2, gram = d2_buf[:stop - start], gram_buf[:stop - start]
        np.matmul(a[:, start:stop].T, b, out=gram)
        gram *= 2.0
        np.add(sq_a[start:stop, None], sq_b[None, :], out=d2)
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
    for start, d2 in _sq_dist_blocks(x, x, block):
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
    return LaplacianGraph(sparse.diags_array(degrees, format="csr") - adjacency)


def quadratic_energy(graph: LaplacianGraph, f: np.ndarray) -> float:
    """``tr(F' L F)``: the smoothness of per-sample values over the graph.

    Equals ``0.5 * sum_ij A_ij * ||f_i - f_j||**2``; non-negative.
    """
    f = np.asarray(f)
    if f.ndim == 1:
        f = f[:, None]
    return float(np.sum(f * (graph.sparse_laplacian @ f)))


def _panel_width(n: int) -> int:
    """Columns per panel of :func:`laplacian_gram` over ``n`` nodes."""
    return max(8, _PANEL_ENTRIES // n // 8 * 8)


def laplacian_gram(graph: LaplacianGraph, h: np.ndarray) -> np.ndarray:
    """The smoothness Gram ``H' L H`` of activations ``h`` (n x L, one row
    per graph node), as a new L x L array.

    Built by column panels, ``h.T @ (L @ h[:, j:j + w])``, so no n x L
    product is formed: beyond the result it holds one n x w panel of
    ``L H``, scipy's contiguous copy of its operand and the L x w
    product, with ``w`` a multiple of 8 chosen so that a panel holds
    about ``_PANEL_ENTRIES`` doubles (at least 8 columns).  Each column
    of ``L H`` is the sparse product's own whatever the panel, but BLAS
    may round the narrow product differently from the full one.  With
    OpenBLAS 0.3.31, the result equalled the unpanelled
    ``h.T @ (L @ h)`` bit for bit on every measured shape whose L is a
    multiple of 8 or fits one panel (the stock configs and the
    benchmark's fits among them), and came within 1.1e-15 of its
    largest entry on the others.
    """
    n, width = h.shape
    w = _panel_width(n)
    out = np.empty((width, width))
    for j in range(0, width, w):
        out[:, j:j + w] = h.T @ (graph.sparse_laplacian @ h[:, j:j + w])
    return out
