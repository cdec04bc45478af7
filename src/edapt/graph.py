"""k-nearest-neighbor graphs and their unnormalized Laplacians.

The manifold term of the semi-supervised objectives is
``tr(F' L F)`` with ``L = D - A`` built over the target samples
(labeled block first, unlabeled block second, in that fixed order).
Adjacency is the symmetric OR of the k-nearest-neighbor relation under
Euclidean distance in raw feature space, self-edges excluded, distance
ties broken toward the lower sample index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ParameterError

__all__ = ["LaplacianGraph", "build_knn_graph", "quadratic_energy"]


@dataclass(frozen=True, eq=False)
class LaplacianGraph:
    """Adjacency, degrees, and unnormalized Laplacian of a sample graph."""

    adjacency: np.ndarray
    degrees: np.ndarray
    laplacian: np.ndarray
    n_neighbors: int

    def __post_init__(self):
        for name in ("adjacency", "degrees", "laplacian"):
            a = getattr(self, name)
            a.flags.writeable = False

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    sq = np.einsum("ij,ij->j", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x.T @ x)
    np.maximum(d2, 0.0, out=d2)  # clamp roundoff negatives for duplicates
    return d2


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
        the selected edges; default is binary 0/1 weights.

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
    d2 = _pairwise_sq_dists(data.features)
    np.fill_diagonal(d2, np.inf)
    # stable sort: equal distances resolve toward the lower index
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :n_neighbors]
    mask = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), n_neighbors)
    mask[rows, nearest.ravel()] = True
    mask |= mask.T

    if weighted:
        t = float(d2[mask].mean())
        adjacency = np.where(mask, np.exp(-d2 / (2.0 * t)), 0.0)
        np.fill_diagonal(adjacency, 0.0)
    else:
        adjacency = mask.astype(np.float64)
    degrees = adjacency.sum(axis=1)
    laplacian = np.diag(degrees) - adjacency
    return LaplacianGraph(adjacency, degrees, laplacian, n_neighbors)


def quadratic_energy(graph: LaplacianGraph, f: np.ndarray) -> float:
    """``tr(F' L F)``: the smoothness of per-sample values over the graph.

    Equals ``0.5 * sum_ij A_ij * ||f_i - f_j||**2``; non-negative.
    """
    f = np.asarray(f)
    if f.ndim == 1:
        f = f[:, None]
    return float(np.sum(f * (graph.laplacian @ f)))
