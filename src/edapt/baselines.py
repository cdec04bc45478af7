"""Closed-form baseline classifiers over a frozen random hidden layer.

``fit_elm`` is ridge regression on hidden activations, with the usual
two algebraically equivalent forms chosen by whichever Gram matrix is
smaller.  ``fit_sselm`` adds a graph-Laplacian smoothness penalty over
labeled-plus-unlabeled rows (a deliberately simplified semi-supervised
variant; reports label it "SS-ELM (simplified)").  Both add their
ridge or identity term to the diagonal of the Gram in place, and the
smoothness Gram comes from :func:`~edapt.graph.laplacian_gram`.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError
from .graph import LaplacianGraph, laplacian_gram
from .linalg import solve_spd

__all__ = ["fit_elm", "fit_sselm"]


def fit_elm(h: np.ndarray, t: np.ndarray, ridge: float) -> np.ndarray:
    """Ridge-regularized least squares from activations to targets.

    Solves ``min 0.5*||beta||**2 + (ridge/2)*||t - h @ beta||**2`` via the
    SPD system whose Gram matrix is smaller: ``(h'h + I/ridge) beta = h't``
    unless rows are fewer than hidden units, otherwise
    ``beta = h' (h h' + I/ridge)^{-1} t`` (the adaptation solvers' rule).

    Parameters
    ----------
    h : ndarray, shape (n, L)
    t : ndarray, shape (n, c)
    ridge : float
        Inverse regularization weight; must be positive.
    """
    if ridge <= 0.0:
        raise ParameterError(f"ridge must be positive, got {ridge}")
    h = np.asarray(h, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if h.ndim != 2 or t.ndim != 2 or h.shape[0] != t.shape[0]:
        raise ShapeError(f"incompatible shapes h={h.shape}, t={t.shape}")
    n, width = h.shape
    if n >= width:
        a = h.T @ h
        a.flat[::width + 1] += 1.0 / ridge
        return solve_spd(a, h.T @ t)
    a = h @ h.T
    a.flat[::n + 1] += 1.0 / ridge
    return h.T @ solve_spd(a, t)


def fit_sselm(
    h_all: np.ndarray,
    t_labeled: np.ndarray,
    ridge: float,
    manifold_weight: float,
    graph: LaplacianGraph,
) -> np.ndarray:
    """Semi-supervised ELM: ridge fit plus Laplacian smoothness.

    ``h_all`` stacks labeled rows first, then unlabeled rows; the graph
    is built over all rows of ``h_all`` in that order.  Solves::

        (I + ridge * Hl'Hl + manifold_weight * H'LH) beta = ridge * Hl'T
    """
    if ridge <= 0.0:
        raise ParameterError(f"ridge must be positive, got {ridge}")
    if manifold_weight < 0.0:
        raise ParameterError(f"manifold_weight must be >= 0, got {manifold_weight}")
    h_all = np.asarray(h_all, dtype=np.float64)
    t_labeled = np.asarray(t_labeled, dtype=np.float64)
    n_labeled = t_labeled.shape[0]
    if n_labeled > h_all.shape[0]:
        raise ShapeError(
            f"{n_labeled} labeled rows exceed {h_all.shape[0]} total rows"
        )
    if graph.n != h_all.shape[0]:
        raise ShapeError(f"graph over {graph.n} nodes, activations have {h_all.shape[0]} rows")
    h_lab = h_all[:n_labeled]
    width = h_all.shape[1]
    a = h_lab.T @ h_lab
    a *= ridge
    a.flat[::width + 1] += 1.0
    smooth = laplacian_gram(graph, h_all)
    smooth *= manifold_weight
    a += smooth
    del smooth
    return solve_spd(a, ridge * (h_lab.T @ t_labeled))

