"""Pre-classifiers: provisional scores for the unlabeled target samples.

The adaptation solvers anchor their unlabeled fidelity term to a score
matrix ``phi`` with one row per unlabeled target sample and one column
per class.  This module ships three interchangeable producers
(random-feature ridge, kernel ridge, and an elementwise average of
other producers); scores computed elsewhere are read from CSV with
:func:`~edapt.data.read_matrix_csv`.  Scores are always used raw,
never thresholded to labels.

Pre-classifiers train on source plus labeled target only; the bundle
type carries no unlabeled-target labels, so leakage is impossible by
construction.
"""

from __future__ import annotations

import numpy as np

from .baselines import fit_elm
from .data import Dataset, DomainBundle, concat_features, encode_labels
from .errors import ParameterError, ShapeError
from .features import HiddenMap, map_features
from .graph import _sq_dist_blocks
from .linalg import solve_spd

__all__ = [
    "average_prelabels",
    "preclassify_elm",
    "preclassify_kernel",
]

KERNELS = ("laplacian", "inverse")


def _kernel(kind: str, d2: np.ndarray, sigma: float) -> np.ndarray:
    """The kernel of squared distances ``d2``, overwriting ``d2``."""
    if kind == "laplacian":
        d2 *= -np.sqrt(sigma)
        return np.exp(d2, out=d2)
    d2 *= np.sqrt(sigma)
    d2 += 1.0
    return np.divide(1.0, d2, out=d2)


def _training_block(bundle: DomainBundle) -> tuple[np.ndarray, np.ndarray]:
    if bundle.source.dim != bundle.target_dim:
        raise ShapeError(
            f"pre-classifier needs equal feature dims, got source "
            f"{bundle.source.dim} vs target {bundle.target_dim}"
        )
    x = concat_features(bundle.source, bundle.target_labeled)
    y = np.concatenate([bundle.source.labels, bundle.target_labeled.labels])
    return x, encode_labels(y, bundle.n_classes)


def preclassify_elm(bundle: DomainBundle, hidden_map: HiddenMap,
                    ridge: float = 1.0) -> np.ndarray:
    """Random-feature ridge scores for the unlabeled target samples.

    Fits :func:`~edapt.baselines.fit_elm` on source plus labeled target
    in the given map's hidden space and evaluates the unlabeled split.
    """
    x, t = _training_block(bundle)
    if bundle.target_unlabeled is None:
        return np.zeros((0, bundle.n_classes))
    beta = fit_elm(map_features(hidden_map, Dataset(x)), t, ridge)
    return map_features(hidden_map, bundle.target_unlabeled, beta)


def preclassify_kernel(bundle: DomainBundle, kind: str = "laplacian",
                       ridge: float = 1.0) -> np.ndarray:
    """Kernel ridge scores for the unlabeled target samples.

    Kernels act on squared Euclidean distances ``d2`` of raw features:
    ``laplacian`` is ``exp(-sqrt(sigma) d2)`` and ``inverse`` is
    ``1 / (sqrt(sigma) d2 + 1)``, with the bandwidth ``sigma = 1 / A``
    for ``A`` the mean squared distance over all ordered training pairs
    (self-pairs included).  A failed factorization is retried once with
    jitter ``1e-8 * I``.  The kernels are built in place, so a call holds
    at most two n x n arrays for n training samples (the kernel and its
    Cholesky factor), then two n_u x n for the n_u unlabeled ones.
    """
    if kind not in KERNELS:
        raise ParameterError(f"unknown kernel {kind!r}; choose from {KERNELS}")
    if ridge <= 0.0:
        raise ParameterError(f"ridge must be positive, got {ridge}")
    x, t = _training_block(bundle)
    if bundle.target_unlabeled is None:
        return np.zeros((0, bundle.n_classes))
    # the distance generator's single block: all rows at once
    _, d_train = next(_sq_dist_blocks(x, x, x.shape[1]))
    mean_sq = float(d_train.mean())
    if mean_sq <= 0.0:
        raise ParameterError("cannot auto-scale sigma: all training points coincide")
    sigma = 1.0 / mean_sq
    k_train = _kernel(kind, d_train, sigma)
    k_train.flat[::k_train.shape[0] + 1] += ridge
    alpha = solve_spd(k_train, t, jitter=1e-8)
    del d_train, k_train
    x_u = bundle.target_unlabeled.features
    _, d_u = next(_sq_dist_blocks(x_u, x, x_u.shape[1]))
    return _kernel(kind, d_u, sigma) @ alpha


def average_prelabels(scores: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean of equally shaped score matrices."""
    if not scores:
        raise ParameterError("need at least one score matrix")
    shapes = {s.shape for s in scores}
    if len(shapes) != 1:
        raise ShapeError(f"score matrices disagree on shape: {sorted(shapes)}")
    return np.mean(scores, axis=0)


# ``average`` is the mean of the kernel ridges' scores
BUILTINS = ("elm", *KERNELS, "average")


def builtin_prelabels(name: str, bundle: DomainBundle, hidden_map: HiddenMap,
                      ridge: float) -> np.ndarray:
    """Scores of the builtin pre-classifier ``name`` (one of ``BUILTINS``):
    the random-feature ridge in ``hidden_map``'s space, a kernel ridge,
    or the mean of the two kernel ridges."""
    if name == "elm":
        return preclassify_elm(bundle, hidden_map, ridge)
    if name == "average":
        return average_prelabels([builtin_prelabels(k, bundle, hidden_map, ridge)
                                  for k in KERNELS])
    if name in KERNELS:
        return preclassify_kernel(bundle, name, ridge)
    raise ParameterError(f"unknown pre-classifier {name!r}; choose from {BUILTINS}")
