"""Pre-classifiers: provisional scores for the unlabeled target samples.

The adaptation solvers anchor their unlabeled fidelity term to a score
matrix ``phi`` with one row per unlabeled target sample and one column
per class.  Any callable ``bundle -> phi`` works; this module ships
three interchangeable producers (random-feature ridge, kernel ridge,
and an elementwise average of other producers) plus a CSV import for
scores computed elsewhere.  Scores are always used raw, never
thresholded to labels.

Pre-classifiers train on source plus labeled target only; the bundle
type carries no unlabeled-target labels, so leakage is impossible by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import fit_elm
from .data import Dataset, DomainBundle, concat_features, encode_labels, read_matrix_csv
from .errors import ParameterError, ShapeError
from .features import HiddenMap, map_features
from .linalg import solve_spd

__all__ = [
    "KernelSpec",
    "average_prelabels",
    "load_prelabels",
    "preclassify_elm",
    "preclassify_kernel",
]

KERNELS = ("laplacian_dist", "inverse_dist", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth for the kernel ridge pre-classifier.

    ``sigma=None`` selects the bandwidth automatically as ``1 / A`` where
    ``A`` is the mean squared distance over all ordered training pairs
    (self-pairs included).
    """

    kind: str = "laplacian_dist"
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in KERNELS:
            raise ParameterError(f"unknown kernel {self.kind!r}; choose from {KERNELS}")
        if self.sigma is not None and self.sigma <= 0.0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a: d x n, b: d x m -> n x m squared Euclidean distances
    aa = np.einsum("ij,ij->j", a, a)
    bb = np.einsum("ij,ij->j", b, b)
    d2 = aa[:, None] + bb[None, :] - 2.0 * (a.T @ b)
    return np.maximum(d2, 0.0)


def _kernel(spec: KernelSpec, d2: np.ndarray, sigma: float) -> np.ndarray:
    if spec.kind == "laplacian_dist":
        return np.exp(-np.sqrt(sigma) * d2)
    if spec.kind == "inverse_dist":
        return 1.0 / (np.sqrt(sigma) * d2 + 1.0)
    return np.exp(-d2 / (2.0 * sigma**2))


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
    h_train = map_features(hidden_map, Dataset(x))
    beta = fit_elm(h_train, t, ridge)
    if bundle.target_unlabeled is None:
        return np.zeros((0, bundle.n_classes))
    return map_features(hidden_map, bundle.target_unlabeled) @ beta


def preclassify_kernel(
    bundle: DomainBundle,
    spec: KernelSpec = KernelSpec(),
    ridge: float = 1.0,
) -> np.ndarray:
    """Kernel ridge scores for the unlabeled target samples.

    Kernels act on squared Euclidean distances of raw features.  A
    failed factorization is retried once with jitter ``1e-8 * I``.
    """
    if ridge <= 0.0:
        raise ParameterError(f"ridge must be positive, got {ridge}")
    x, t = _training_block(bundle)
    d_train = _sq_dists(x, x)
    sigma = spec.sigma
    if sigma is None:
        mean_sq = float(d_train.mean())
        if mean_sq <= 0.0:
            raise ParameterError("cannot auto-scale sigma: all training points coincide")
        sigma = 1.0 / mean_sq
    k_train = _kernel(spec, d_train, sigma)
    alpha = solve_spd(k_train + ridge * np.eye(x.shape[1]), t, jitter=1e-8)
    if bundle.target_unlabeled is None:
        return np.zeros((0, bundle.n_classes))
    d_cross = _sq_dists(bundle.target_unlabeled.features, x)
    return _kernel(spec, d_cross, sigma) @ alpha


def average_prelabels(scores: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean of equally shaped score matrices."""
    if not scores:
        raise ParameterError("need at least one score matrix")
    shapes = {s.shape for s in scores}
    if len(shapes) != 1:
        raise ShapeError(f"score matrices disagree on shape: {sorted(shapes)}")
    return np.mean(scores, axis=0)


def load_prelabels(path: str) -> np.ndarray:
    """Load externally computed scores (CSV, one row per unlabeled sample)."""
    return read_matrix_csv(path)


BUILTINS = ("elm", "laplacian", "inverse", "average")


def builtin_prelabels(name: str, bundle: DomainBundle, hidden_map: HiddenMap,
                      ridge: float) -> np.ndarray:
    """Scores of the builtin pre-classifier ``name`` (one of ``BUILTINS``):
    the random-feature ridge in ``hidden_map``'s space, a kernel ridge,
    or the mean of the two kernel ridges."""
    if name == "elm":
        return preclassify_elm(bundle, hidden_map, ridge)
    if name == "average":
        return average_prelabels([builtin_prelabels(k, bundle, hidden_map, ridge)
                                  for k in ("laplacian", "inverse")])
    if name in BUILTINS:
        return preclassify_kernel(bundle, KernelSpec(f"{name}_dist"), ridge)
    raise ParameterError(f"unknown pre-classifier {name!r}; choose from {BUILTINS}")
