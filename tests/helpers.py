"""Small deterministic problem builders shared across the test modules."""

import numpy as np

from edapt import Dataset, DomainBundle, EdaParams, build_problem

__all__ = ["blob_bundle", "dense_knn_reference", "small_params", "small_problem",
           "random_prelabels"]


def blob_bundle(seed=0, d=2, c=3, per_source=4, per_labeled=2, per_unlabeled=3,
                per_test=0, shift=1.0):
    """Gaussian class blobs with a translated target domain.

    Counts are per class.  Built directly from a local RNG so the tests
    do not lean on the package's own synthetic generator.
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 3.0, size=(c, d))

    def block(per_class, translate):
        xs, ys = [], []
        for i in range(c):
            x = means[i][:, None] + 0.5 * rng.standard_normal((d, per_class))
            xs.append(x + translate)
            ys.append(np.full(per_class, i, dtype=np.int64))
        return np.hstack(xs), np.concatenate(ys)

    xs, ys = block(per_source, 0.0)
    xl, yl = block(per_labeled, shift)
    xu, _ = block(per_unlabeled, shift)
    source = Dataset(xs, ys)
    labeled = Dataset(xl, yl)
    unlabeled = Dataset(xu) if per_unlabeled > 0 else None
    test = None
    if per_test > 0:
        xt, yt = block(per_test, shift)
        test = Dataset(xt, yt)
    return DomainBundle(source, labeled, unlabeled, c, test)


def small_params(**overrides):
    defaults = dict(n_hidden=24, n_neighbors=3, c_source=1.0, c_target=10.0,
                    fidelity_weight=5.0, manifold_weight=1.0)
    defaults.update(overrides)
    return EdaParams(**defaults)


def random_prelabels(bundle, seed=0):
    rng = np.random.default_rng(seed + 1000)
    return rng.uniform(-1.0, 1.0, size=(bundle.n_unlabeled, bundle.n_classes))


def small_problem(seed=0, **overrides):
    """A ready-to-solve (problem, params) pair on a tiny bundle."""
    bundle = blob_bundle(seed)
    params = small_params(**overrides)
    prob, _ = build_problem(bundle, random_prelabels(bundle, seed), params)
    return prob, params


def dense_knn_reference(x, n_neighbors, weighted=False, sq_dists=None):
    """Brute-force k-NN graph: full distance matrix and a stable argsort.

    The dense build the library used before its graphs became sparse,
    kept as the reference its sparse build is checked against.  Pass
    ``sq_dists`` (the full squared-distance matrix) to select from
    given distances instead of computing them.  Returns
    ``(mask, adjacency, degrees, laplacian)`` as dense arrays, ``mask``
    the boolean edge set.
    """
    n = x.shape[1]
    if sq_dists is None:
        sq = np.einsum("ij,ij->j", x, x)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x.T @ x)
        np.maximum(d2, 0.0, out=d2)  # clamp roundoff negatives for duplicates
    else:
        d2 = np.array(sq_dists, dtype=np.float64)
    np.fill_diagonal(d2, np.inf)
    # stable sort: equal distances resolve toward the lower index
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :n_neighbors]
    mask = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), n_neighbors)
    mask[rows, nearest.ravel()] = True
    mask |= mask.T

    if weighted:
        t = float(d2[mask].mean())
        # every selected edge has length 0: exp(-0 / (2 t)) = 1 for t > 0
        heat = np.exp(-d2 / (2.0 * t)) if t > 0.0 else np.ones_like(d2)
        adjacency = np.where(mask, heat, 0.0)
        np.fill_diagonal(adjacency, 0.0)
    else:
        adjacency = mask.astype(np.float64)
    degrees = adjacency.sum(axis=1)
    laplacian = np.diag(degrees) - adjacency
    return mask, adjacency, degrees, laplacian
