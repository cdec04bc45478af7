"""Small deterministic problem builders shared across the test modules."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from edapt import Dataset, DomainBundle, EdaParams, build_problem
from edapt.data import concat_features, encode_labels
from edapt.linalg import solve_spd
from edapt.single import REL_STOP, TRACE_FLOOR, mv_objective

__all__ = ["beta_blocks_reference", "beta_gradient_reference", "blob_bundle",
           "dense_knn_reference", "fit_reference", "hidden_layer_reference",
           "lower_mirrored", "peak_bytes", "preclassify_kernel_reference",
           "run_python", "small_params", "small_problem", "random_prelabels",
           "solve_spd_reference", "sselm_system_reference"]


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


def beta_gradient_reference(beta, u, theta, prob, params, loss_scale=1.0,
                            smooth_scale=1.0):
    """The surrogate's beta gradient term by term, each block multiplied
    by beta and back on its own: the formula ``beta_gradient`` used
    before it shared one product with the target stack, kept as its
    reference."""
    g = u[:, None] * beta
    g = g + loss_scale * params.c_source * (
        prob.h_source.T @ (prob.h_source @ beta - prob.t_source)
    )
    g += loss_scale * params.c_target * (
        prob.h_labeled.T @ (prob.h_labeled @ beta - prob.t_labeled @ theta)
    )
    g += loss_scale * params.fidelity_weight * (
        prob.h_unlabeled.T @ (prob.h_unlabeled @ beta - prob.prelabels)
    )
    g += smooth_scale * params.manifold_weight * (
        prob.h_target.T @ (prob.graph.sparse_laplacian @ (prob.h_target @ beta))
    )
    return 2.0 * g


def hidden_layer_reference(hidden_map, x):
    """The unblocked hidden layer ``act((W @ X).T + b)``, one full-size
    temporary per step: the formula ``map_features`` used before it ran
    in row blocks, kept as its reference."""
    z = (hidden_map.weights @ x).T + hidden_map.biases
    if hidden_map.activation == "radbas":
        return np.exp(-np.square(z))
    with np.errstate(over="ignore"):  # exp(-z) = inf gives the logistic 0
        return 1.0 / (1.0 + np.exp(-z))


def solve_spd_reference(a, b, jitter=0.0, residual_fn=None, correction_fn=None,
                        start_fn=None):
    """``solve_spd`` with up to four refinement passes, stopping when the
    residual norm stops shrinking: the loop the library ran before it
    took a single pass, kept as its reference.  No thread pin and no
    finiteness checks; the jitter retry is silent."""
    try:
        factor = cho_factor(a, lower=True)
    except np.linalg.LinAlgError:
        a = a + jitter * np.eye(a.shape[0])
        factor = cho_factor(a, lower=True)
    if residual_fn is None:
        residual_fn = lambda x: b - a @ x  # noqa: E731
    correction = correction_fn or cho_solve
    x = (start_fn or correction)(factor, b)
    res = residual_fn(x)
    rn = np.linalg.norm(res)
    for _ in range(4):
        if rn == 0.0:
            break
        x_new = x + correction(factor, res)
        res_new = residual_fn(x_new)
        rn_new = np.linalg.norm(res_new)
        if rn_new >= rn:
            break
        x, res, rn = x_new, res_new, rn_new
    return x


def lower_mirrored(a):
    """A copy of the square ``a`` with its strict upper triangle replaced
    by the transpose of its strict lower one: the exactly symmetric
    ``H'LH`` that ``graph.laplacian_gram`` returns is the full product
    with its lower triangle mirrored this way."""
    out = a.copy()
    upper = np.triu_indices(a.shape[0], 1)
    out[upper] = a.T[upper]
    return out


def beta_blocks_reference(prob, params):
    """The beta normal equations' constant blocks ``(g_loss, g_smooth,
    rhs_loss)`` with a full-size temporary per term, the smoothness Gram
    through the n x L product ``L H``, its lower triangle mirrored: the
    formula ``single._beta_blocks`` used before it assembled in place,
    kept as its reference."""
    g_loss = params.c_source * (prob.h_source.T @ prob.h_source)
    g_loss += params.c_target * (prob.h_labeled.T @ prob.h_labeled)
    g_loss += params.fidelity_weight * (prob.h_unlabeled.T @ prob.h_unlabeled)
    g_smooth = params.manifold_weight * lower_mirrored(
        prob.h_target.T @ (prob.graph.sparse_laplacian @ prob.h_target)
    )
    rhs_loss = params.c_source * (prob.h_source.T @ prob.t_source)
    rhs_loss += params.fidelity_weight * (prob.h_unlabeled.T @ prob.prelabels)
    return g_loss, g_smooth, rhs_loss


def sselm_system_reference(h_all, t_labeled, ridge, manifold_weight, graph):
    """The system ``(a, rhs)`` that ``fit_sselm`` solves, built as it was
    before it assembled in place (``H'LH`` the full product's lower
    triangle, mirrored), kept as its reference."""
    n_labeled = t_labeled.shape[0]
    h_lab = h_all[:n_labeled]
    a = np.eye(h_all.shape[1]) + ridge * (h_lab.T @ h_lab)
    a += manifold_weight * lower_mirrored(h_all.T @ (graph.sparse_laplacian @ h_all))
    return a, ridge * (h_lab.T @ t_labeled)


def preclassify_kernel_reference(bundle, kind, ridge=1.0):
    """Kernel ridge scores with a full-size temporary per step and the
    ridge added through ``ridge * I``: the formula
    ``preclassify.preclassify_kernel`` used before it built its kernels in
    place, kept as its reference (validation left out)."""

    def sq_dists(a, b):
        aa = np.einsum("ij,ij->j", a, a)
        bb = np.einsum("ij,ij->j", b, b)
        return np.maximum(aa[:, None] + bb[None, :] - 2.0 * (a.T @ b), 0.0)

    def kernel(d2, sigma):
        if kind == "laplacian":
            return np.exp(-np.sqrt(sigma) * d2)
        return 1.0 / (np.sqrt(sigma) * d2 + 1.0)

    x = concat_features(bundle.source, bundle.target_labeled)
    t = encode_labels(np.concatenate([bundle.source.labels,
                                      bundle.target_labeled.labels]), bundle.n_classes)
    d_train = sq_dists(x, x)
    sigma = 1.0 / float(d_train.mean())
    k_train = kernel(d_train, sigma)
    alpha = solve_spd(k_train + ridge * np.eye(x.shape[1]), t, jitter=1e-8)
    return kernel(sq_dists(bundle.target_unlabeled.features, x), sigma) @ alpha


def fit_reference(problems, params):
    """The alternating loop as the ``single`` and ``multiview`` docstrings
    state it, with explicit L x L normal equations, dense Laplacians and
    ``np.linalg.solve``; kept as the reference the whole solver is checked
    against.

    Starts from ``u = 1``, ``theta = I`` and uniform view weights ``alpha``.
    Each round solves every view's beta (loss terms scaled by ``alpha_v``,
    smoothness by ``alpha_v**r``), then its theta, then, with two or more
    views, ``alpha_v ∝ (1 / q_v)**(1 / (r - 1))`` (views at or below
    ``TRACE_FLOOR`` times the largest trace share all the mass), then
    ``u``; it records ``mv_objective`` and stops once that moves by at
    most ``REL_STOP`` relatively.  Returns
    ``(betas, thetas, alpha_history, us, history)``.
    """
    p = params
    r = p.view_exponent
    us = [np.ones(prob.n_hidden) for prob in problems]
    thetas = [np.eye(prob.n_classes) for prob in problems]
    alpha = np.full(len(problems), 1.0 / len(problems))
    alphas, history = [], []
    for _ in range(p.max_iter):
        betas = []
        for prob, u, theta, a in zip(problems, us, thetas, alpha):
            hs, hl, hu, h = prob.h_source, prob.h_labeled, prob.h_unlabeled, prob.h_target
            lhs = np.diag(u) + a * (p.c_source * hs.T @ hs + p.c_target * hl.T @ hl
                                    + p.fidelity_weight * hu.T @ hu)
            lhs += a**r * p.manifold_weight * h.T @ prob.graph.laplacian @ h
            rhs = a * (p.c_source * hs.T @ prob.t_source
                       + p.c_target * hl.T @ prob.t_labeled @ theta
                       + p.fidelity_weight * hu.T @ prob.prelabels)
            betas.append(np.linalg.solve(lhs, rhs))
        thetas = []
        for prob, beta in zip(problems, betas):
            tt, eye = prob.t_labeled, np.eye(prob.n_classes)
            thetas.append(np.linalg.solve(
                p.c_target * tt.T @ tt + p.drift_weight * eye,
                p.c_target * tt.T @ prob.h_labeled @ beta + p.drift_weight * eye))
        if len(problems) > 1:
            q = np.array([np.trace(b.T @ prob.h_target.T @ prob.graph.laplacian
                                   @ prob.h_target @ b)
                          for b, prob in zip(betas, problems)])
            flat = q <= TRACE_FLOOR * q.max()
            w = flat if flat.any() else q ** (-1.0 / (r - 1.0))
            alpha = w / w.sum()
        us = [1.0 / (2.0 * (np.linalg.norm(b, axis=1) + p.reweight_eps)) for b in betas]
        alphas.append(alpha)
        history.append(mv_objective(betas, thetas, alpha, problems, p))
        if len(history) > 1 and abs(history[-2] - history[-1]) <= REL_STOP * (
                1.0 + abs(history[-2])):
            break
    return betas, thetas, np.array(alphas), us, history


def peak_bytes(fn, *args) -> int:
    """tracemalloc's peak during ``fn(*args)``, over what was allocated
    before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def run_python(args, **env) -> str:
    """Stdout of ``python *args`` in a child process that imports this
    checkout's ``edapt``, with ``env`` added to the environment."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout
