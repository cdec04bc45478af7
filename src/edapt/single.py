"""Single-view extreme domain adaptation.

The solver jointly learns sparse output weights ``beta`` and a
class-drift matrix ``theta`` by minimizing

    J(beta, theta) = ||beta||_{2,1}
                   + c_source   * ||Hs beta - Ts||_F^2
                   + c_target   * ||Ht beta - Tt theta||_F^2
                   + drift_w    * ||theta - I||_F^2
                   + fidelity_w * ||Hu beta - phi||_F^2
                   + manifold_w * tr(beta' H' L H beta)

over hidden activations of source (``Hs``), labeled target (``Ht``) and
unlabeled target (``Hu``) samples, with ``H`` the labeled-then-unlabeled
target stack, ``L`` its neighborhood-graph Laplacian, and ``phi`` the
pre-classifier scores for the unlabeled rows.  The row-sparse norm is
handled by iteratively reweighted least squares: with
``u_i = 1 / (2 (||beta_i|| + eps))`` fixed, both block updates are SPD
solves, and alternating them descends J monotonically.

The beta solve is chosen by shape: the L x L normal equations over the
hidden units, or, when a view stacks fewer rows n than hidden units L,
an n x n sample-space system that never forms an L x L matrix: its
first iterate comes from the push-through identity and its correction
from the Woodbury identity.  Both take the same single refinement pass
in :func:`~edapt.linalg.solve_spd`, on the analytic gradient.

Memory.  :func:`build_problem` builds the target graph before it maps
the activations, so the graph's distance blocks never sit on top of
them.  The primal system is assembled in place: ``_beta_blocks`` sums
the loss Grams into one L x L array and takes ``H'LH`` from
:func:`~edapt.graph.laplacian_gram`, which computes its lower triangle
one panel at a time and never forms an n x L product, so it holds at
most three L x L arrays beyond the activations.
A caller that fits one view at many loss weights can instead hand
every fit the same dict; the first primal fit stores the view's
weight-free terms there (``_CONSTANT_GRAMS``: ``Hs'Hs``, ``Hu'Hu``,
``H'LH`` and ``Hs'Ts``) and each fit scales copies of them, with the
same bits.  Only the benchmark does: a single fit would pay for three
more L x L arrays.
A one-view fit adds the smoothness Gram into the loss Gram once; each
solve then holds that block, the system and its Cholesky factor.  The
sample-space solve forms no L x L array: it holds the n x n matrix
``S`` and its factor, and the target block's Cholesky factor and
inverse (n_t x n_t each; while they are built, the dense block too).

One fit body here also runs the multi-view solver (:mod:`edapt.multiview`):
it builds each view's problem and runs one loop, which scales each view's
loss terms by ``alpha_v`` and its smoothness term by ``alpha_v**r`` and
adds the view-weight step when there are two or more views.  :func:`fit_eda`
is that body on one view (``alpha = [1]``), and :class:`EdaModel` records
a fit of either kind.  One helper places the view weights for every
solve and objective, and one predict body scores one or many views and
fuses them by ``alpha``: :func:`predict_eda` runs it on one view.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DomainBundle, _lock, decode_labels, encode_labels
from .errors import (ParameterError, ShapeError, check_choice, check_finite, check_int,
                     check_real)
from .features import (ACTIVATIONS, HiddenMap, Standardizer, derive_view_seed,
                       map_features, new_hidden_map)
from .graph import LaplacianGraph, build_knn_graph, laplacian_gram, quadratic_energy
from .linalg import _blas_threads_for, cho_factor, cho_inverse, cho_solve, solve_spd

__all__ = [
    "EdaModel",
    "EdaParams",
    "EdaProblem",
    "beta_gradient",
    "build_problem",
    "check_prelabels",
    "eda_objective",
    "fit_eda",
    "l21_norm",
    "predict_eda",
    "surrogate_objective",
    "theta_gradient",
    "update_beta",
    "update_theta",
    "update_u",
]

# early exit when the recorded objective stops moving at this relative level
REL_STOP = 1e-10


@dataclass(frozen=True)
class EdaParams:
    """Hyperparameters of the adaptation solvers.

    Attributes
    ----------
    c_source, c_target : float
        Weights of the source / labeled-target fitting losses.
    drift_weight : float
        Pull of the class-drift matrix toward the identity; must be
        positive (it keeps the drift update well posed).
    fidelity_weight : float
        Weight of the unlabeled-target score-matching term.
    manifold_weight : float
        Weight of the graph smoothness term.
    n_hidden : int
        Width of the random hidden layer.
    max_iter : int
        Number of alternating rounds.
    reweight_eps : float
        Floor inside the row reweighting; keeps weights finite when a
        row of ``beta`` hits zero.
    n_neighbors : int
        Neighborhood size of the target graph.
    view_exponent : float
        Exponent ``r > 1`` on the view weights (multi-view only).
    activation : str
        Hidden activation, ``"radbas"`` or ``"sigmoid"``.
    seed : int
        Seed for the random hidden layer.

    ``n_hidden``, ``activation`` and ``seed`` only draw maps (:meth:`view_map`).
    A map passed to :func:`fit_eda` or :func:`~edapt.multiview.fit_mveda`
    overrides all three, and a fitted model's (and its file's)
    ``hidden_map`` is what predicts, whatever its ``params`` say.
    """

    c_source: float = 1.0
    c_target: float = 1000.0
    drift_weight: float = 1.0
    fidelity_weight: float = 20.0
    manifold_weight: float = 1.0
    n_hidden: int = 1000
    max_iter: int = 5
    reweight_eps: float = 1e-6
    n_neighbors: int = 5
    view_exponent: float = 2.0
    activation: str = "radbas"
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_hidden", 1), ("max_iter", 1), ("n_neighbors", 1),
                            ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), least))
        for name in ("c_source", "c_target", "fidelity_weight", "manifold_weight"):
            check_real(name, getattr(self, name), 0.0)
        for name in ("drift_weight", "reweight_eps"):
            check_real(name, getattr(self, name), 0.0, strict=True)
        check_real("view_exponent", self.view_exponent, 1.0, strict=True)
        check_choice("activation", self.activation, ACTIVATIONS)

    def view_map(self, n_features: int, view: int = 0) -> HiddenMap:
        """View ``view``'s hidden map over ``n_features`` inputs, drawn from
        ``derive_view_seed(seed, view)`` (``seed`` itself for view 0): the
        one recipe every fit, ``edapt fit`` and the bench draw maps with."""
        return new_hidden_map(self.n_hidden, n_features, self.activation,
                              derive_view_seed(self.seed, view))


@dataclass(frozen=True, eq=False)
class EdaProblem:
    """Hidden activations, targets, scores, and graph for one view; the
    labeled and unlabeled activations are views of ``h_target``.  Scores
    with a non-finite entry raise ParameterError naming its row."""

    h_source: np.ndarray      # n_source x L
    h_target: np.ndarray      # (n_labeled + n_unlabeled) x L, labeled first
    t_source: np.ndarray      # n_source x c
    t_labeled: np.ndarray     # n_labeled x c
    prelabels: np.ndarray     # n_unlabeled x c
    graph: LaplacianGraph

    def __post_init__(self):
        # checked here, so a problem copied with new scores
        # (``dataclasses.replace(problem, prelabels=...)``) is checked too
        object.__setattr__(self, "prelabels", check_prelabels(
            self.prelabels, self.h_unlabeled.shape[0], self.n_classes))

    @property
    def h_labeled(self) -> np.ndarray:
        return self.h_target[:self.t_labeled.shape[0]]

    @property
    def h_unlabeled(self) -> np.ndarray:
        return self.h_target[self.t_labeled.shape[0]:]

    @property
    def n_hidden(self) -> int:
        return self.h_source.shape[1]

    @property
    def n_classes(self) -> int:
        return self.t_source.shape[1]


def check_prelabels(prelabels, n_unlabeled: int, n_classes: int) -> np.ndarray:
    """``prelabels`` as a float64 score matrix with one row per unlabeled
    sample and one column per class; another shape raises ShapeError, a
    non-finite entry ParameterError naming its row."""
    phi = np.asarray(prelabels, dtype=np.float64)
    want = (n_unlabeled, n_classes)
    if phi.shape != want:
        raise ShapeError(f"prelabels must be {want} (unlabeled samples x classes), "
                         f"got {phi.shape}")
    check_finite("prelabels", phi)
    return phi


def build_problem(
    bundle: DomainBundle,
    prelabels,
    params: EdaParams,
    hidden_map: HiddenMap | None = None,
) -> tuple[EdaProblem, HiddenMap]:
    """Map a bundle into hidden space and assemble the solver operands.

    ``prelabels`` is a score matrix with one row per unlabeled sample
    and one column per class.  If no map is given, view 0's is drawn,
    ``params.view_map(bundle.target_dim)``; the bundle's splits share
    one feature dim, so that map serves both domains.
    """
    if hidden_map is None:
        hidden_map = params.view_map(bundle.target_dim)
    target = bundle.target_all()
    # the graph first, so its distance blocks never sit on top of the
    # activations
    graph = build_knn_graph(target, params.n_neighbors)
    # every array built here is read-only, since callers may share one
    # problem across fits
    h_target = _lock(map_features(hidden_map, target))
    problem = EdaProblem(
        h_source=_lock(map_features(hidden_map, bundle.source)),
        h_target=h_target,
        t_source=_lock(encode_labels(bundle.source.labels, bundle.n_classes)),
        t_labeled=_lock(encode_labels(bundle.target_labeled.labels, bundle.n_classes)),
        prelabels=prelabels,
        graph=graph,
    )
    return problem, hidden_map


# ---------------------------------------------------------------------------
# objective and closed-form block updates
# ---------------------------------------------------------------------------


def l21_norm(beta: np.ndarray) -> float:
    """Sum of row Euclidean norms."""
    return float(np.linalg.norm(beta, axis=1).sum())


def update_u(beta: np.ndarray, reweight_eps: float) -> np.ndarray:
    """Reweighting diagonal ``u_i = 1 / (2 (||beta_i|| + eps))``."""
    check_real("reweight_eps", reweight_eps, 0.0, strict=True)
    return 1.0 / (2.0 * (np.linalg.norm(beta, axis=1) + reweight_eps))


def _loss_terms(beta, theta, prob: EdaProblem):
    n_labeled = prob.h_labeled.shape[0]
    p = prob.h_target @ beta
    src = np.linalg.norm(prob.h_source @ beta - prob.t_source) ** 2
    tgt = np.linalg.norm(p[:n_labeled] - prob.t_labeled @ theta) ** 2
    drift = np.linalg.norm(theta - np.eye(theta.shape[0])) ** 2
    fid = np.linalg.norm(p[n_labeled:] - prob.prelabels) ** 2
    smooth = quadratic_energy(prob.graph, p)
    return src, tgt, drift, fid, smooth


def _weighted(penalty: float, terms, params: EdaParams, loss_scale: float,
              smooth_scale: float) -> float:
    """``penalty`` plus the weighted :func:`_loss_terms` ``terms``."""
    src, tgt, drift, fid, smooth = terms
    return (
        penalty
        + loss_scale * (
            params.c_source * src
            + params.c_target * tgt
            + params.drift_weight * drift
            + params.fidelity_weight * fid
        )
        + smooth_scale * params.manifold_weight * smooth
    )


def _objective(penalty: float, beta, theta, prob: EdaProblem, params: EdaParams,
               loss_scale: float, smooth_scale: float) -> float:
    """``penalty`` plus the weighted loss and smoothness terms."""
    return _weighted(penalty, _loss_terms(beta, theta, prob), params, loss_scale,
                     smooth_scale)


def eda_objective(
    beta: np.ndarray,
    theta: np.ndarray,
    prob: EdaProblem,
    params: EdaParams,
    loss_scale: float = 1.0,
    smooth_scale: float = 1.0,
) -> float:
    """The complete objective J (exact row-sparse norm, no surrogate)."""
    return _objective(l21_norm(beta), beta, theta, prob, params,
                      loss_scale, smooth_scale)


def surrogate_objective(
    beta: np.ndarray,
    u: np.ndarray,
    theta: np.ndarray,
    prob: EdaProblem,
    params: EdaParams,
    loss_scale: float = 1.0,
    smooth_scale: float = 1.0,
) -> float:
    """J with the row-sparse norm replaced by its quadratic majorizer
    ``tr(beta' diag(u) beta)`` for a fixed reweighting ``u``."""
    return _objective(float(np.sum(u[:, None] * beta * beta)), beta, theta, prob,
                      params, loss_scale, smooth_scale)


# the unscaled terms of the beta normal equations that neither the loss
# weights nor the pre-classifier scores change, by name
_CONSTANT_GRAMS = {
    "h_l_h": lambda prob: laplacian_gram(prob.graph, prob.h_target),
    "hs_hs": lambda prob: prob.h_source.T @ prob.h_source,
    "hu_hu": lambda prob: prob.h_unlabeled.T @ prob.h_unlabeled,
    "hs_ts": lambda prob: prob.h_source.T @ prob.t_source,
}


def _beta_blocks(prob: EdaProblem, params: EdaParams, grams=None):
    """Constant parts of the beta normal equations at unit view weight.

    Returns the loss Gram ``cs Hs'Hs + ct Ht'Ht + tau Hu'Hu``, the
    smoothness Gram ``lam H'LH`` and the loss right-hand side
    ``cs Hs'Ts + tau Hu'phi``; a solve only rescales and adds them.
    ``grams``, if given, is a dict kept for ``prob``'s view across fits:
    each ``_CONSTANT_GRAMS`` term is stored there, unscaled and
    read-only, on first use, and scaled into a new array on every call.
    Otherwise each term is built and scaled in place: beyond the
    activations it holds at most three L x L arrays, or the smoothness
    Gram and one panel of :func:`~edapt.graph.laplacian_gram`, never an
    n x L product.
    Either way the sums take the same order and give the same bits.
    """
    def term(name: str, weight: float) -> np.ndarray:
        if grams is not None:
            if name not in grams:
                grams[name] = _lock(_CONSTANT_GRAMS[name](prob))
            return weight * grams[name]
        gram = _CONSTANT_GRAMS[name](prob)
        gram *= weight
        return gram

    g_smooth = term("h_l_h", params.manifold_weight)
    g_loss = term("hs_hs", params.c_source)
    # rank at most m c, and cheap to rebuild: never cached
    labeled = prob.h_labeled.T @ prob.h_labeled
    labeled *= params.c_target
    g_loss += labeled
    del labeled
    g_loss += term("hu_hu", params.fidelity_weight)
    rhs_loss = term("hs_ts", params.c_source)
    rhs_loss += params.fidelity_weight * (prob.h_unlabeled.T @ prob.prelabels)
    return g_loss, g_smooth, rhs_loss


def _in_sample_space(prob: EdaProblem, params: EdaParams) -> bool:
    """Fewer stacked rows than hidden units, and every loss weight
    positive so that ``W`` below is invertible."""
    n = prob.h_source.shape[0] + prob.h_target.shape[0]
    return n < prob.n_hidden and min(
        params.c_source, params.c_target, params.fidelity_weight) > 0.0


def _solve_beta(blocks, u, theta, prob: EdaProblem, params: EdaParams,
                loss_scale: float, smooth_scale: float) -> np.ndarray:
    """One beta solve with one refinement pass: primal on the assembled
    ``blocks``, or in sample space when ``blocks`` is None (see
    :func:`_in_sample_space`).  ``blocks`` is what :func:`_beta_blocks`
    returns, or, for one view at unit weight, that with the smoothness
    Gram summed into the loss Gram and None in its place (its scalings
    by 1.0 change no bit)."""

    def residual(x):
        # -grad/2, in the gradient's own association, so the refinement
        # pass lands on a point whose analytic gradient is machine-small
        return -0.5 * beta_gradient(x, u, theta, prob, params,
                                    loss_scale, smooth_scale)

    if blocks is None:
        return _solve_beta_in_sample_space(u, theta, prob, params, loss_scale,
                                           smooth_scale, residual)
    g_loss, g_smooth, rhs_loss = blocks
    rhs = rhs_loss + params.c_target * (prob.h_labeled.T @ (prob.t_labeled @ theta))
    rhs *= loss_scale
    a = loss_scale * g_loss
    if g_smooth is not None:
        a += smooth_scale * g_smooth
    a.flat[::prob.n_hidden + 1] += u
    return solve_spd(a, rhs, jitter=1e-10, residual_fn=residual)


def _solve_beta_in_sample_space(u, theta, prob: EdaProblem, params: EdaParams,
                                loss_scale: float, smooth_scale: float, residual):
    """The beta solve through an n x n system, for n stacked rows < L.

    The normal matrix is ``A = D + Z' W Z`` with ``D = diag(u)``,
    ``Z = [Hs; H]`` and ``W = blockdiag(s cs I, W_t)``, where
    ``W_t = s diag(ct, tau) + s_r lam L``, and the right-hand side is
    ``Z' W v`` with ``v = [Ts; W_t^-1 s [ct Tt theta; tau phi]]``.  With
    ``S = W^-1 + Z D^-1 Z'``, ``solve_spd`` factors ``S``.  The first
    iterate comes from the push-through identity
    ``A^-1 Z' W = D^-1 Z' S^-1``: ``D^-1 Z' S^-1 v``, one pass over the
    activations.  The refinement pass maps the gradient's residual ``r``
    through the Woodbury identity,
    ``A^-1 r = D^-1 r - D^-1 Z' S^-1 Z D^-1 r``.  ``W_t^-1`` in ``S``
    comes from ``W_t``'s Cholesky factor (:func:`~edapt.linalg.cho_inverse`).
    """
    if loss_scale == 0.0:
        # a zero view weight leaves A = D and a zero right-hand side
        return np.zeros((prob.n_hidden, prob.n_classes))
    hs, ht = prob.h_source, prob.h_target
    ns, nl, nt = hs.shape[0], prob.h_labeled.shape[0], ht.shape[0]
    n = ns + nt
    d_inv = 1.0 / u
    # Z D^-1/2, hidden-unit-major like the activations so that scaling
    # them moves no data across; one symmetric product
    z = np.empty((n, prob.n_hidden), order="F")
    np.multiply(hs, np.sqrt(d_inv), out=z[:ns])
    np.multiply(ht, np.sqrt(d_inv), out=z[ns:])
    s = z @ z.T
    del z  # not held through the solve
    s.flat[:ns * (n + 1):n + 1] += 1.0 / (loss_scale * params.c_source)  # source block
    w_t = (smooth_scale * params.manifold_weight) * prob.graph.sparse_laplacian.toarray()
    w_t.flat[::nt + 1] += loss_scale * np.repeat(
        [params.c_target, params.fidelity_weight], [nl, nt - nl])
    v = np.empty((n, prob.n_classes))
    v[:ns] = prob.t_source
    with _blas_threads_for(nt):
        # solve_spd's finiteness checks cover this block (on s) and theta
        # and the prelabels (on v)
        t_factor = cho_factor(w_t, lower=True, check_finite=False)
        del w_t
        s[ns:, ns:] += cho_inverse(t_factor)
        v[ns:] = cho_solve(t_factor, loss_scale * np.vstack(
            [params.c_target * (prob.t_labeled @ theta),
             params.fidelity_weight * prob.prelabels]), check_finite=False)

    def back(w):  # D^-1 Z' w
        return d_inv[:, None] * (hs.T @ w[:ns] + ht.T @ w[ns:])

    def start(factor, rhs):
        return back(cho_solve(factor, rhs, check_finite=False))

    def correction(factor, r):
        y = d_inv[:, None] * r
        return y - back(cho_solve(factor, np.vstack([hs @ y, ht @ y]),
                                  check_finite=False))

    return solve_spd(s, v, jitter=1e-10, residual_fn=residual,
                     correction_fn=correction, start_fn=start)


def update_beta(
    u: np.ndarray,
    theta: np.ndarray,
    prob: EdaProblem,
    params: EdaParams,
    loss_scale: float = 1.0,
    smooth_scale: float = 1.0,
) -> np.ndarray:
    """Minimize the fixed-u surrogate over beta (one SPD solve).

    Solves ``(diag(u) + cs Hs'Hs + ct Ht'Ht + tau Hu'Hu + lam H'LH) beta
    = cs Hs'Ts + ct Ht'(Tt theta) + tau Hu'phi`` with the penalty weights
    scaled as documented on the module.  The system is L x L, or n x n
    in sample space when the view stacks fewer rows n than hidden units.
    """
    blocks = None if _in_sample_space(prob, params) else _beta_blocks(prob, params)
    return _solve_beta(blocks, u, theta, prob, params, loss_scale, smooth_scale)


def update_theta(beta: np.ndarray, prob: EdaProblem, params: EdaParams) -> np.ndarray:
    """Minimize J over the class-drift matrix (c x c SPD solve).

    ``theta = (ct Tt'Tt + g I)^{-1} (ct Tt'(Ht beta) + g I)``; any common
    positive scale on the two penalty weights cancels, which is why the
    multi-view solver can call this unmodified.
    """
    a = params.c_target * (prob.t_labeled.T @ prob.t_labeled)
    a.flat[::a.shape[0] + 1] += params.drift_weight
    rhs = params.c_target * (prob.t_labeled.T @ (prob.h_labeled @ beta))
    rhs.flat[::a.shape[0] + 1] += params.drift_weight
    return solve_spd(a, rhs)


def beta_gradient(
    beta: np.ndarray,
    u: np.ndarray,
    theta: np.ndarray,
    prob: EdaProblem,
    params: EdaParams,
    loss_scale: float = 1.0,
    smooth_scale: float = 1.0,
) -> np.ndarray:
    """Analytic gradient of the fixed-u surrogate objective in beta; the
    target stack is multiplied once each way, by ``P = H beta`` and by
    ``H' ([ct (P_l - Tt theta); tau (P_u - phi)] + lam L P)``."""
    n_labeled = prob.h_labeled.shape[0]
    p = prob.h_target @ beta
    r = smooth_scale * params.manifold_weight * (prob.graph.sparse_laplacian @ p)
    r[:n_labeled] += loss_scale * params.c_target * (
        p[:n_labeled] - prob.t_labeled @ theta)
    r[n_labeled:] += loss_scale * params.fidelity_weight * (
        p[n_labeled:] - prob.prelabels)
    g = u[:, None] * beta
    g += loss_scale * params.c_source * (
        prob.h_source.T @ (prob.h_source @ beta - prob.t_source)
    )
    g += prob.h_target.T @ r
    return 2.0 * g


def theta_gradient(
    theta: np.ndarray,
    beta: np.ndarray,
    prob: EdaProblem,
    params: EdaParams,
    loss_scale: float = 1.0,
) -> np.ndarray:
    """Analytic gradient of J in the class-drift matrix."""
    g = params.c_target * (
        prob.t_labeled.T @ (prob.t_labeled @ theta - prob.h_labeled @ beta)
    )
    g += params.drift_weight * (theta - np.eye(theta.shape[0]))
    return 2.0 * loss_scale * g


# ---------------------------------------------------------------------------
# view weights and the alternating loop
# ---------------------------------------------------------------------------

# traces at or below this fraction of the largest are treated as exact
# zeros in the weight update
TRACE_FLOOR = 1e-12


def view_trace(beta: np.ndarray, prob: EdaProblem) -> float:
    """Graph smoothness ``q_v = tr(beta' H' L H beta)`` of one view."""
    return quadratic_energy(prob.graph, prob.h_target @ beta)


def _view_scales(a, params: EdaParams) -> tuple[float, float]:
    """The one placement of view weight ``a``: ``(loss_scale, smooth_scale)
    = (a, a**r)``, for every solve and objective."""
    return float(a), float(a) ** params.view_exponent


def mv_objective(
    betas: list[np.ndarray],
    thetas: list[np.ndarray],
    alpha: np.ndarray,
    problems: list[EdaProblem],
    params: EdaParams,
) -> float:
    """The joint objective over all views (exact row-sparse norms)."""
    total = 0.0
    for beta, theta, a, prob in zip(betas, thetas, alpha, problems, strict=True):
        total += eda_objective(beta, theta, prob, params, *_view_scales(a, params))
    return total


def _joint_objective(betas, terms, alpha, params: EdaParams) -> float:
    """:func:`mv_objective` from each view's :func:`_loss_terms`, with
    the same operations in the same order, so the same bits."""
    total = 0.0
    for beta, view_terms, a in zip(betas, terms, alpha, strict=True):
        total += _weighted(l21_norm(beta), view_terms, params, *_view_scales(a, params))
    return total


def update_alpha(traces, view_exponent: float) -> np.ndarray:
    """Closed-form simplex weights from per-view smoothness values.

    ``alpha_v ∝ (1 / q_v)**(1 / (r - 1))``, normalized to sum to one.
    Views whose trace is at or below ``TRACE_FLOOR`` times the largest
    (numerically zero; the traces are non-negative up to roundoff) take
    over the entire mass, split evenly among themselves.  The floor is
    relative, so scaling every loss weight, and with it every trace,
    leaves the weights as they were.  If every view is degenerate (all
    traces zero or below) the weights fall back to uniform with a
    warning.  A non-finite trace raises ParameterError naming its view.
    """
    q = np.asarray(traces, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] < 1:
        raise ShapeError("traces must be a non-empty vector")
    check_real("view_exponent", view_exponent, 1.0, strict=True)
    check_finite("traces", q, "view")
    degenerate = q <= TRACE_FLOOR * q.max()
    if degenerate.all():
        warnings.warn(
            "all view smoothness traces are numerically zero; "
            "falling back to uniform view weights",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.full(q.shape[0], 1.0 / q.shape[0])
    alpha = np.zeros(q.shape[0])
    if degenerate.any():
        alpha[degenerate] = 1.0 / degenerate.sum()
        return alpha
    w = (1.0 / q) ** (1.0 / (view_exponent - 1.0))
    return w / w.sum()


def _alternate(problems: list[EdaProblem], params: EdaParams, grams=None):
    """The alternating loop over one or more views.

    Starts from ``u = 1``, ``theta = I`` and uniform view weights, then
    cycles beta -> theta -> alpha -> u, recording the joint objective
    after each round.  One view keeps ``alpha = [1]`` and skips the
    weight step, so its loop is the single-view solver exactly.
    ``grams``, if given, holds one dict per view that
    :func:`_beta_blocks` keeps that view's weight-free Grams in across
    fits; a sample-space view's stays empty.
    Each round evaluates each view's loss terms once: with several views
    their smoothness is the view's :func:`view_trace` for the weight
    step, and the recorded objective, :func:`mv_objective`, is summed
    from them.
    Returns ``(betas, thetas, alpha_history, history)``.
    """
    n_views = len(problems)
    # per-view constant blocks, assembled once; each round only rescales
    # them by the current view weight.  Sample-space views have none.
    blocks = [None if _in_sample_space(prob, params) else _beta_blocks(prob, params, g)
              for prob, g in zip(problems, grams or [None] * n_views, strict=True)]
    if n_views == 1 and blocks[0] is not None:
        # alpha stays [1], so every round adds the two Grams unscaled:
        # add them once and drop the smoothness Gram
        g_loss, g_smooth, rhs_loss = blocks[0]
        g_loss += g_smooth
        blocks = [(g_loss, None, rhs_loss)]
        del g_smooth
    us = [np.ones(prob.n_hidden) for prob in problems]
    thetas = [np.eye(prob.n_classes) for prob in problems]
    alpha = np.full(n_views, 1.0 / n_views)
    alphas: list[np.ndarray] = []
    history: list[float] = []
    for _ in range(params.max_iter):
        betas = [
            _solve_beta(blk, u, theta, prob, params, *_view_scales(a, params))
            for blk, u, theta, prob, a in zip(blocks, us, thetas, problems, alpha)
        ]
        thetas = [update_theta(b, prob, params) for b, prob in zip(betas, problems)]
        if n_views > 1:
            terms = [_loss_terms(b, theta, prob)
                     for b, theta, prob in zip(betas, thetas, problems)]
            alpha = update_alpha([smooth for *_, smooth in terms], params.view_exponent)
            value = _joint_objective(betas, terms, alpha, params)
        else:
            value = mv_objective(betas, thetas, alpha, problems, params)
        us = [update_u(b, params.reweight_eps) for b in betas]
        alphas.append(alpha.copy())
        history.append(value)
        if len(history) > 1 and abs(history[-2] - value) <= REL_STOP * (
            1.0 + abs(history[-2])
        ):
            break
    return betas, thetas, alphas, history


# ---------------------------------------------------------------------------
# model fitting and prediction
# ---------------------------------------------------------------------------


def _view0(field: str) -> property:
    """A one-view accessor: view 0's entry of the per-view ``field``."""
    def get(model):
        if model.n_views != 1:
            raise ShapeError(f"a {model.n_views}-view model has one {field[:-1]} "
                             f"per view; read {field!r}")
        return (getattr(model, field) or [None])[0]
    return property(get)


@dataclass(frozen=True, eq=False)
class EdaModel:
    """A fitted adaptation model of one or more views.  The per-view lists
    hold one entry per view, and ``standardizers`` the rescaling each
    view's features were fitted under (None: none), which the predict
    functions apply to raw features.  A one-view model's view weights
    are all ones; its ``hidden_map``, ``beta``, ``theta``, ``u`` and
    ``standardizer`` read view 0, and raise ShapeError on more views.
    A non-finite weight, drift or history entry raises ParameterError
    naming the field (and the view), so no model holds a NaN."""

    hidden_maps: list[HiddenMap]
    betas: list[np.ndarray]
    thetas: list[np.ndarray]
    alpha_history: np.ndarray
    objective_history: np.ndarray
    params: EdaParams
    standardizers: list[Standardizer] | None = None

    def __post_init__(self):
        v = len(self.hidden_maps)
        if v == 0:
            raise ShapeError("a model needs at least one view")
        # every view is standardized, or none is
        sts = [None] * v if self.standardizers is None else self.standardizers
        if not (len(self.betas) == len(self.thetas) == len(sts) == v):
            raise ShapeError("per-view field lists disagree on view count")
        # read-only float64 copies, so no caller can change the predictions
        for name in ("betas", "thetas"):
            object.__setattr__(self, name, [_lock(np.array(a, dtype=np.float64))
                                            for a in getattr(self, name)])
        c = None
        for i, view in enumerate(zip(self.hidden_maps, self.betas, self.thetas, sts)):
            try:
                if view[-1] is None and self.standardizers is not None:
                    raise ShapeError("missing field 'standardizer'")
                c = _check_view(*view, c)
            except (ShapeError, ParameterError) as err:
                if v == 1:
                    raise
                raise type(err)(f"view {i}: {err}") from None
        h = _lock(np.array(self.objective_history, dtype=np.float64))
        # every fit records at least one round, since max_iter >= 1
        if h.ndim != 1 or h.size == 0:
            raise ShapeError("field 'objective_history' must hold at least one round, "
                             f"got shape {h.shape}")
        object.__setattr__(self, "objective_history", h)
        ah = _lock(np.array(self.alpha_history, dtype=np.float64))
        if ah.shape != (h.shape[0], v):
            raise ShapeError(
                f"alpha_history must have shape {(h.shape[0], v)}, got {ah.shape}"
            )
        for name, a in (("objective_history", h), ("alpha_history", ah)):
            check_finite(name, a, "round")
        if v == 1 and not (ah == 1.0).all():
            raise ShapeError("a one-view model's alpha_history must be all ones")
        object.__setattr__(self, "alpha_history", ah)

    hidden_map = _view0("hidden_maps")
    beta = _view0("betas")
    theta = _view0("thetas")
    standardizer = _view0("standardizers")

    @property
    def n_views(self) -> int:
        return len(self.hidden_maps)

    @property
    def alpha(self) -> np.ndarray:
        """The view weights the fit ended on: the last round's."""
        return self.alpha_history[-1]

    @property
    def us(self) -> list[np.ndarray]:
        """Each view's final row reweighting, ``update_u(beta_v, eps)``."""
        return [update_u(beta, self.params.reweight_eps) for beta in self.betas]

    @property
    def u(self) -> np.ndarray:
        """A one-view model's final row reweighting."""
        return update_u(self.beta, self.params.reweight_eps)


def _check_view(hidden_map: HiddenMap, beta, theta, standardizer,
                n_classes=None) -> int:
    """Check one fitted view's arrays against its L-unit map and each
    other: ``beta`` (L, c) and ``theta`` (c, c), with ``c`` given or read
    from ``beta``, and a standardizer, if any, as wide as the map's
    input, and both arrays finite.  Errors name the field; returns ``c``."""
    n, c = hidden_map.n_hidden, n_classes
    if c is None:
        c = np.shape(beta)[1] if np.ndim(beta) == 2 else "c"
    for name, a, shape in (("beta", beta, (n, c)), ("theta", theta, (c, c))):
        if np.shape(a) != shape:
            raise ShapeError(f"field {name!r} must have shape {shape}, "
                             f"got {np.shape(a)}")
        check_finite(name, a)
    if standardizer is not None and standardizer.mean.size != hidden_map.n_features:
        raise ShapeError(f"field 'standardizer' has {standardizer.mean.size} "
                         f"features, the hidden map takes {hidden_map.n_features}")
    return c


def fit_eda(
    bundle: DomainBundle,
    prelabels,
    params: EdaParams = EdaParams(),
    hidden_map: HiddenMap | None = None,
) -> EdaModel:
    """Run the alternating closed-form solver on a domain bundle.

    Starts from ``u = 1`` (unit reweighting) and ``theta = I``, then
    cycles beta -> theta -> u for ``params.max_iter`` rounds, recording
    the complete objective after each round and stopping early once it
    moves by less than ``1e-10`` relatively.  The recorded sequence is
    non-increasing up to the reweighting floor.

    ``prelabels`` is a score matrix for the unlabeled split.  A given
    ``hidden_map`` overrides ``params.n_hidden``, ``.activation`` and
    ``.seed``; the model keeps that map, and ``params`` as passed.  The
    fit runs the body of :func:`~edapt.multiview.fit_mveda` on
    ``[bundle]``, so the model is the one-view record that returns.  A
    caller that rescaled ``bundle`` attaches the rescaling with
    ``dataclasses.replace(model, standardizers=[...])``.
    """
    return _fit_views([bundle], [prelabels], params,
                      None if hidden_map is None else [hidden_map])


def _fit_views(bundles: list[DomainBundle], prelabels: list, params: EdaParams,
               hidden_maps: list[HiddenMap] | None) -> EdaModel:
    """The body of both fits: each view's problem, on its given map or on
    ``params.view_map(dim, v)``, then the alternating loop."""
    if hidden_maps is None:
        hidden_maps = [params.view_map(b.target_dim, v) for v, b in enumerate(bundles)]
    problems = [build_problem(b, phi, params, hm)[0]
                for b, phi, hm in zip(bundles, prelabels, hidden_maps)]
    betas, thetas, alphas, history = _alternate(problems, params)
    return EdaModel(list(hidden_maps), betas, thetas, np.asarray(alphas),
                    np.asarray(history), params)


def _fuse(alpha, scores: list[np.ndarray]) -> np.ndarray:
    """The one fusion of per-view scores, ``sum_v alpha_v s_v``."""
    return sum(a * s for a, s in zip(alpha, scores))


def _predict_views(model: EdaModel, datasets: list[Dataset]):
    """``(fused, per_view)`` scores: each view's ``map_v(X_v) @ beta_v``,
    ``X_v`` standardized first if the model has standardizers."""
    if model.standardizers is not None:
        datasets = [st.apply(ds) for st, ds in zip(model.standardizers, datasets)]
    per_view = [map_features(hm, ds, beta)
                for hm, ds, beta in zip(model.hidden_maps, datasets, model.betas)]
    return _fuse(model.alpha, per_view), per_view


def predict_eda(
    model: EdaModel, data: Dataset, detransform: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Score new samples with a one-view model; returns ``(labels, scores)``.

    Runs :func:`~edapt.multiview.predict_mveda`'s body on ``[data]``:
    scores are ``map(X) @ beta``, ``X`` rescaled first by the model's
    standardizer if it has one.  With ``detransform=True`` the learned
    class drift is then undone (``scores @ theta^{-1}``, falling back to
    the pseudo-inverse with a ``UserWarning`` when theta is near
    singular); default is off, since theta stays near the identity.
    """
    theta = model.theta  # the one-view accessor refuses more views
    scores, _ = _predict_views(model, [data])
    if detransform:
        cond = np.linalg.cond(theta)
        if cond > 1e12:
            warnings.warn(
                f"theta is near singular (condition number {cond:.3g}); "
                "undoing the class drift with its pseudo-inverse",
                UserWarning,
                stacklevel=2,
            )
            scores = scores @ np.linalg.pinv(theta)
        else:
            scores = np.linalg.solve(theta.T, scores.T).T
    return decode_labels(scores), scores
