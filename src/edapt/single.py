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

The alternating loop here also runs the multi-view solver
(:mod:`edapt.multiview`): it takes a list of per-view problems, scales
each view's loss terms by ``alpha_v`` and its smoothness term by
``alpha_v**r``, and adds the view-weight step when there are two or
more views.  A single-view fit is the one-view case with ``alpha = [1]``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DomainBundle, decode_labels, encode_labels
from .errors import ParameterError, ShapeError
from .features import ACTIVATIONS, HiddenMap, map_features, new_hidden_map
from .graph import LaplacianGraph, build_knn_graph, quadratic_energy
from .linalg import solve_spd

__all__ = [
    "EdaModel",
    "EdaParams",
    "EdaProblem",
    "beta_gradient",
    "build_problem",
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
        for name in ("c_source", "c_target", "fidelity_weight", "manifold_weight"):
            if getattr(self, name) < 0.0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.drift_weight <= 0.0:
            raise ParameterError(f"drift_weight must be positive, got {self.drift_weight}")
        if self.reweight_eps <= 0.0:
            raise ParameterError(f"reweight_eps must be positive, got {self.reweight_eps}")
        if self.n_hidden < 1:
            raise ParameterError(f"n_hidden must be >= 1, got {self.n_hidden}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.n_neighbors < 1:
            raise ParameterError(f"n_neighbors must be >= 1, got {self.n_neighbors}")
        if self.view_exponent <= 1.0:
            raise ParameterError(f"view_exponent must exceed 1, got {self.view_exponent}")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(
                f"unknown activation {self.activation!r}; choose from {ACTIVATIONS}"
            )


@dataclass(frozen=True, eq=False)
class EdaProblem:
    """Hidden activations, targets, scores, and graph for one view."""

    h_source: np.ndarray      # n_source x L
    h_labeled: np.ndarray     # n_labeled x L
    h_unlabeled: np.ndarray   # n_unlabeled x L
    h_target: np.ndarray      # (n_labeled + n_unlabeled) x L, labeled first
    t_source: np.ndarray      # n_source x c
    t_labeled: np.ndarray     # n_labeled x c
    prelabels: np.ndarray     # n_unlabeled x c
    graph: LaplacianGraph

    @property
    def n_hidden(self) -> int:
        return self.h_source.shape[1]

    @property
    def n_classes(self) -> int:
        return self.t_source.shape[1]


def build_problem(
    bundle: DomainBundle,
    prelabels,
    params: EdaParams,
    hidden_map: HiddenMap | None = None,
) -> tuple[EdaProblem, HiddenMap]:
    """Map a bundle into hidden space and assemble the solver operands.

    ``prelabels`` may be a score matrix (one row per unlabeled sample) or
    a callable ``bundle -> scores``.  If no map is given, one is drawn
    from ``params``.  Source and target feature dims must agree, since a
    single hidden map serves both domains.
    """
    if bundle.source.dim != bundle.target_dim:
        raise ShapeError(
            f"single-view adaptation needs equal feature dims, got source "
            f"{bundle.source.dim} vs target {bundle.target_dim}"
        )
    if hidden_map is None:
        hidden_map = new_hidden_map(
            params.n_hidden, bundle.target_dim, params.activation, params.seed
        )
    if callable(prelabels):
        prelabels = prelabels(bundle)
    prelabels = np.asarray(prelabels, dtype=np.float64)
    if prelabels.ndim != 2 or prelabels.shape != (bundle.n_unlabeled, bundle.n_classes):
        raise ShapeError(
            f"prelabels must be {(bundle.n_unlabeled, bundle.n_classes)}, "
            f"got {prelabels.shape}"
        )
    n_labeled = bundle.target_labeled.n
    # map the target stack once and slice, so the graph energy and the
    # fitting terms see bitwise-identical activations
    h_target = map_features(hidden_map, bundle.target_all())
    problem = EdaProblem(
        h_source=map_features(hidden_map, bundle.source),
        h_labeled=h_target[:n_labeled],
        h_unlabeled=h_target[n_labeled:],
        h_target=h_target,
        t_source=encode_labels(bundle.source.labels, bundle.n_classes),
        t_labeled=encode_labels(bundle.target_labeled.labels, bundle.n_classes),
        prelabels=prelabels,
        graph=build_knn_graph(bundle.target_all(), params.n_neighbors),
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
    if reweight_eps <= 0.0:
        raise ParameterError(f"reweight_eps must be positive, got {reweight_eps}")
    return 1.0 / (2.0 * (np.linalg.norm(beta, axis=1) + reweight_eps))


def _loss_terms(beta, theta, prob: EdaProblem):
    src = np.linalg.norm(prob.h_source @ beta - prob.t_source) ** 2
    tgt = np.linalg.norm(prob.h_labeled @ beta - prob.t_labeled @ theta) ** 2
    drift = np.linalg.norm(theta - np.eye(theta.shape[0])) ** 2
    fid = np.linalg.norm(prob.h_unlabeled @ beta - prob.prelabels) ** 2
    smooth = quadratic_energy(prob.graph, prob.h_target @ beta)
    return src, tgt, drift, fid, smooth


def eda_objective(
    beta: np.ndarray,
    theta: np.ndarray,
    prob: EdaProblem,
    params: EdaParams,
    loss_scale: float = 1.0,
    smooth_scale: float = 1.0,
) -> float:
    """The complete objective J (exact row-sparse norm, no surrogate)."""
    src, tgt, drift, fid, smooth = _loss_terms(beta, theta, prob)
    return (
        l21_norm(beta)
        + loss_scale * (
            params.c_source * src
            + params.c_target * tgt
            + params.drift_weight * drift
            + params.fidelity_weight * fid
        )
        + smooth_scale * params.manifold_weight * smooth
    )


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
    src, tgt, drift, fid, smooth = _loss_terms(beta, theta, prob)
    return (
        float(np.sum(u[:, None] * beta * beta))
        + loss_scale * (
            params.c_source * src
            + params.c_target * tgt
            + params.drift_weight * drift
            + params.fidelity_weight * fid
        )
        + smooth_scale * params.manifold_weight * smooth
    )


def _beta_blocks(prob: EdaProblem, params: EdaParams):
    """Constant parts of the beta normal equations at unit view weight.

    Returns the loss Gram ``cs Hs'Hs + ct Ht'Ht + tau Hu'Hu``, the
    smoothness Gram ``lam H'LH`` and the loss right-hand side
    ``cs Hs'Ts + tau Hu'phi``; a solve only rescales and adds them.
    """
    g_loss = params.c_source * (prob.h_source.T @ prob.h_source)
    g_loss += params.c_target * (prob.h_labeled.T @ prob.h_labeled)
    g_loss += params.fidelity_weight * (prob.h_unlabeled.T @ prob.h_unlabeled)
    g_smooth = params.manifold_weight * (
        prob.h_target.T @ (prob.graph.sparse_laplacian @ prob.h_target)
    )
    rhs_loss = params.c_source * (prob.h_source.T @ prob.t_source)
    rhs_loss += params.fidelity_weight * (prob.h_unlabeled.T @ prob.prelabels)
    return g_loss, g_smooth, rhs_loss


def _solve_beta(blocks, u, theta, prob: EdaProblem, params: EdaParams,
                loss_scale: float, smooth_scale: float) -> np.ndarray:
    g_loss, g_smooth, rhs_loss = blocks
    a = loss_scale * g_loss
    a += smooth_scale * g_smooth
    a[np.diag_indices_from(a)] += u
    rhs = loss_scale * (
        rhs_loss + params.c_target * (prob.h_labeled.T @ (prob.t_labeled @ theta))
    )

    def residual(x):
        # -grad/2, in the gradient's own association, so refinement
        # lands on a point whose analytic gradient is machine-small
        return -0.5 * beta_gradient(x, u, theta, prob, params,
                                    loss_scale, smooth_scale)

    return solve_spd(a, rhs, jitter=1e-10, residual_fn=residual)


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
    scaled as documented on the module.
    """
    return _solve_beta(_beta_blocks(prob, params), u, theta, prob, params,
                       loss_scale, smooth_scale)


def update_theta(beta: np.ndarray, prob: EdaProblem, params: EdaParams) -> np.ndarray:
    """Minimize J over the class-drift matrix (c x c SPD solve).

    ``theta = (ct Tt'Tt + g I)^{-1} (ct Tt'(Ht beta) + g I)``; any common
    positive scale on the two penalty weights cancels, which is why the
    multi-view solver can call this unmodified.
    """
    a = params.c_target * (prob.t_labeled.T @ prob.t_labeled)
    a[np.diag_indices_from(a)] += params.drift_weight
    rhs = params.c_target * (prob.t_labeled.T @ (prob.h_labeled @ beta))
    rhs[np.diag_indices_from(rhs)] += params.drift_weight
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
    """Analytic gradient of the fixed-u surrogate objective in beta."""
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

# traces at or below this are treated as exact zeros in the weight update
TRACE_FLOOR = 1e-12


def view_trace(beta: np.ndarray, prob: EdaProblem) -> float:
    """Graph smoothness ``q_v = tr(beta' H' L H beta)`` of one view."""
    return quadratic_energy(prob.graph, prob.h_target @ beta)


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
        total += eda_objective(
            beta, theta, prob, params,
            loss_scale=float(a),
            smooth_scale=float(a) ** params.view_exponent,
        )
    return total


def update_alpha(
    traces, view_exponent: float, floor: float = TRACE_FLOOR
) -> np.ndarray:
    """Closed-form simplex weights from per-view smoothness values.

    ``alpha_v ∝ (1 / q_v)**(1 / (r - 1))``, normalized to sum to one.
    Views whose trace is at or below ``floor`` (numerically zero; the
    traces are non-negative up to roundoff) take over the entire mass,
    split evenly among themselves.  If every view is degenerate the
    weights fall back to uniform with a warning.
    """
    q = np.asarray(traces, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] < 1:
        raise ShapeError("traces must be a non-empty vector")
    if view_exponent <= 1.0:
        raise ParameterError(f"view_exponent must exceed 1, got {view_exponent}")
    degenerate = q <= floor
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


def _alternate(problems: list[EdaProblem], params: EdaParams):
    """The alternating loop over one or more views.

    Starts from ``u = 1``, ``theta = I`` and uniform view weights, then
    cycles beta -> theta -> alpha -> u, recording the joint objective
    after each round.  One view keeps ``alpha = [1]`` and skips the
    weight step, so its loop is the single-view solver exactly.
    Returns ``(betas, thetas, us, alpha, alpha_history, history)``.
    """
    n_views = len(problems)
    r = params.view_exponent
    # per-view constant blocks, assembled once; each round only rescales
    # them by the current view weight
    blocks = [_beta_blocks(prob, params) for prob in problems]
    us = [np.ones(prob.n_hidden) for prob in problems]
    thetas = [np.eye(prob.n_classes) for prob in problems]
    alpha = np.full(n_views, 1.0 / n_views)
    alphas: list[np.ndarray] = []
    history: list[float] = []
    for _ in range(params.max_iter):
        betas = [
            _solve_beta(blk, u, theta, prob, params, float(a), float(a) ** r)
            for blk, u, theta, prob, a in zip(blocks, us, thetas, problems, alpha)
        ]
        thetas = [update_theta(b, prob, params) for b, prob in zip(betas, problems)]
        if n_views > 1:
            alpha = update_alpha(
                [view_trace(b, prob) for b, prob in zip(betas, problems)], r
            )
        us = [update_u(b, params.reweight_eps) for b in betas]
        alphas.append(alpha.copy())
        value = mv_objective(betas, thetas, alpha, problems, params)
        history.append(value)
        if len(history) > 1 and abs(history[-2] - value) <= REL_STOP * (
            1.0 + abs(history[-2])
        ):
            break
    return betas, thetas, us, alpha, alphas, history


# ---------------------------------------------------------------------------
# model fitting and prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EdaModel:
    """A fitted single-view adaptation model."""

    hidden_map: HiddenMap
    beta: np.ndarray
    theta: np.ndarray
    u: np.ndarray
    objective_history: np.ndarray
    params: EdaParams

    def __post_init__(self):
        for name in ("beta", "theta", "u", "objective_history"):
            a = np.array(getattr(self, name), dtype=np.float64)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if self.beta.shape[0] != self.hidden_map.n_hidden:
            raise ShapeError(
                f"beta has {self.beta.shape[0]} rows for a "
                f"{self.hidden_map.n_hidden}-unit map"
            )
        c = self.beta.shape[1]
        if self.theta.shape != (c, c):
            raise ShapeError(f"theta must be ({c}, {c}), got {self.theta.shape}")


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

    ``prelabels`` is a score matrix for the unlabeled split or a
    callable producing one from the bundle.
    """
    prob, hidden_map = build_problem(bundle, prelabels, params, hidden_map)
    (beta,), (theta,), (u,), _, _, history = _alternate([prob], params)
    return EdaModel(hidden_map, beta, theta, u, np.asarray(history), params)


def predict_eda(
    model: EdaModel, data: Dataset, detransform: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Score new samples; returns ``(labels, scores)``.

    Scores are ``map(X) @ beta``.  With ``detransform=True`` the learned
    class drift is undone (``scores @ theta^{-1}``, falling back to the
    pseudo-inverse when theta is near singular); default is off, since
    the drift matrix stays near the identity in practice.
    """
    scores = map_features(model.hidden_map, data) @ model.beta
    if detransform:
        theta = model.theta
        if np.linalg.cond(theta) > 1e12:
            scores = scores @ np.linalg.pinv(theta)
        else:
            scores = np.linalg.solve(theta.T, scores.T).T
    return decode_labels(scores), scores
