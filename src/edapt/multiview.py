"""Multi-view extreme domain adaptation with learned view weights.

Each view ``v`` owns its feature space, hidden map, graph, output
weights ``beta_v`` and drift matrix ``theta_v``; the views are tied
together by a weight vector ``alpha`` on the probability simplex:

    J = sum_v ||beta_v||_{2,1}
      + sum_v alpha_v * (c_source * src_v + c_target * tgt_v
                         + drift_w * drift_v + fidelity_w * fid_v)
      + manifold_w * sum_v alpha_v**r * tr(beta_v' Hv' Lv Hv beta_v)

The exponent ``r > 1`` applies to the graph-smoothness term only; under
that placement the weight update has the closed form
``alpha_v ∝ (1 / q_v)**(1/(r-1))`` with ``q_v`` the per-view smoothness,
which is exactly how it is implemented here.  That step minimizes the
smoothness term alone, not all of ``J``, so with several views descent
is not guaranteed: the objective falls at the stock sizes (acceptance
criterion 2 checks it there), but it can rise on small, unevenly
weighted problems (L=20, c_source=100, c_target=1;
``test_multiview.py::test_known_defect_is_flagged`` pins one).

One alternating loop, ``single._alternate``, serves one or many views:
it scales each view's normal-equation blocks by ``alpha_v`` and
``alpha_v**r`` and skips the weight step when there is only one view,
so a one-view fit matches :func:`~edapt.single.fit_eda` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, DomainBundle, _lock, decode_labels
from .errors import ParameterError, ShapeError
from .features import (HiddenMap, Standardizer, derive_view_seed, map_features,
                       new_hidden_map)
from .single import (
    EdaParams,
    EdaProblem,
    _alternate,
    _check_history,
    _check_view,
    build_problem,
    mv_objective,
    update_alpha,
    update_beta,
    update_theta,
    update_u,
    view_trace,
)
from .single import beta_gradient  # noqa: F401  (perfbench/test_harness.py reads it here)

__all__ = [
    "MvEdaModel",
    "fit_mveda",
    "mv_objective",
    "predict_mveda",
    "update_alpha",
    "update_beta_view",
    "update_theta_view",
    "view_trace",
]

def update_beta_view(
    u: np.ndarray,
    theta: np.ndarray,
    prob: EdaProblem,
    view_weight: float,
    params: EdaParams,
) -> np.ndarray:
    """Per-view beta update: the single-view solve with loss terms scaled
    by ``alpha_v`` and the smoothness term by ``alpha_v**r``."""
    return update_beta(
        u, theta, prob, params,
        loss_scale=view_weight,
        smooth_scale=view_weight**params.view_exponent,
    )


def update_theta_view(
    beta: np.ndarray,
    prob: EdaProblem,
    params: EdaParams,
    view_weight: float | None = None,
) -> np.ndarray:
    """Per-view drift update.  The view weight multiplies both the fit and
    the identity-pull term, so it cancels; the argument is accepted only
    to make that explicit at call sites."""
    del view_weight
    return update_theta(beta, prob, params)


@dataclass(frozen=True, eq=False)
class MvEdaModel:
    """A fitted multi-view adaptation model; ``standardizers`` holds the
    rescaling of each view's features (None: none), which
    :func:`predict_mveda` applies to raw features."""

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
            raise ShapeError("a multi-view model needs at least one view")
        # every view is standardized, or none is
        sts = [None] * v if self.standardizers is None else self.standardizers
        if not (len(self.betas) == len(self.thetas) == len(sts) == v):
            raise ShapeError("per-view field lists disagree on view count")
        # read-only float64 copies, as EdaModel keeps its own
        for name in ("betas", "thetas"):
            object.__setattr__(self, name, [_lock(np.array(a, dtype=np.float64))
                                            for a in getattr(self, name)])
        c = None
        for i, view in enumerate(zip(self.hidden_maps, self.betas, self.thetas, sts)):
            try:
                if view[-1] is None and self.standardizers is not None:
                    raise ShapeError("missing field 'standardizer'")
                c = _check_view(*view, c)
            except ShapeError as err:
                raise ShapeError(f"view {i}: {err}") from None
        h = _lock(np.array(self.objective_history, dtype=np.float64))
        _check_history(h)
        object.__setattr__(self, "objective_history", h)
        ah = _lock(np.array(self.alpha_history, dtype=np.float64))
        if ah.shape != (h.shape[0], v):
            raise ShapeError(
                f"alpha_history must have shape {(h.shape[0], v)}, got {ah.shape}"
            )
        object.__setattr__(self, "alpha_history", ah)

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


def _check_aligned(bundles: list[DomainBundle]) -> None:
    first = bundles[0]
    for i, b in enumerate(bundles[1:], start=1):
        if b.n_classes != first.n_classes:
            raise ParameterError(
                f"view {i} has {b.n_classes} classes, view 0 has {first.n_classes}"
            )
        same_counts = (
            b.source.n == first.source.n
            and b.target_labeled.n == first.target_labeled.n
            and b.n_unlabeled == first.n_unlabeled
        )
        if not same_counts:
            raise ShapeError(f"view {i} sample counts differ from view 0")
        if not (
            np.array_equal(b.source.labels, first.source.labels)
            and np.array_equal(b.target_labeled.labels, first.target_labeled.labels)
        ):
            raise ParameterError(
                f"view {i} labels differ from view 0; views must describe "
                f"the same samples"
            )


def fit_mveda(
    bundles: list[DomainBundle],
    prelabels,
    params: EdaParams = EdaParams(),
    hidden_maps: list[HiddenMap] | None = None,
) -> MvEdaModel:
    """Run the alternating solver across views.

    Parameters
    ----------
    bundles : list of DomainBundle
        One bundle per view, describing the same samples in different
        feature spaces (labels and counts must agree across views).
    prelabels
        Per-view list of score matrices, or a single one shared by every
        view.
    params : EdaParams
        View ``v``'s hidden map is drawn from
        ``derive_view_seed(params.seed, v)``; pass ``hidden_maps`` to
        override.
    hidden_maps : list of HiddenMap, optional
        Override ``params.n_hidden``, ``.activation`` and ``.seed``; the
        model keeps these maps, and ``params`` as passed.

    Notes
    -----
    View 0's default map is the one :func:`~edapt.single.fit_eda` draws
    (``derive_view_seed(seed, 0)`` is ``seed``).  With a single view the
    loop also skips the weight step, so the fit equals ``fit_eda`` bit
    for bit.  The weight vector starts
    uniform and every iterate stays on the simplex.  A caller that
    rescaled the bundles attaches the rescalings with
    ``dataclasses.replace(model, standardizers=[...])``.
    """
    if not bundles:
        raise ParameterError("need at least one view")
    n_views = len(bundles)
    if not isinstance(prelabels, (list, tuple)):
        prelabels = [prelabels] * n_views
    if len(prelabels) != n_views:
        raise ShapeError(f"{len(prelabels)} prelabel blocks for {n_views} views")
    if hidden_maps is not None and len(hidden_maps) != n_views:
        raise ShapeError(f"{len(hidden_maps)} hidden maps for {n_views} views")

    if hidden_maps is None:
        hidden_maps = [
            new_hidden_map(params.n_hidden, bundle.target_dim, params.activation,
                           derive_view_seed(params.seed, v))
            for v, bundle in enumerate(bundles)
        ]
    _check_aligned(bundles)
    problems, maps = zip(*(build_problem(b, phi, params, hm)
                           for b, phi, hm in zip(bundles, prelabels, hidden_maps)))
    betas, thetas, alphas, history = _alternate(problems, params)
    return MvEdaModel(list(maps), betas, thetas, np.asarray(alphas),
                      np.asarray(history), params)


def predict_mveda(
    model: MvEdaModel, datasets: list[Dataset]
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Score new samples given one dataset per view.

    Returns ``(labels, fused_scores, per_view_scores)`` where the fused
    scores are the weight-averaged per-view scores
    ``sum_v alpha_v * map_v(X_v) @ beta_v``, each ``X_v`` rescaled first
    by its view's standardizer if the model has them.
    """
    if len(datasets) != model.n_views:
        raise ShapeError(f"{len(datasets)} datasets for {model.n_views} views")
    ns = {ds.n for ds in datasets}
    if len(ns) != 1:
        raise ShapeError(f"views disagree on sample count: {sorted(ns)}")
    if model.standardizers is not None:
        datasets = [st.apply(ds) for st, ds in zip(model.standardizers, datasets)]
    per_view = [
        map_features(hm, ds, beta)
        for hm, ds, beta in zip(model.hidden_maps, datasets, model.betas)
    ]
    fused = sum(a * s for a, s in zip(model.alpha, per_view))
    return decode_labels(fused), fused, per_view
