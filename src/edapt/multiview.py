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

One fit body in :mod:`edapt.single` serves one or many views: view ``v``
is mapped by ``params.view_map(dim, v)`` unless maps are given, and one
loop scales its normal-equation blocks by ``alpha_v`` and ``alpha_v**r``,
skipping the weight step for one view.  :func:`~edapt.single.fit_eda` is
that body on one view, so a one-view fit is ``fit_eda``'s by construction.
Both return :class:`~edapt.single.EdaModel`, one entry per view in each
per-view field.  Likewise :func:`predict_mveda` checks its datasets and
runs the predict body in :mod:`edapt.single` that
:func:`~edapt.single.predict_eda` runs on one view.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, DomainBundle, decode_labels
from .errors import ParameterError, ShapeError
from .features import HiddenMap
from .single import (
    EdaModel,
    EdaParams,
    EdaProblem,
    _fit_views,
    _predict_views,
    _view_scales,
    mv_objective,
    update_alpha,
    update_beta,
    update_theta,
    view_trace,
)
from .single import beta_gradient  # noqa: F401  (perfbench/test_harness.py reads it here)

__all__ = [
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
    return update_beta(u, theta, prob, params, *_view_scales(view_weight, params))


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
) -> EdaModel:
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
        View ``v``'s hidden map is ``params.view_map(dim_v, v)``; pass
        ``hidden_maps`` to override.
    hidden_maps : list of HiddenMap, optional
        Override ``params.n_hidden``, ``.activation`` and ``.seed``; the
        model keeps these maps, and ``params`` as passed.

    Notes
    -----
    This and :func:`~edapt.single.fit_eda` run one body, so with a
    single view the fit is ``fit_eda``'s: view 0's default map is the
    one ``fit_eda`` draws, and the loop skips the weight step.  The
    weight vector starts uniform and every iterate stays on the simplex.
    A caller that rescaled the bundles attaches the rescalings with
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
    _check_aligned(bundles)
    return _fit_views(bundles, prelabels, params, hidden_maps)


def predict_mveda(
    model: EdaModel, datasets: list[Dataset]
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
    fused, per_view = _predict_views(model, datasets)
    return decode_labels(fused), fused, per_view
