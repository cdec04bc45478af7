"""Pre-classifiers that score the unlabeled target split."""

import math

import numpy as np
import pytest

from edapt import (
    Dataset,
    DomainBundle,
    KernelSpec,
    ParameterError,
    ShapeError,
    average_prelabels,
    fit_elm,
    load_prelabels,
    map_features,
    new_hidden_map,
    preclassify_elm,
    preclassify_kernel,
)
from edapt.data import concat_features, encode_labels
from edapt.preclassify import BUILTINS, builtin_prelabels

from helpers import blob_bundle


def _two_point_bundle(unlabeled_at=0.5):
    """One source point at 0 (class 0), one labeled target point at 2
    (class 1), one unlabeled point in between."""
    return DomainBundle(
        Dataset(np.array([[0.0]]), [0]),
        Dataset(np.array([[2.0]]), [1]),
        Dataset(np.array([[unlabeled_at]])),
        2,
    )


def _kernel_value(kind, d2, sigma):
    if kind == "rbf":
        return math.exp(-d2 / (2.0 * sigma**2))
    if kind == "laplacian_dist":
        return math.exp(-math.sqrt(sigma) * d2)
    return 1.0 / (math.sqrt(sigma) * d2 + 1.0)


@pytest.mark.parametrize("kind", ["rbf", "laplacian_dist", "inverse_dist"])
def test_kernel_scores_hand_case(kind):
    # training gram [[1, k(4)], [k(4), 1]] + I, targets [[1,-1],[-1,1]]:
    # solving by hand gives scores s = (k(.25) - k(2.25)) (2 + k(4)) / det
    # for class 0 and -s for class 1, det = 4 - k(4)^2
    bundle = _two_point_bundle()
    scores = preclassify_kernel(bundle, KernelSpec(kind, sigma=1.0), ridge=1.0)
    k4 = _kernel_value(kind, 4.0, 1.0)
    det = 4.0 - k4 * k4
    s = (_kernel_value(kind, 0.25, 1.0) - _kernel_value(kind, 2.25, 1.0)) \
        * (2.0 + k4) / det
    assert scores.shape == (1, 2)
    assert scores[0, 0] == pytest.approx(s, rel=1e-12)
    assert scores[0, 1] == pytest.approx(-s, rel=1e-12)
    assert s > 0.0  # the in-between point leans toward the closer class


def test_auto_bandwidth_matches_mean_squared_distance():
    # ordered training pairs (self included) have squared distances
    # 0, 4, 4, 0 -> mean 2 -> sigma = 1/2
    bundle = _two_point_bundle()
    auto = preclassify_kernel(bundle, KernelSpec("rbf", sigma=None), ridge=1.0)
    fixed = preclassify_kernel(bundle, KernelSpec("rbf", sigma=0.5), ridge=1.0)
    assert np.array_equal(auto, fixed)


def test_auto_bandwidth_rejects_coincident_training_points():
    bundle = DomainBundle(
        Dataset(np.array([[1.0]]), [0]),
        Dataset(np.array([[1.0]]), [1]),
        Dataset(np.array([[0.0]])),
        2,
    )
    with pytest.raises(ParameterError):
        preclassify_kernel(bundle, KernelSpec("rbf", sigma=None))


def test_huge_ridge_flattens_scores():
    bundle = _two_point_bundle()
    scores = preclassify_kernel(bundle, KernelSpec("rbf", 1.0), ridge=1e12)
    assert np.max(np.abs(scores)) < 1e-9


def test_kernel_spec_validation():
    with pytest.raises(ParameterError):
        KernelSpec("quadratic")
    with pytest.raises(ParameterError):
        KernelSpec("rbf", sigma=0.0)
    with pytest.raises(ParameterError):
        preclassify_kernel(_two_point_bundle(), KernelSpec(), ridge=0.0)


def test_elm_prelabels_match_manual_pipeline():
    bundle = blob_bundle(seed=1)
    hm = new_hidden_map(10, 2, seed=3)
    scores = preclassify_elm(bundle, hm, ridge=2.0)
    x = concat_features(bundle.source, bundle.target_labeled)
    y = np.concatenate([bundle.source.labels, bundle.target_labeled.labels])
    beta = fit_elm(map_features(hm, Dataset(x)),
                   encode_labels(y, bundle.n_classes), 2.0)
    manual = map_features(hm, bundle.target_unlabeled) @ beta
    assert np.array_equal(scores, manual)


def test_all_preclassifiers_are_interchangeable():
    bundle = blob_bundle(seed=2)
    hm = new_hidden_map(10, 2, seed=4)
    outs = [preclassify_elm(bundle, hm)]
    for kind in ("laplacian_dist", "inverse_dist", "rbf"):
        outs.append(preclassify_kernel(bundle, KernelSpec(kind)))
    for scores in outs:
        assert scores.shape == (bundle.n_unlabeled, bundle.n_classes)
        assert np.isfinite(scores).all()


def test_empty_unlabeled_split_gives_empty_scores():
    bundle = blob_bundle(seed=3, per_unlabeled=0)
    hm = new_hidden_map(10, 2, seed=5)
    assert preclassify_elm(bundle, hm).shape == (0, 3)
    assert preclassify_kernel(bundle, KernelSpec("rbf", 1.0)).shape == (0, 3)


def test_average_prelabels():
    mean = average_prelabels([np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])])
    assert np.array_equal(mean, [[2.0, 3.0]])
    with pytest.raises(ShapeError):
        average_prelabels([np.ones((1, 2)), np.ones((2, 2))])
    with pytest.raises(ParameterError):
        average_prelabels([])


def test_load_prelabels(tmp_path):
    p = tmp_path / "phi.csv"
    p.write_text("0.5,-0.5\n0.25,0.75\n")
    assert np.array_equal(load_prelabels(str(p)),
                          [[0.5, -0.5], [0.25, 0.75]])


def test_builtin_names_map_to_their_producers():
    bundle = blob_bundle(seed=2)
    hm = new_hidden_map(10, 2, seed=4)
    lap = preclassify_kernel(bundle, KernelSpec("laplacian_dist"), 2.0)
    inv = preclassify_kernel(bundle, KernelSpec("inverse_dist"), 2.0)
    want = {"elm": preclassify_elm(bundle, hm, 2.0), "laplacian": lap,
            "inverse": inv, "average": average_prelabels([lap, inv])}
    assert tuple(want) == BUILTINS
    for name, scores in want.items():
        assert np.array_equal(builtin_prelabels(name, bundle, hm, 2.0), scores)
    with pytest.raises(ParameterError, match="unknown pre-classifier"):
        builtin_prelabels("rbf", bundle, hm, 2.0)
