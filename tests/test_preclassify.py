"""Pre-classifiers that score the unlabeled target split."""

import math

import numpy as np
import pytest

from edapt import (
    Dataset,
    DomainBundle,
    ParameterError,
    ShapeError,
    fit_elm,
    new_hidden_map,
    preclassify_elm,
)
from edapt.data import concat_features, encode_labels
from edapt.features import map_features
from edapt.preclassify import (
    BUILTINS,
    KERNELS,
    average_prelabels,
    builtin_prelabels,
    preclassify_kernel,
)

from helpers import blob_bundle, peak_bytes, preclassify_kernel_reference


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
    if kind == "laplacian":
        return math.exp(-math.sqrt(sigma) * d2)
    return 1.0 / (math.sqrt(sigma) * d2 + 1.0)


@pytest.mark.parametrize("kind", KERNELS)
def test_kernel_scores_hand_case(kind):
    # ordered training pairs (self included) have squared distances
    # 0, 4, 4, 0 -> mean 2 -> automatic bandwidth sigma = 1/2.
    # training gram [[1, k(4)], [k(4), 1]] + I, targets [[1,-1],[-1,1]]:
    # solving by hand gives scores s = (k(.25) - k(2.25)) (2 + k(4)) / det
    # for class 0 and -s for class 1, det = 4 - k(4)^2
    bundle = _two_point_bundle()
    scores = preclassify_kernel(bundle, kind, ridge=1.0)
    k4 = _kernel_value(kind, 4.0, 0.5)
    det = 4.0 - k4 * k4
    s = (_kernel_value(kind, 0.25, 0.5) - _kernel_value(kind, 2.25, 0.5)) \
        * (2.0 + k4) / det
    assert scores.shape == (1, 2)
    assert scores[0, 0] == pytest.approx(s, rel=1e-12)
    assert scores[0, 1] == pytest.approx(-s, rel=1e-12)
    assert s > 0.0  # the in-between point leans toward the closer class


def test_auto_bandwidth_matches_mean_squared_distance():
    # training points 0, 1 (class 0) and 3 (class 1): the nine ordered
    # pairs (self included) have squared distances summing to
    # 2 (1 + 9 + 4) = 28, so sigma = 9/28; the unlabeled point 2 lies at
    # squared distances 4, 1, 1 from them
    bundle = DomainBundle(
        Dataset(np.array([[0.0, 1.0]]), [0, 0]),
        Dataset(np.array([[3.0]]), [1]),
        Dataset(np.array([[2.0]])),
        2,
    )
    d2 = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])
    t = np.array([[1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    for kind in KERNELS:
        k = np.vectorize(lambda d: _kernel_value(kind, d, 9.0 / 28.0))
        want = k(np.array([[4.0, 1.0, 1.0]])) @ np.linalg.solve(k(d2) + np.eye(3), t)
        got = preclassify_kernel(bundle, kind, ridge=1.0)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), kind


def test_auto_bandwidth_rejects_coincident_training_points():
    bundle = DomainBundle(
        Dataset(np.array([[1.0]]), [0]),
        Dataset(np.array([[1.0]]), [1]),
        Dataset(np.array([[0.0]])),
        2,
    )
    with pytest.raises(ParameterError):
        preclassify_kernel(bundle)


def test_huge_ridge_flattens_scores():
    bundle = _two_point_bundle()
    scores = preclassify_kernel(bundle, ridge=1e12)
    assert np.max(np.abs(scores)) < 1e-9


def test_kernel_spec_validation():
    for kind in ("quadratic", "rbf", "laplacian_dist"):
        with pytest.raises(ParameterError, match="unknown kernel"):
            preclassify_kernel(_two_point_bundle(), kind)
    with pytest.raises(ParameterError):
        preclassify_kernel(_two_point_bundle(), ridge=0.0)


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
    for kind in KERNELS:
        outs.append(preclassify_kernel(bundle, kind))
    for scores in outs:
        assert scores.shape == (bundle.n_unlabeled, bundle.n_classes)
        assert np.isfinite(scores).all()


def test_empty_unlabeled_split_gives_empty_scores():
    bundle = blob_bundle(seed=3, per_unlabeled=0)
    hm = new_hidden_map(10, 2, seed=5)
    assert preclassify_elm(bundle, hm).shape == (0, 3)
    assert preclassify_kernel(bundle).shape == (0, 3)


def test_elm_fits_nothing_without_an_unlabeled_split(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted a ridge with nothing to score")

    monkeypatch.setattr("edapt.preclassify.fit_elm", no_fit)
    bundle = blob_bundle(seed=3, per_unlabeled=0)
    assert preclassify_elm(bundle, new_hidden_map(10, 2, seed=5)).shape == (0, 3)


@pytest.mark.parametrize("kind", KERNELS)
def test_kernel_solves_nothing_without_an_unlabeled_split(kind, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a kernel system with nothing to score")

    monkeypatch.setattr("edapt.preclassify.solve_spd", no_solve)
    bundle = blob_bundle(seed=3, per_unlabeled=0)
    assert preclassify_kernel(bundle, kind).shape == (0, 3)


def test_average_prelabels():
    mean = average_prelabels([np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])])
    assert np.array_equal(mean, [[2.0, 3.0]])
    with pytest.raises(ShapeError):
        average_prelabels([np.ones((1, 2)), np.ones((2, 2))])
    with pytest.raises(ParameterError):
        average_prelabels([])


def test_builtin_names_map_to_their_producers():
    bundle = blob_bundle(seed=2)
    hm = new_hidden_map(10, 2, seed=4)
    lap = preclassify_kernel(bundle, "laplacian", 2.0)
    inv = preclassify_kernel(bundle, "inverse", 2.0)
    want = {"elm": preclassify_elm(bundle, hm, 2.0), "laplacian": lap,
            "inverse": inv, "average": average_prelabels([lap, inv])}
    assert tuple(want) == BUILTINS
    for name, scores in want.items():
        assert np.array_equal(builtin_prelabels(name, bundle, hm, 2.0), scores)
    with pytest.raises(ParameterError, match="unknown pre-classifier"):
        builtin_prelabels("rbf", bundle, hm, 2.0)


@pytest.mark.parametrize("kind", KERNELS)
def test_kernel_scores_equal_the_reference_bit_for_bit(kind):
    # the kernels are built in place, in the old formula's operation order
    for seed, ridge in ((0, 1.0), (1, 0.1), (2, 30.0)):
        bundle = blob_bundle(seed, d=3, per_source=9, per_labeled=3, per_unlabeled=7)
        assert np.array_equal(preclassify_kernel(bundle, kind, ridge),
                              preclassify_kernel_reference(bundle, kind, ridge))


@pytest.mark.parametrize("kind", KERNELS)
def test_kernel_holds_at_most_two_training_kernels(kind):
    # n = 3 x (180 + 20) = 600 training rows, 90 unlabeled: the kernel and
    # its Cholesky factor (the old formula peaked at four n x n arrays)
    bundle = blob_bundle(0, per_source=180, per_labeled=20, per_unlabeled=30)
    bound = 2.2 * 600 * 600 * 8
    assert peak_bytes(preclassify_kernel, bundle, kind) <= bound
    assert peak_bytes(preclassify_kernel_reference, bundle, kind) > bound
