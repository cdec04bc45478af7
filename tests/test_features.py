"""Random hidden maps, activations, and feature standardization."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from edapt import (
    Dataset,
    HiddenMap,
    ParameterError,
    ParseError,
    ShapeError,
    Standardizer,
    derive_view_seed,
    fit_standardizer,
    map_features,
    new_hidden_map,
    standardize_bundle,
)
from edapt.features import load_standardizer, save_standardizer

from helpers import blob_bundle


def test_radbas_hand_case():
    # z = 1*2 + 1*1 - 1 = 2, radbas(2) = exp(-4)
    hm = HiddenMap(np.array([[1.0, 1.0]]), np.array([-1.0]), "radbas", 0)
    h = map_features(hm, Dataset(np.array([[2.0], [1.0]])))
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(math.exp(-4.0), rel=1e-15)


def test_sigmoid_hand_case():
    hm = HiddenMap(np.array([[1.0]]), np.array([0.0]), "sigmoid", 0)
    h = map_features(hm, Dataset(np.array([[0.0, 3.0]])))
    assert h[0, 0] == 0.5
    assert h[1, 0] == pytest.approx(1.0 / (1.0 + math.exp(-3.0)), rel=1e-15)


def test_map_features_matches_naive_loop():
    rng = np.random.default_rng(2)
    hm = new_hidden_map(5, 3, "radbas", seed=2)
    x = rng.standard_normal((3, 4))
    h = map_features(hm, Dataset(x))
    assert h.shape == (4, 5)
    for i in range(4):
        for k in range(5):
            z = float(hm.weights[k] @ x[:, i] + hm.biases[k])
            assert h[i, k] == pytest.approx(math.exp(-z * z), rel=1e-14)


def test_hidden_map_draw_order_and_range():
    # weights are drawn before biases from the seeded generator
    hm = new_hidden_map(4, 3, seed=7)
    rng = np.random.default_rng(7)
    assert np.array_equal(hm.weights, rng.uniform(0.0, 1.0, size=(4, 3)))
    assert np.array_equal(hm.biases, rng.uniform(0.0, 1.0, size=4))
    assert hm.weights.min() >= 0.0 and hm.weights.max() <= 1.0


def test_hidden_map_determinism():
    a = new_hidden_map(6, 2, seed=11)
    b = new_hidden_map(6, 2, seed=11)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)
    c = new_hidden_map(6, 2, seed=12)
    assert not np.array_equal(a.weights, c.weights)


def test_hidden_map_validation():
    with pytest.raises(ParameterError):
        new_hidden_map(0, 2)
    with pytest.raises(ParameterError):
        HiddenMap(np.ones((2, 2)), np.ones(2), "tanh", 0)
    with pytest.raises(ShapeError):
        HiddenMap(np.ones((2, 2)), np.ones(3), "radbas", 0)
    hm = new_hidden_map(3, 2)
    with pytest.raises(ShapeError):
        map_features(hm, Dataset(np.ones((5, 2))))
    with pytest.raises(ValueError):
        hm.weights[0, 0] = 1.0


def test_derive_view_seed():
    seeds = [derive_view_seed(3, v) for v in range(6)]
    assert len(set(seeds)) == 6
    assert seeds == [derive_view_seed(3, v) for v in range(6)]
    assert derive_view_seed(4, 0) != seeds[0]


def test_standardizer_hand_case():
    # feature 0: values (1, 3) -> mean 2, std 1; feature 1: constant -> std 1
    ds = Dataset(np.array([[1.0, 3.0], [2.0, 2.0]]))
    st = fit_standardizer(ds)
    assert np.array_equal(st.mean, [2.0, 2.0])
    assert np.array_equal(st.std, [1.0, 1.0])
    out = st.apply(ds)
    assert np.array_equal(out.features, [[-1.0, 1.0], [0.0, 0.0]])


def test_fit_standardizer_pools_datasets():
    a = Dataset(np.array([[0.0, 0.0]]))
    b = Dataset(np.array([[4.0, 4.0]]))
    st = fit_standardizer(a, b)
    assert st.mean[0] == 2.0 and st.std[0] == 2.0


def test_standardize_bundle_fits_on_train_splits_only():
    b = blob_bundle(seed=3, per_test=2)
    out = standardize_bundle(b)
    # statistics must come from source + labeled target, not unlabeled/test
    st = fit_standardizer(b.source, b.target_labeled)
    assert np.array_equal(out.source.features, st.apply(b.source).features)
    assert np.array_equal(out.target_unlabeled.features,
                          st.apply(b.target_unlabeled).features)
    pooled = np.hstack([out.source.features, out.target_labeled.features])
    assert np.max(np.abs(pooled.mean(axis=1))) < 1e-12
    assert np.allclose(pooled.std(axis=1), 1.0, atol=1e-12)
    # reusing the fitted statistics reproduces the same bundle
    again = standardize_bundle(b, st)
    assert np.array_equal(again.source.features, out.source.features)


def test_standardizer_file_round_trip(tmp_path):
    st = Standardizer(np.array([0.1, -2.0]), np.array([1.5, 3.0]))
    p = str(tmp_path / "st.txt")
    save_standardizer(st, p)
    back = load_standardizer(p)
    assert np.array_equal(back.mean, st.mean)
    assert np.array_equal(back.std, st.std)


@pytest.mark.parametrize("lines, field, what", [
    ("1.0,oops\n1.0,2.0\n", "'mean'", "could not convert"),
    ("1.0,2.0\n1.0,inf\n", "'std'", "non-finite"),
    ("1.0,nan\n1.0,2.0\n", "'mean'", "non-finite"),
    ("1.0,2.0\n1.0,0.0\n", "'std'", "<= 0"),
    ("1.0,2.0\n-1.0,2.0\n", "'std'", "<= 0"),
])
def test_malformed_standardizer_names_file_and_field(tmp_path, lines, field, what):
    p = tmp_path / "st.txt"
    p.write_text(lines)
    with pytest.raises(ParseError) as err:
        load_standardizer(str(p))
    assert str(p) in str(err.value) and field in str(err.value)
    assert what in str(err.value)


def test_sigmoid_matches_expit_without_warnings():
    from scipy.special import expit

    z = np.concatenate([np.linspace(-800.0, 800.0, 200_001),
                        [-745.2, -709.8, -709.7, -0.0, 36.0, 37.5]])
    hm = HiddenMap(np.ones((1, 1)), np.zeros(1), "sigmoid", 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = map_features(hm, Dataset(z[None, :]))[:, 0]
    want = expit(z)
    assert np.array_equal(got == 0.0, want == 0.0)
    nz = want != 0.0
    assert np.max(np.abs(got[nz] - want[nz]) / want[nz]) <= 1e-15


def test_import_loads_neither_scipy_special_nor_spatial():
    code = ("import sys, edapt; "
            "print(sorted(m for m in ('scipy.special', 'scipy.spatial') "
            "if m in sys.modules))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_load_standardizer_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0,2.0\n")
    with pytest.raises(ParseError):
        load_standardizer(str(p))
    p.write_text("1.0,2.0\n0.5\n")
    with pytest.raises(ParseError):
        load_standardizer(str(p))
