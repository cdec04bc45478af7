"""Random hidden maps, activations, and feature standardization."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edapt import (
    Dataset,
    EdaModel,
    EdaParams,
    HiddenMap,
    ParameterError,
    ParseError,
    ShapeError,
    derive_view_seed,
    load_model,
    new_hidden_map,
    predict_eda,
    predict_mveda,
    save_model,
    standardize_bundle,
)
from edapt.features import (
    ACTIVATIONS,
    _BLOCK,
    Standardizer,
    fit_standardizer,
    map_features,
)

from helpers import blob_bundle, hidden_layer_reference


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
    # a map needs at least one hidden unit and one input feature
    with pytest.raises(ShapeError):
        HiddenMap(np.ones((2, 0)), np.ones(2), "radbas", 0)
    with pytest.raises(ShapeError):
        HiddenMap(np.ones((0, 2)), np.ones(0), "radbas", 0)
    hm = new_hidden_map(3, 2)
    with pytest.raises(ShapeError):
        map_features(hm, Dataset(np.ones((5, 2))))
    with pytest.raises(ValueError):
        hm.weights[0, 0] = 1.0


def test_derive_view_seed():
    seeds = [derive_view_seed(3, v) for v in range(6)]
    assert len(set(seeds)) == 6
    assert seeds == [derive_view_seed(3, v) for v in range(6)]
    assert derive_view_seed(4, 1) != seeds[1]


@pytest.mark.parametrize("seed", [0, 3, 2**40])
def test_view_0_keeps_the_seed(seed):
    # view 0 of a multi-view fit draws the map a single-view fit draws
    assert derive_view_seed(seed, 0) == seed


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


def test_standardizer_checks_itself():
    st = Standardizer([0.1, -2.0], [1.5, 3.0])
    with pytest.raises(ValueError):
        st.mean[0] = 0.0
    with pytest.raises(ParameterError, match="field 'mean' has non-finite"):
        Standardizer([0.1, np.nan], [1.5, 3.0])
    with pytest.raises(ParameterError, match="field 'std' has entries <= 0"):
        Standardizer([0.1, -2.0], [1.5, 0.0])
    with pytest.raises(ShapeError, match="differ in length: 2 and 3"):
        Standardizer([0.1, -2.0], [1.5, 3.0, 1.0])
    with pytest.raises(ShapeError, match=r"field 'mean' must be a vector, got shape \(1, 2\)"):
        Standardizer([[0.1, -2.0]], [1.5, 3.0])
    with pytest.raises(ShapeError, match="standardizer has 2 features, the input has 3"):
        st.apply(Dataset(np.ones((3, 4))))


def _model_over_two_inputs(standardizer=None) -> EdaModel:
    return EdaModel([new_hidden_map(3, 2, seed=0)], [np.ones((3, 2))], [np.eye(2)],
                    [[1.0]], [1.0], EdaParams(n_hidden=3),
                    None if standardizer is None else [standardizer])


def test_standardizer_file_round_trip(tmp_path):
    # the standardizer is a block of the model file
    st = Standardizer(np.array([0.1, -2.0]), np.array([1.5, 3.0]))
    p = str(tmp_path / "m.json")
    save_model(_model_over_two_inputs(st), p)
    assert json.loads(open(p).read())["standardizer"] == {"mean": [0.1, -2.0],
                                                        "std": [1.5, 3.0]}
    back = load_model(p).standardizer
    assert np.array_equal(back.mean, st.mean)
    assert np.array_equal(back.std, st.std)


def _number_or_text(token: str):
    try:
        return float(token)
    except ValueError:
        return token


@pytest.mark.parametrize("lines, field, what", [
    ("1.0,oops\n1.0,2.0\n", "'mean'", "could not convert"),
    ("1.0,2.0\n1.0,inf\n", "'std'", "non-finite"),
    ("1.0,nan\n1.0,2.0\n", "'mean'", "non-finite"),
    ("1.0,2.0\n1.0,0.0\n", "'std'", "<= 0"),
    ("1.0,2.0\n-1.0,2.0\n", "'std'", "<= 0"),
])
def test_malformed_standardizer_names_file_and_field(tmp_path, lines, field, what):
    # the two lines are the block's mean and std
    mean, std = ([_number_or_text(tok) for tok in line.split(",")]
                 for line in lines.splitlines())
    p = tmp_path / "m.json"
    save_model(_model_over_two_inputs(), str(p))
    d = json.loads(p.read_text())
    d["standardizer"] = {"mean": mean, "std": std}
    p.write_text(json.dumps(d))
    with pytest.raises(ParseError) as err:
        load_model(str(p))
    assert str(p) in str(err.value) and field in str(err.value)
    assert what in str(err.value)


def test_sigmoid_matches_expit_without_warnings():
    from scipy.special import expit

    z = np.concatenate([np.linspace(-800.0, 800.0, 200_001),
                        [-745.2, -709.8, -709.7, -0.0, 36.0, 37.5]])
    hm = HiddenMap(np.ones((1, 1)), np.zeros(1), "sigmoid", 0)
    data = Dataset(z[None, :])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = map_features(hm, data)[:, 0]
        projected = map_features(hm, data, np.ones((1, 1)))[:, 0]
    want = expit(z)
    assert np.array_equal(got == 0.0, want == 0.0)
    nz = want != 0.0
    assert np.max(np.abs(got[nz] - want[nz]) / want[nz]) <= 1e-15
    assert np.array_equal(projected, got)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_blocked_kernel_matches_the_unblocked_reference(data):
    activation = data.draw(st.sampled_from(ACTIVATIONS))
    d = data.draw(st.integers(1, 12))
    # wide maps hold one row per block
    n_hidden = data.draw(st.one_of(st.integers(1, 400), st.just(_BLOCK + 1)))
    rows = max(1, _BLOCK // n_hidden)
    # below, at and just above one block, and a few blocks with a ragged end
    n = data.draw(st.one_of(st.integers(1, 40),
                            st.sampled_from([max(1, rows - 1), rows, rows + 1,
                                             2 * rows + 1, 3 * rows + 2])))
    c = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    hm = new_hidden_map(n_hidden, d, activation, seed)
    x = 2.0 * rng.standard_normal((d, n))
    weights = rng.standard_normal((n_hidden, c))
    want = hidden_layer_reference(hm, x)

    got = map_features(hm, Dataset(x))
    assert np.array_equal(got, want)
    assert got.flags.f_contiguous

    scores = map_features(hm, Dataset(x), weights)
    assert scores.shape == (n, c)
    if n <= rows:
        assert np.array_equal(scores, want @ weights)
    else:
        # up to rounding: bounded by the summed magnitudes of each score
        bound = np.abs(want) @ np.abs(weights)
        assert np.all(np.abs(scores - want @ weights) <= 1e-12 * bound)


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_one_row_blocks_at_a_stride_of_eight(activation, monkeypatch):
    # a one-row block of 8 samples is a view with a stride of 8 elements,
    # where numpy 2.4.6's in-place negative reads the wrong elements
    hm = new_hidden_map(20, 2, activation, seed=4)
    rng = np.random.default_rng(4)
    monkeypatch.setattr("edapt.features._BLOCK", 10)  # matrix form: 1 row per block
    x = rng.standard_normal((2, 8))
    assert np.array_equal(map_features(hm, Dataset(x)),
                          hidden_layer_reference(hm, x))
    monkeypatch.setattr("edapt.features._BLOCK", 160)  # scores: 8 rows, then 1
    x = rng.standard_normal((2, 9))
    weights = rng.standard_normal((20, 3))
    want = hidden_layer_reference(hm, x) @ weights
    got = map_features(hm, Dataset(x), weights)
    assert np.all(np.abs(got - want) <= 1e-12 * (np.abs(want) + 1.0))


def test_projection_weights_of_the_wrong_shape():
    hm = new_hidden_map(5, 3, seed=0)
    data = Dataset(np.ones((3, 4)))
    for weights in (np.ones((4, 2)), np.ones(5), np.ones((6, 2))):
        with pytest.raises(ShapeError) as err:
            map_features(hm, data, weights)
        assert "(5, 3)" in str(err.value)
        assert str(weights.shape) in str(err.value)


def test_scoring_streams_without_the_activation_matrix():
    # 4000 rows at L = 1000: the activation matrix alone is 32 MB
    n, n_hidden, c = 4000, 1000, 3
    rng = np.random.default_rng(0)
    maps = [new_hidden_map(n_hidden, 2, seed=s) for s in (0, 1)]
    betas = [rng.standard_normal((n_hidden, c)) for _ in maps]
    data = Dataset(rng.standard_normal((2, n)))
    eye = np.eye(c)
    params = EdaParams(n_hidden=n_hidden)
    eda = EdaModel(maps[:1], betas[:1], [eye], [[1.0]], [1.0], params)
    mveda = EdaModel(maps, betas, [eye, eye], [[0.5, 0.5]], [1.0], params)
    for score in (lambda: predict_eda(eda, data),
                  lambda: predict_mveda(mveda, [data, data]),
                  lambda: map_features(maps[0], data, betas[0])):
        tracemalloc.start()
        try:
            score()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n_hidden * 8 // 4


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

