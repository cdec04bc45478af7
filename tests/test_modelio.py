"""Model serialization round-trips."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from edapt import (
    EdaModel,
    EdaParams,
    ElmModel,
    HiddenMap,
    MvEdaModel,
    ParameterError,
    ParseError,
    fit_elm,
    fit_eda,
    fit_mveda,
    load_model,
    new_hidden_map,
    save_model,
)
from edapt.features import ACTIVATIONS, map_features

from helpers import blob_bundle, random_prelabels, small_params


def _maps_equal(a, b):
    return (np.array_equal(a.weights, b.weights)
            and np.array_equal(a.biases, b.biases)
            and a.activation == b.activation and a.seed == b.seed)


def test_elm_round_trip(tmp_path):
    hm = new_hidden_map(8, 2, seed=0)
    rng = np.random.default_rng(0)
    from edapt import Dataset
    h = map_features(hm, Dataset(rng.standard_normal((2, 6))))
    t = rng.standard_normal((6, 3))
    beta = fit_elm(h, t, 10.0)
    from edapt import ElmModel
    model = ElmModel(hm, beta, 10.0)
    path = save_model(model, str(tmp_path / "elm.json"))
    back = load_model(path)
    assert isinstance(back, ElmModel)
    assert _maps_equal(back.hidden_map, model.hidden_map)
    assert np.array_equal(back.beta, model.beta)
    assert back.ridge == model.ridge


def test_eda_round_trip(tmp_path):
    bundle = blob_bundle(seed=1)
    params = small_params()
    model = fit_eda(bundle, random_prelabels(bundle, 1), params,
                    new_hidden_map(12, 2, seed=1))
    path = save_model(model, str(tmp_path / "eda.json"))
    back = load_model(path)
    assert np.array_equal(back.beta, model.beta)
    assert np.array_equal(back.theta, model.theta)
    assert np.array_equal(back.u, model.u)
    assert np.array_equal(back.objective_history, model.objective_history)
    assert back.params == model.params
    assert _maps_equal(back.hidden_map, model.hidden_map)


def test_mveda_round_trip_one_file(tmp_path):
    b0 = blob_bundle(seed=2)
    from edapt import augment_noise_view
    b1 = augment_noise_view(b0, 2, seed=3)
    params = small_params()
    maps = [new_hidden_map(12, 2, seed=2), new_hidden_map(12, 4, seed=3)]
    pres = [random_prelabels(b0, 2), random_prelabels(b1, 3)]
    model = fit_mveda([b0, b1], pres, params, maps)
    path = tmp_path / "mv.json"
    assert save_model(model, str(path)) == str(path)
    assert [p.name for p in tmp_path.iterdir()] == ["mv.json"]
    d = json.loads(path.read_text())
    assert list(d) == ["kind", "views", "alpha", "alpha_history",
                       "objective_history", "params"]
    assert d["kind"] == "mveda"
    assert [list(v) for v in d["views"]] == [["hidden_map", "beta", "theta", "u"]] * 2
    back = load_model(str(path))
    assert back.n_views == 2
    for v in range(2):
        assert np.array_equal(back.betas[v], model.betas[v])
        assert np.array_equal(back.thetas[v], model.thetas[v])
        assert np.array_equal(back.us[v], model.us[v])
        assert _maps_equal(back.hidden_maps[v], model.hidden_maps[v])
    assert np.array_equal(back.alpha, model.alpha)
    assert np.array_equal(back.alpha_history, model.alpha_history)
    assert np.array_equal(back.objective_history, model.objective_history)
    assert back.params == model.params


def test_predictions_survive_the_round_trip(tmp_path):
    bundle = blob_bundle(seed=4, per_test=3)
    params = small_params()
    model = fit_eda(bundle, random_prelabels(bundle, 4), params,
                    new_hidden_map(12, 2, seed=4))
    back = load_model(save_model(model, str(tmp_path / "m.json")))
    from edapt import predict_eda
    got_l, got_s = predict_eda(back, bundle.target_test)
    want_l, want_s = predict_eda(model, bundle.target_test)
    assert np.array_equal(got_l, want_l)
    assert np.array_equal(got_s, want_s)


def test_unknown_kind_and_junk(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": "mystery"}))
    with pytest.raises(ParseError):
        load_model(str(p))
    p.write_text("[1, 2]")
    with pytest.raises(ParseError):
        load_model(str(p))
    with pytest.raises(TypeError):
        save_model(object(), str(tmp_path / "x.json"))


@pytest.mark.parametrize("corrupt, field", [
    (lambda d: d.pop("theta"), "'theta'"),
    (lambda d: d["params"].update(mystery=1), "mystery"),
    (lambda d: d["beta"][0].__setitem__(0, float("nan")), "'beta'"),
    (lambda d: d["hidden_map"].update(weights=[[] for _ in d["u"]]),
     "hidden_map: weights"),
    (lambda d: d.update(objective_history=[]), "'objective_history'"),
])
def test_malformed_eda_file_names_file_and_field(tmp_path, corrupt, field):
    bundle = blob_bundle(seed=5)
    model = fit_eda(bundle, random_prelabels(bundle, 5), small_params(),
                    new_hidden_map(12, 2, seed=5))
    path = tmp_path / "m.json"
    save_model(model, str(path))
    d = json.loads(path.read_text())
    corrupt(d)
    path.write_text(json.dumps(d))
    with pytest.raises(ParseError) as info:
        load_model(str(path))
    assert str(path) in str(info.value) and field in str(info.value)


def _two_view_file(tmp_path):
    b0 = blob_bundle(seed=6)
    from edapt import augment_noise_view
    b1 = augment_noise_view(b0, 2, seed=7)
    model = fit_mveda([b0, b1], [random_prelabels(b0, 6), random_prelabels(b1, 7)],
                      small_params(), [new_hidden_map(12, 2, seed=6),
                                       new_hidden_map(12, 4, seed=7)])
    return save_model(model, str(tmp_path / "mv.json"))


def _assert_names(path: str, corrupt, field: str) -> None:
    """Corrupt the saved model file; loading names the file and ``field``."""
    with open(path, encoding="utf-8") as fh:
        good = fh.read()
    d = json.loads(good)
    corrupt(d)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh)
    with pytest.raises(ParseError) as info:
        load_model(path)
    assert path in str(info.value) and field in str(info.value)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(good)


def test_mismatched_view_file_names_file_and_field(tmp_path):
    path = _two_view_file(tmp_path)

    def view1(**new):
        return lambda d: d["views"][1].update(
            {k: f(d["views"][1][k]) for k, f in new.items()})

    for corrupt, field in [
        (view1(beta=lambda a: a[:5], u=lambda a: a[:3]), "view 1: field 'beta'"),
        (view1(u=lambda a: a[:3]), "view 1: field 'u'"),
        (view1(theta=lambda a: [row[:2] for row in a[:2]]), "view 1: field 'theta'"),
        (lambda d: d["views"][1].pop("theta"), "view 1: missing field 'theta'"),
        (lambda d: d["views"].pop(), "alpha must have shape (1,)"),
        (lambda d: d.update(views=[]), "needs at least one view"),
        (lambda d: d.update(alpha=d["alpha"][:1]), "alpha must have shape (2,)"),
    ]:
        _assert_names(path, corrupt, field)


def test_inputless_map_and_empty_history_name_file_and_field(tmp_path):
    path = _two_view_file(tmp_path)
    _assert_names(path, lambda d: d["views"][0]["hidden_map"].update(
        weights=[[] for _ in d["views"][0]["u"]]), "view 0: hidden_map: weights")
    _assert_names(path, lambda d: d.update(objective_history=[], alpha_history=[]),
                  "'objective_history'")


@pytest.mark.parametrize("key, value, want", [
    ("ridge", "abc", "ridge must be a positive finite number, got 'abc'"),
    ("ridge", -1.0, "ridge must be a positive finite number, got -1.0"),
    ("ridge", None, "ridge must be a positive finite number, got None"),
    ("ridge", [1, 2], "ridge must be a positive finite number, got [1, 2]"),
    ("seed", "abc", "hidden_map: seed must be an integer, got 'abc'"),
    ("seed", 1.5, "hidden_map: seed must be an integer, got 1.5"),
    ("seed", None, "hidden_map: seed must be an integer, got None"),
])
def test_elm_ridge_and_map_seed_are_checked(tmp_path, key, value, want):
    # each of these used to load without complaint
    model = ElmModel(new_hidden_map(4, 2, seed=0), np.ones((4, 2)), 10.0)
    path = tmp_path / "elm.json"
    save_model(model, str(path))
    d = json.loads(path.read_text())
    (d["hidden_map"] if key == "seed" else d)[key] = value
    path.write_text(json.dumps(d))
    with pytest.raises(ParseError) as info:
        load_model(str(path))
    assert f"{path}: {want}" in str(info.value)


@pytest.mark.parametrize("key, value", [
    ("seed", "abc"), ("seed", 1.5), ("seed", None), ("n_hidden", 2.5),
    ("max_iter", float("nan")), ("n_neighbors", "5"),
])
def test_integer_params_are_checked(tmp_path, key, value):
    bundle = blob_bundle(seed=9)
    model = fit_eda(bundle, random_prelabels(bundle, 9), small_params(),
                    new_hidden_map(12, 2, seed=9))
    path = tmp_path / "m.json"
    save_model(model, str(path))
    d = json.loads(path.read_text())
    d["params"][key] = value
    path.write_text(json.dumps(d))
    with pytest.raises(ParseError) as info:
        load_model(str(path))
    assert f"{path}: params: {key} must be an integer, got {value!r}" in str(info.value)


def test_constructors_check_ridge_and_integer_fields():
    hm = new_hidden_map(4, 2, seed=0)
    with pytest.raises(ParameterError, match="ridge"):
        ElmModel(hm, np.ones((4, 2)), float("inf"))
    with pytest.raises(ParameterError, match="seed must be an integer"):
        HiddenMap(hm.weights, hm.biases, hm.activation, "0")
    with pytest.raises(ParameterError, match="n_hidden must be an integer"):
        EdaParams(n_hidden=float("nan"))
    for name in ("c_source", "drift_weight", "reweight_eps", "view_exponent"):
        with pytest.raises(ParameterError, match=f"{name} must be .*finite"):
            EdaParams(**{name: float("inf")})
    assert type(EdaParams(seed=np.int64(3)).seed) is int


# ---------------------------------------------------------------------------
# properties: every model kind round-trips bit for bit, and a corrupted
# file raises ParseError naming it
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEG = st.floats(min_value=0.0, max_value=1e6)
POSITIVE = st.floats(min_value=1e-12, max_value=1e6)
PARAMS = st.builds(
    EdaParams,
    c_source=NONNEG, c_target=NONNEG, drift_weight=POSITIVE,
    fidelity_weight=NONNEG, manifold_weight=NONNEG,
    n_hidden=st.integers(1, 5000), max_iter=st.integers(1, 50),
    reweight_eps=POSITIVE, n_neighbors=st.integers(1, 50),
    view_exponent=st.floats(min_value=1.0, max_value=10.0, exclude_min=True),
    activation=st.sampled_from(ACTIVATIONS), seed=st.integers(0, 2**32 - 1),
)


def _array(draw, *shape):
    return draw(arrays(np.float64, shape, elements=FINITE))


def _hidden_map(draw, n_hidden):
    return HiddenMap(_array(draw, n_hidden, draw(st.integers(1, 3))),
                     _array(draw, n_hidden), draw(st.sampled_from(ACTIVATIONS)),
                     draw(st.integers(0, 2**32 - 1)))


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["elm", "eda", "mveda"]))
    c = draw(st.integers(1, 3))
    rounds = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    maps = [_hidden_map(draw, n) for n in sizes]
    betas = [_array(draw, n, c) for n in sizes]
    if kind == "elm":
        return ElmModel(maps[0], betas[0], draw(POSITIVE))
    thetas = [_array(draw, c, c) for _ in sizes]
    us = [_array(draw, n) for n in sizes]
    history = _array(draw, rounds)
    params = draw(PARAMS)
    if kind == "eda":
        return EdaModel(maps[0], betas[0], thetas[0], us[0], history, params)
    v = len(sizes)
    return MvEdaModel(maps, betas, thetas, us, _array(draw, v),
                      _array(draw, rounds, v), history, params)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_map(a, b) -> bool:
    return (_same_bits(a.weights, b.weights) and _same_bits(a.biases, b.biases)
            and a.activation == b.activation and a.seed == b.seed)


@settings(max_examples=60, deadline=None)
@given(models())
def test_models_round_trip_bit_for_bit(model):
    with tempfile.TemporaryDirectory() as tmp:
        back = load_model(save_model(model, os.path.join(tmp, "m.json")))
    assert type(back) is type(model)
    if isinstance(model, ElmModel):
        assert _same_map(back.hidden_map, model.hidden_map)
        assert _same_bits(back.beta, model.beta) and back.ridge == model.ridge
        return
    assert back.params == model.params
    assert _same_bits(back.objective_history, model.objective_history)
    if isinstance(model, EdaModel):
        views = [(back.hidden_map, back.beta, back.theta, back.u,
                  model.hidden_map, model.beta, model.theta, model.u)]
    else:
        assert _same_bits(back.alpha, model.alpha)
        assert _same_bits(back.alpha_history, model.alpha_history)
        views = list(zip(back.hidden_maps, back.betas, back.thetas, back.us,
                         model.hidden_maps, model.betas, model.thetas, model.us))
    for hm, beta, theta, u, hm0, beta0, theta0, u0 in views:
        assert _same_map(hm, hm0)
        assert all(_same_bits(a, b) for a, b in [(beta, beta0), (theta, theta0), (u, u0)])


# top-level array fields of each kind, of a view block (the top level of
# an eda file) and of a hidden map
_ARRAYS = {
    "elm": ["beta"],
    "eda": ["beta", "theta", "u", "objective_history"],
    "mveda": ["alpha", "alpha_history", "objective_history"],
}
_VIEW_ARRAYS = ["beta", "theta", "u"]
_MAP_ARRAYS = ["weights", "biases"]


def _corruptions(d: dict) -> list:
    """(name, key path) pairs applicable to one parsed model file; every
    field of every nested block is replaced by junk and, where it is
    numeric, given a NaN, and every field but a parameter (which has a
    default) is dropped."""
    kind = d["kind"]
    views = [("views", i) for i in range(len(d["views"]))] if kind == "mveda" else [()]
    arrays = [(k,) for k in _ARRAYS[kind]]
    arrays += [v + (k,) for v in views if v for k in _VIEW_ARRAYS]
    arrays += [v + ("hidden_map", k) for v in views for k in _MAP_ARRAYS]
    # arrays whose length other fields fix (an eda file's objective
    # history may have any non-zero length), and the view list
    fixed = [a for a in arrays if a != ("objective_history",) or kind == "mveda"]
    fixed += [("views",)] if kind == "mveda" else []
    blocks = [()] + [v for v in views if v] + [v + ("hidden_map",) for v in views]
    blocks += [("params",)] if "params" in d else []
    keys = [b + (k,) for b in blocks for k in _get(d, b)]
    scalars = [k for k in keys if type(_get(d, k)) in (int, float)]
    out = [("drop", k) for k in keys if k[0] != "params" or len(k) == 1]
    out += [("junk", k) for k in keys]
    out += [("nan", a) for a in arrays + scalars] + [("truncate", a) for a in fixed]
    out += [("ragged", a) for a in fixed if len(_get(d, a)) > 1
            and isinstance(_get(d, a)[0], list)]
    out += [("kind", ("kind",))]
    out += [("param", ("params",))] if "params" in d else []
    return out


def _get(d, keys):
    for k in keys:
        d = d[k]
    return d


def _corrupt(d: dict, name: str, keys: tuple, new_kind: str) -> None:
    parent, key = _get(d, keys[:-1]), keys[-1]
    if name == "drop":
        del parent[key]
    elif name == "junk":
        parent[key] = "abc"
    elif name == "nan" and not isinstance(parent[key], list):
        parent[key] = float("nan")
    elif name == "nan":
        a = parent[key]
        while isinstance(a[0], list):
            a = a[0]
        a[0] = float("nan")
    elif name == "truncate":
        parent[key] = parent[key][:-1]
    elif name == "ragged":
        parent[key][0] = parent[key][0][:-1]
    elif name == "kind":
        parent[key] = new_kind
    else:
        parent[key]["mystery"] = 1


@settings(max_examples=150, deadline=None)
@given(models(), st.data())
def test_corrupted_model_files_raise_parse_error_naming_the_file(model, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(model, os.path.join(tmp, "m.json"))
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        name, keys = data.draw(st.sampled_from(_corruptions(d)))
        new_kind = data.draw(st.sampled_from(
            [k for k in ("elm", "eda", "mveda", "mystery") if k != d["kind"]]))
        _corrupt(d, name, keys, new_kind)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh)
        with pytest.raises(ParseError) as info:
            load_model(path)
    assert path in str(info.value)
