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


def test_mveda_round_trip_directory_layout(tmp_path):
    b0 = blob_bundle(seed=2)
    from edapt import augment_noise_view
    b1 = augment_noise_view(b0, 2, seed=3)
    params = small_params()
    maps = [new_hidden_map(12, 2, seed=2), new_hidden_map(12, 4, seed=3)]
    pres = [random_prelabels(b0, 2), random_prelabels(b1, 3)]
    model = fit_mveda([b0, b1], pres, params, maps)
    out = tmp_path / "mv"
    save_model(model, str(out))
    assert sorted(p.name for p in out.iterdir()) == [
        "alpha.txt", "mveda.json", "view0.json", "view1.json"]
    back = load_model(str(out))
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
    d = tmp_path / "baddir"
    d.mkdir()
    (d / "mveda.json").write_text(json.dumps({"kind": "elm"}))
    with pytest.raises(ParseError):
        load_model(str(d))
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


def test_mismatched_view_file_names_file_and_field(tmp_path):
    b0 = blob_bundle(seed=6)
    from edapt import augment_noise_view
    b1 = augment_noise_view(b0, 2, seed=7)
    model = fit_mveda([b0, b1], [random_prelabels(b0, 6), random_prelabels(b1, 7)],
                      small_params(), [new_hidden_map(12, 2, seed=6),
                                       new_hidden_map(12, 4, seed=7)])
    out = tmp_path / "mv"
    save_model(model, str(out))
    view1 = out / "view1.json"
    good = view1.read_text()
    for field, cut in [("'beta'", lambda d: d.update(beta=d["beta"][:5], u=d["u"][:3])),
                       ("'u'", lambda d: d.update(u=d["u"][:3])),
                       ("'theta'", lambda d: d.update(theta=[row[:2] for row in
                                                          d["theta"][:2]]))]:
        d = json.loads(good)
        cut(d)
        view1.write_text(json.dumps(d))
        with pytest.raises(ParseError) as info:
            load_model(str(out))
        assert str(view1) in str(info.value) and field in str(info.value)
    view1.write_text(good)
    alpha = out / "alpha.txt"
    alpha.write_text(alpha.read_text().splitlines()[0] + "\n")
    with pytest.raises(ParseError) as info:
        load_model(str(out))
    assert str(alpha) in str(info.value)


def test_inputless_map_and_empty_history_name_file_and_field(tmp_path):
    bundle = blob_bundle(seed=8)
    model = fit_mveda([bundle], [random_prelabels(bundle, 8)], small_params(),
                      [new_hidden_map(12, 2, seed=8)])
    out = tmp_path / "mv"
    save_model(model, str(out))
    view0 = out / "view0.json"
    good = view0.read_text()
    d = json.loads(good)
    d["hidden_map"]["weights"] = [[] for _ in d["u"]]
    view0.write_text(json.dumps(d))
    with pytest.raises(ParseError) as info:
        load_model(str(out))
    assert str(view0) in str(info.value) and "hidden_map: weights" in str(info.value)
    view0.write_text(good)
    head = out / "mveda.json"
    d = json.loads(head.read_text())
    d.update(objective_history=[], alpha_history=[])
    head.write_text(json.dumps(d))
    with pytest.raises(ParseError) as info:
        load_model(str(out))
    assert str(head) in str(info.value) and "'objective_history'" in str(info.value)


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


def _path(tmp: str, model) -> str:
    return os.path.join(tmp, "mv" if isinstance(model, MvEdaModel) else "m.json")


@settings(max_examples=60, deadline=None)
@given(models())
def test_models_round_trip_bit_for_bit(model):
    with tempfile.TemporaryDirectory() as tmp:
        back = load_model(save_model(model, _path(tmp, model)))
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


# array fields of each file kind, and those whose length other fields fix
# (an eda file's objective history may have any non-zero length)
_ARRAYS = {
    "elm": ["beta"],
    "eda": ["beta", "theta", "u", "objective_history"],
    "eda_view": ["beta", "theta", "u"],
    "mveda": ["alpha_history", "objective_history"],
}
_MAP_ARRAYS = ["weights", "biases"]


def _corruptions(d: dict) -> list:
    """(name, key path) pairs applicable to one parsed model file."""
    kind = d["kind"]
    arrays = [(k,) for k in _ARRAYS[kind]]
    if "hidden_map" in d:
        arrays += [("hidden_map", k) for k in _MAP_ARRAYS]
    fixed = [a for a in arrays if a != ("objective_history",) or kind == "mveda"]
    out = [("drop", (k,)) for k in d] + [("drop", ("hidden_map", k))
                                         for k in d.get("hidden_map", {})]
    out += [("nan", a) for a in arrays] + [("truncate", a) for a in fixed]
    out += [("ragged", a) for a in fixed if len(_get(d, a)) > 1
            and isinstance(_get(d, a)[0], list)]
    out += [("kind", ("kind",))]
    if "params" in d:
        out += [("param", ("params",))]
        out += [("nan", ("params", k)) for k, v in d["params"].items()
                if isinstance(v, float)]
    return out


def _get(d, keys):
    for k in keys:
        d = d[k]
    return d


def _corrupt(d: dict, name: str, keys: tuple, new_kind: str) -> None:
    parent, key = _get(d, keys[:-1]), keys[-1]
    if name == "drop":
        del parent[key]
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
        path = save_model(model, _path(tmp, model))
        files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
                 if os.path.isdir(path) else [path])
        target = data.draw(st.sampled_from(files))
        if target.endswith(".txt"):
            lines = open(target, encoding="utf-8").read().splitlines()
            if data.draw(st.booleans()):
                lines = lines[:-1]
            else:
                lines[0] = "nan"
            text = "".join(f"{line}\n" for line in lines)
        else:
            d = json.loads(open(target, encoding="utf-8").read())
            name, keys = data.draw(st.sampled_from(_corruptions(d)))
            new_kind = data.draw(st.sampled_from(
                [k for k in ("elm", "eda", "eda_view", "mveda", "mystery")
                 if k != d["kind"]]))
            _corrupt(d, name, keys, new_kind)
            text = json.dumps(d)
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(ParseError) as info:
            load_model(path)
    assert target in str(info.value)
