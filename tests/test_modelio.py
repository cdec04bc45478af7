"""Model serialization round-trips."""

import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from edapt import (
    BenchConfig,
    EdaModel,
    EdaParams,
    HiddenMap,
    ParameterError,
    ParseError,
    augment_noise_view,
    fit_eda,
    fit_mveda,
    load_model,
    new_hidden_map,
    predict_eda,
    predict_mveda,
    save_model,
    standardize_bundle,
)
from edapt.cli import main
from edapt.data import save_csv
from edapt.features import ACTIVATIONS, Standardizer, fit_standardizer, map_features

from helpers import blob_bundle, random_prelabels, small_params


def _maps_equal(a, b):
    return (np.array_equal(a.weights, b.weights)
            and np.array_equal(a.biases, b.biases)
            and a.activation == b.activation and a.seed == b.seed)


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
    b1 = augment_noise_view(b0, 2, seed=3)
    params = small_params()
    maps = [new_hidden_map(12, 2, seed=2), new_hidden_map(12, 4, seed=3)]
    pres = [random_prelabels(b0, 2), random_prelabels(b1, 3)]
    model = fit_mveda([b0, b1], pres, params, maps)
    path = tmp_path / "mv.json"
    assert save_model(model, str(path)) == str(path)
    assert [p.name for p in tmp_path.iterdir()] == ["mv.json"]
    d = json.loads(path.read_text())
    # the reweighting u and the final view weights are derived, not stored
    assert list(d) == ["kind", "views", "alpha_history", "objective_history", "params"]
    assert d["kind"] == "mveda"
    assert [list(v) for v in d["views"]] == [["hidden_map", "beta", "theta"]] * 2
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


def test_files_with_the_derived_u_and_alpha_keys_still_load(tmp_path):
    # files written before u and alpha were derived carry both keys;
    # new files do not, and loading ignores them, so the old files load
    # and predict as before
    b0 = blob_bundle(seed=3, per_test=3)
    b1 = augment_noise_view(b0, 2, seed=4)
    params, pre = small_params(), random_prelabels(b0, 3)
    eda = fit_eda(b0, pre, params)
    mveda = fit_mveda([b0, b1], pre, params)
    path = tmp_path / "m.json"
    for model in (eda, mveda):
        save_model(model, str(path))
        d = json.loads(path.read_text())
        if model is eda:
            assert "u" not in d
            d["u"] = model.u.tolist()
        else:
            assert "alpha" not in d and all("u" not in v for v in d["views"])
            d["alpha"] = model.alpha.tolist()
            for view, u in zip(d["views"], model.us):
                view["u"] = u.tolist()
        path.write_text(json.dumps(d))
        back = load_model(str(path))
        if model is eda:
            got, want = (predict_eda(m, b0.target_test) for m in (back, model))
        else:
            got, want = (predict_mveda(m, [b0.target_test, b1.target_test])
                         for m in (back, model))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_a_passed_map_overrides_the_params_and_is_what_the_file_keeps(tmp_path):
    # a 20-unit sigmoid map with seed 7 under 24-unit radbas params with seed 0
    bundle = blob_bundle(seed=4, per_test=3)
    params = small_params()
    hm = new_hidden_map(20, 2, activation="sigmoid", seed=7)
    model = fit_eda(bundle, random_prelabels(bundle, 4), params, hm)
    back = load_model(save_model(model, str(tmp_path / "m.json")))
    assert back.params == params and back.params.n_hidden == 24
    assert _maps_equal(back.hidden_map, hm)
    labels, scores = predict_eda(back, bundle.target_test)
    assert np.array_equal(scores, map_features(hm, bundle.target_test, model.beta))
    assert np.array_equal(labels, predict_eda(model, bundle.target_test)[0])


def test_a_standardized_model_predicts_raw_features_after_the_round_trip(tmp_path):
    raw = blob_bundle(seed=4, per_test=3)
    st0 = fit_standardizer(raw.source, raw.target_labeled)
    scaled = standardize_bundle(raw, st0)
    hm = new_hidden_map(12, 2, seed=4)
    model = fit_eda(scaled, random_prelabels(scaled, 4), small_params(), hm)
    model = replace(model, standardizers=[st0])
    path = tmp_path / "m.json"
    back = load_model(save_model(model, str(path)))
    assert list(json.loads(path.read_text())) == [
        "kind", "hidden_map", "beta", "theta", "standardizer",
        "objective_history", "params"]
    want = map_features(hm, scaled.target_test, model.beta)
    assert np.array_equal(predict_eda(back, raw.target_test)[1], want)
    assert np.array_equal(predict_eda(model, raw.target_test)[1], want)


def test_a_one_view_file_in_the_multiview_layout_loads_as_the_one_view_model(
        tmp_path, capsys):
    # `edapt fit --views 1` used to write its model in the multi-view
    # layout; such a file loads as the record of the matching eda file
    raw = blob_bundle(seed=8, per_test=3)
    st0 = fit_standardizer(raw.source, raw.target_labeled)
    scaled = standardize_bundle(raw, st0)
    model = replace(fit_eda(scaled, random_prelabels(scaled, 8), small_params(),
                            new_hidden_map(12, 2, seed=8)), standardizers=[st0])
    eda_path = tmp_path / "eda.json"
    save_model(model, str(eda_path))
    d = json.loads(eda_path.read_text())
    assert d["kind"] == "eda"
    rounds = len(d["objective_history"])
    mv = {"kind": "mveda",
          "views": [{k: d[k] for k in ("hidden_map", "beta", "theta", "standardizer")}],
          "alpha_history": [[1.0]] * rounds,
          "objective_history": d["objective_history"], "params": d["params"]}
    mv_path = tmp_path / "mv.json"
    mv_path.write_text(json.dumps(mv))
    back = load_model(str(mv_path))
    assert back.n_views == 1
    assert np.array_equal(back.alpha_history, np.ones((rounds, 1)))
    # saved again, it is the eda file
    again = save_model(back, str(tmp_path / "again.json"))
    with open(again, "rb") as fh:
        assert fh.read() == eda_path.read_bytes()
    csv = str(tmp_path / "test.csv")
    save_csv(raw.target_test, csv)
    outputs = []
    for path in (eda_path, mv_path):
        out = tmp_path / f"pred_{path.stem}"
        assert main(["predict", str(path), csv, "--out-dir", str(out)]) == 0
        outputs.append([(out / f"predicted_{k}.csv").read_bytes()
                        for k in ("labels", "scores")])
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    # a one-view fit weighs its view by 1 in every round, so a file that
    # says otherwise is refused
    mv["alpha_history"][-1] = [0.5]
    mv_path.write_text(json.dumps(mv))
    with pytest.raises(ParseError) as info:
        load_model(str(mv_path))
    assert str(mv_path) in str(info.value) and "alpha_history" in str(info.value)


def test_predictions_survive_the_round_trip(tmp_path):
    bundle = blob_bundle(seed=4, per_test=3)
    params = small_params()
    model = fit_eda(bundle, random_prelabels(bundle, 4), params,
                    new_hidden_map(12, 2, seed=4))
    back = load_model(save_model(model, str(tmp_path / "m.json")))
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
    (lambda d: d["hidden_map"].update(weights=[[] for _ in d["beta"]]),
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
        (view1(beta=lambda a: a[:5]), "view 1: field 'beta'"),
        (view1(theta=lambda a: [row[:2] for row in a[:2]]), "view 1: field 'theta'"),
        (lambda d: d["views"][1].pop("theta"), "view 1: missing field 'theta'"),
        (lambda d: d["views"].pop(), "alpha_history must have shape (5, 1)"),
        (lambda d: d.update(views=[]), "needs at least one view"),
        (lambda d: d.update(alpha_history=[a[:1] for a in d["alpha_history"]]),
         "alpha_history must have shape (5, 2)"),
    ]:
        _assert_names(path, corrupt, field)


def _standardized(model):
    return replace(model, standardizers=[
        Standardizer(np.zeros(hm.n_features), np.ones(hm.n_features))
        for hm in model.hidden_maps])


def test_a_bad_standardizer_block_names_file_and_field(tmp_path):
    path = _two_view_file(tmp_path)
    save_model(_standardized(load_model(path)), path)

    def view1(**new):
        return lambda d: d["views"][1]["standardizer"].update(new)

    for corrupt, field in [
        (view1(mean=[0.0, float("nan"), 0.0, 0.0]),
         "view 1: standardizer: field 'mean' has non-finite entries"),
        (view1(std=[1.0, 0.0, 1.0, 1.0]),
         "view 1: standardizer: field 'std' has entries <= 0"),
        (lambda d: d["views"][1]["standardizer"].pop("mean"),
         "view 1: standardizer: missing field 'mean'"),
        (view1(mean=[0.0] * 3, std=[1.0] * 3),
         "view 1: field 'standardizer' has 3 features, the hidden map takes 4"),
        (lambda d: d["views"][0].pop("standardizer"),
         "view 0: missing field 'standardizer'"),
    ]:
        _assert_names(path, corrupt, field)

    bundle = blob_bundle(seed=5)
    model = fit_eda(bundle, random_prelabels(bundle, 5), small_params(),
                    new_hidden_map(12, 2, seed=5))
    path = save_model(_standardized(model), str(tmp_path / "m.json"))
    _assert_names(path, lambda d: d["standardizer"].update(mean=[0.0], std=[1.0]),
                  "field 'standardizer' has 1 features, the hidden map takes 2")
    _assert_names(path, lambda d: d["standardizer"].update(std=[1.0]),
                  "standardizer: fields 'mean' and 'std' differ in length: 2 and 1")


def test_inputless_map_and_empty_history_name_file_and_field(tmp_path):
    path = _two_view_file(tmp_path)
    _assert_names(path, lambda d: d["views"][0]["hidden_map"].update(
        weights=[[] for _ in d["views"][0]["beta"]]), "view 0: hidden_map: weights")
    _assert_names(path, lambda d: d.update(objective_history=[], alpha_history=[]),
                  "'objective_history'")


@pytest.mark.parametrize("value", ["abc", 1.5, None])
def test_map_seed_is_checked(tmp_path, value):
    # each of these used to load without complaint
    model = EdaModel([new_hidden_map(4, 2, seed=0)], [np.ones((4, 2))], [np.eye(2)],
                     [[1.0]], [1.0], small_params())
    path = tmp_path / "m.json"
    save_model(model, str(path))
    d = json.loads(path.read_text())
    d["hidden_map"]["seed"] = value
    path.write_text(json.dumps(d))
    with pytest.raises(ParseError) as info:
        load_model(str(path))
    assert (f"{path}: hidden_map: seed must be an integer, got {value!r}"
            in str(info.value))


@pytest.mark.parametrize("key, value", [
    ("seed", "abc"), ("seed", 1.5), ("seed", None), ("n_hidden", 2.5),
    ("max_iter", float("nan")), ("n_neighbors", "5"), ("max_iter", True),
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
    with pytest.raises(ParameterError, match="pre_ridge"):
        BenchConfig(pre_ridge=float("inf"))
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


def _standardizer(draw, hm):
    return Standardizer(_array(draw, hm.n_features),
                        draw(arrays(np.float64, hm.n_features, elements=POSITIVE)))


@st.composite
def models(draw):
    c = draw(st.integers(1, 3))
    rounds = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    maps = [_hidden_map(draw, n) for n in sizes]
    betas = [_array(draw, n, c) for n in sizes]
    thetas = [_array(draw, c, c) for _ in sizes]
    history = _array(draw, rounds)
    params = draw(PARAMS)
    sts = [_standardizer(draw, hm) for hm in maps] if draw(st.booleans()) else None
    # a one-view fit weighs its view by 1 in every round
    alphas = (_array(draw, rounds, len(sizes)) if len(sizes) > 1
              else np.ones((rounds, 1)))
    return EdaModel(maps, betas, thetas, alphas, history, params, sts)


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
    assert back.params == model.params
    assert _same_bits(back.objective_history, model.objective_history)
    assert _same_bits(back.alpha_history, model.alpha_history)
    assert (back.standardizers is None) == (model.standardizers is None)
    none = [None] * model.n_views
    views = zip(back.hidden_maps, back.betas, back.thetas, back.standardizers or none,
                model.hidden_maps, model.betas, model.thetas,
                model.standardizers or none, strict=True)
    for hm, beta, theta, st_, hm0, beta0, theta0, st0 in views:
        assert _same_map(hm, hm0)
        assert _same_bits(beta, beta0) and _same_bits(theta, theta0)
        assert (st_ is None) == (st0 is None)
        if st0 is not None:
            assert _same_bits(st_.mean, st0.mean) and _same_bits(st_.std, st0.std)


# top-level array fields of each kind, of a view block (the top level of
# an eda file), of a hidden map and of a standardizer
_ARRAYS = {
    "eda": ["beta", "theta", "objective_history"],
    "mveda": ["alpha_history", "objective_history"],
}
_VIEW_ARRAYS = ["beta", "theta"]
_MAP_ARRAYS = ["weights", "biases"]
_STANDARDIZER_ARRAYS = ["mean", "std"]


def _corruptions(d: dict) -> list:
    """(name, key path) pairs applicable to one parsed model file; every
    field of every nested block is replaced by junk and, where it is
    numeric, given a NaN, and every field but a parameter (which has a
    default) and a standardizer block (which a fit may lack) is
    dropped."""
    kind = d["kind"]
    views = [("views", i) for i in range(len(d["views"]))] if kind == "mveda" else [()]
    arrays = [(k,) for k in _ARRAYS[kind]]
    arrays += [v + (k,) for v in views if v for k in _VIEW_ARRAYS]
    arrays += [v + ("hidden_map", k) for v in views for k in _MAP_ARRAYS]
    sts = [v + ("standardizer",) for v in views if "standardizer" in _get(d, v)]
    arrays += [b + (k,) for b in sts for k in _STANDARDIZER_ARRAYS]
    # arrays whose length other fields fix (an eda file's objective
    # history may have any non-zero length), and the view list
    fixed = [a for a in arrays if a != ("objective_history",) or kind == "mveda"]
    fixed += [("views",)] if kind == "mveda" else []
    blocks = [()] + [v for v in views if v] + [v + ("hidden_map",) for v in views]
    blocks += sts
    blocks += [("params",)] if "params" in d else []
    keys = [b + (k,) for b in blocks for k in _get(d, b)]
    scalars = [k for k in keys if type(_get(d, k)) in (int, float)]
    out = [("drop", k) for k in keys
           if (k[0] != "params" or len(k) == 1) and k[-1] != "standardizer"]
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
            [k for k in ("eda", "mveda", "mystery") if k != d["kind"]]))
        _corrupt(d, name, keys, new_kind)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh)
        with pytest.raises(ParseError) as info:
            load_model(path)
    assert path in str(info.value)
