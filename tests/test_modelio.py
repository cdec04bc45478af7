"""Model serialization round-trips."""

import json

import numpy as np
import pytest

from edapt import (
    ParseError,
    fit_elm,
    fit_eda,
    fit_mveda,
    load_model,
    map_features,
    new_hidden_map,
    save_model,
)

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
