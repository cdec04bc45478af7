"""Admissible values: every entry point refuses a NaN, an infinity or a
non-integer where an integer is wanted, naming the argument, and no
record can hold a non-finite array, so no saved model can either."""

import json
from dataclasses import replace

import numpy as np
import pytest

from edapt import (
    BenchConfig,
    EdaParams,
    HiddenMap,
    ParameterError,
    augment_noise_view,
    build_knn_graph,
    fit_eda,
    fit_elm,
    fit_mveda,
    fit_sselm,
    new_hidden_map,
    save_model,
)
from edapt.data import SynthShiftSpec, default_class_means, encode_labels
from edapt.multiview import update_alpha
from edapt.preclassify import preclassify_kernel
from edapt.single import update_u

from helpers import blob_bundle, random_prelabels, small_params

BUNDLE = blob_bundle(0)
H = np.random.default_rng(0).uniform(size=(10, 4))
T = encode_labels(np.arange(10) % 3, 3)
GRAPH = build_knn_graph(BUNDLE.source, 2)  # over the 12 source samples
H12 = np.random.default_rng(1).uniform(size=(12, 4))
SPEC = dict(means=default_class_means(), covariances=np.stack([0.16 * np.eye(2)] * 3))

# (entry point, argument named in the refusal, a call with the value)
REALS = [
    *[("EdaParams", name, lambda v, name=name: EdaParams(**{name: v}))
      for name in ("c_source", "c_target", "drift_weight", "fidelity_weight",
                   "manifold_weight", "reweight_eps", "view_exponent")],
    *[("BenchConfig", name, lambda v, name=name: BenchConfig(**{name: v}))
      for name in ("pre_ridge", "scale", "cov_scale", "rotation_deg")],
    ("BenchConfig", "grid values", lambda v: BenchConfig(grid=(1.0, v))),
    *[("SynthShiftSpec", name, lambda v, name=name: SynthShiftSpec(**SPEC, **{name: v}))
      for name in ("rotation_deg", "scale")],
    ("fit_elm", "ridge", lambda v: fit_elm(H, T, v)),
    ("fit_sselm", "ridge", lambda v: fit_sselm(H12, T, v, 1.0, GRAPH)),
    ("fit_sselm", "manifold_weight", lambda v: fit_sselm(H12, T, 1.0, v, GRAPH)),
    ("preclassify_kernel", "ridge", lambda v: preclassify_kernel(BUNDLE, ridge=v)),
    ("update_u", "reweight_eps", lambda v: update_u(H, v)),
    ("update_alpha", "view_exponent", lambda v: update_alpha([1.0, 2.0], v)),
]

INTS = [
    *[("EdaParams", name, lambda v, name=name: EdaParams(**{name: v}))
      for name in ("n_hidden", "max_iter", "n_neighbors", "seed")],
    *[("BenchConfig", name, lambda v, name=name: BenchConfig(**{name: v}))
      for name in ("m", "views", "noise_dim", "n_source", "n_unlabeled", "n_test")],
    ("BenchConfig", "seeds", lambda v: BenchConfig(seeds=(0, v))),
    *[("SynthShiftSpec", name, lambda v, name=name: SynthShiftSpec(**SPEC, **{name: v}))
      for name in ("n_source", "n_labeled_per_class", "n_unlabeled", "n_test", "seed")],
    ("build_knn_graph", "n_neighbors", lambda v: build_knn_graph(BUNDLE.source, v)),
    ("new_hidden_map", "n_hidden", lambda v: new_hidden_map(v, 2)),
    ("new_hidden_map", "n_features", lambda v: new_hidden_map(4, v)),
    ("new_hidden_map", "seed", lambda v: new_hidden_map(4, 2, seed=v)),
    ("augment_noise_view", "n_noise", lambda v: augment_noise_view(BUNDLE, v, 0)),
    ("augment_noise_view", "seed", lambda v: augment_noise_view(BUNDLE, 2, v)),
]

CASES = ([(entry, name, call, v) for entry, name, call in REALS
          for v in (np.nan, np.inf, -np.inf)]
         + [(entry, name, call, v) for entry, name, call in INTS
            for v in (np.nan, np.inf, True, 2.5)])


@pytest.mark.parametrize("entry, name, call, value", CASES,
                         ids=[f"{e}-{n}-{v}" for e, n, _, v in CASES])
def test_every_entry_point_refuses_a_bad_value_naming_the_argument(
        entry, name, call, value):
    # several used to fail later, unnamed (a NaN ridge inside the solve),
    # return NaN silently (a NaN reweight_eps) or raise numpy's TypeError
    # (n_neighbors=2.5)
    with pytest.raises(ParameterError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must be "), str(info.value)


def _nan_at(a, index=0):
    a = np.array(a, dtype=np.float64)
    a.flat[index] = np.nan
    return a


def test_no_record_holds_a_nan_so_no_saved_model_has_a_nan_token(tmp_path):
    # a library-built model with a NaN beta used to be accepted, and
    # save_model wrote a NaN token that load_model then refused
    bundle = blob_bundle(seed=5)
    model = fit_eda(bundle, random_prelabels(bundle, 5), small_params(),
                    new_hidden_map(12, 2, seed=5))
    hm = model.hidden_map
    for field, value, want in [
        ("betas", [_nan_at(model.beta, 4 * 3)], "field 'beta' has non-finite "
                                                 "entries, the first in row 4"),
        ("thetas", [_nan_at(model.theta)], "field 'theta'"),
        ("objective_history", _nan_at(model.objective_history, 1),
         "field 'objective_history' has non-finite entries, the first in round 1"),
        ("alpha_history", _nan_at(model.alpha_history), "field 'alpha_history'"),
    ]:
        with pytest.raises(ParameterError, match=want):
            replace(model, **{field: value})
    for field in ("weights", "biases"):
        with pytest.raises(ParameterError, match=f"field '{field}' has non-finite"):
            HiddenMap(**{"weights": hm.weights, "biases": hm.biases,
                         "activation": hm.activation, "seed": hm.seed,
                         field: _nan_at(getattr(hm, field))})
    two = fit_mveda([bundle, augment_noise_view(bundle, 2, 1)],
                    random_prelabels(bundle, 5), small_params(max_iter=2))
    with pytest.raises(ParameterError, match="view 1: field 'beta' has non-finite"):
        replace(two, betas=[two.betas[0], _nan_at(two.betas[1])])

    def refuse(token):
        raise AssertionError(f"non-standard JSON token {token}")

    for m in (model, two):
        path = save_model(m, str(tmp_path / "m.json"))
        with open(path, encoding="utf-8") as fh:
            json.loads(fh.read(), parse_constant=refuse)
