"""The normal equations assembled in place: the bits of the full-temporary
formulas they replace, and no n x L product on the way."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from edapt import (
    Dataset,
    build_knn_graph,
    build_problem,
    fit_sselm,
    new_hidden_map,
    preclassify_elm,
    standardize_bundle,
    update_beta,
    update_theta,
)
from edapt import baselines, single
from edapt import graph as graph_module
from edapt.bench import default_config, synth_spec
from edapt.data import concat_features, generate_shift
from edapt.features import map_features
from edapt.linalg import solve_spd
from edapt.single import update_u

from helpers import (
    beta_blocks_reference,
    blob_bundle,
    peak_bytes,
    random_prelabels,
    small_params,
    small_problem,
    sselm_system_reference,
)

# H'LH by column panels against the one full product, relative to its
# largest entry: BLAS may round a narrow product differently, by up to
# 1.1e-15 on measured tall shapes whose L is not a multiple of 8
PANEL_RTOL = 1e-13


def _stock(seed):
    """The stock bench config's single-view problem for one seed, and the
    stacked activations and graph of its ``sselm`` run."""
    config = default_config()
    bundle = standardize_bundle(generate_shift(synth_spec(config, seed)))
    p = config.params
    hm = new_hidden_map(p.n_hidden, bundle.target_dim, p.activation, seed)
    prob, _ = build_problem(bundle, preclassify_elm(bundle, hm, config.pre_ridge), p, hm)
    x_all = Dataset(concat_features(bundle.source, bundle.target_labeled,
                                    bundle.target_unlabeled))
    t = np.vstack([prob.t_source, prob.t_labeled])
    return prob, p, (map_features(hm, x_all), t, build_knn_graph(x_all, p.n_neighbors))


def _sselm_system(h_all, t, ridge, manifold_weight, graph):
    """``fit_sselm``'s solution and the system it handed ``solve_spd``."""
    seen = []

    def capture(a, b, **kwargs):
        seen.append((a.copy(), b.copy()))
        return solve_spd(a, b, **kwargs)

    with mock.patch.object(baselines, "solve_spd", side_effect=capture):
        beta = fit_sselm(h_all, t, ridge, manifold_weight, graph)
    return beta, seen[0]


def test_beta_blocks_and_sselm_equal_their_references_on_the_stock_problems():
    problems = [small_problem(seed) for seed in (0, 1)]
    for seed in (0, 1):
        prob, params, (h_all, t, graph) = _stock(seed)
        problems.append((prob, params))
        beta, (a, rhs) = _sselm_system(h_all, t, 10.0, params.manifold_weight, graph)
        a_ref, rhs_ref = sselm_system_reference(h_all, t, 10.0,
                                                params.manifold_weight, graph)
        assert np.array_equal(a, a_ref) and np.array_equal(rhs, rhs_ref)
        assert np.array_equal(beta, solve_spd(a_ref, rhs_ref))
    for prob, params in problems:
        for got, want in zip(single._beta_blocks(prob, params),
                             beta_blocks_reference(prob, params)):
            assert np.array_equal(got, want)


@st.composite
def panelled_problems(draw):
    """A problem whose L sits below, at, or off a multiple of a panel
    width of 8 to 24 columns, with or without unlabeled rows."""
    w = draw(st.sampled_from([8, 16, 24]))
    n_hidden = {"below": draw(st.integers(1, w - 1)), "equal": w,
                "multiple": w * draw(st.integers(2, 4)),
                "ragged": w * draw(st.integers(1, 3)) + draw(st.integers(1, w - 1)),
                }[draw(st.sampled_from(["below", "equal", "multiple", "ragged"]))]
    seed = draw(st.integers(0, 10_000))
    bundle = blob_bundle(seed, c=draw(st.integers(2, 3)),
                         per_source=draw(st.integers(1, 8)),
                         per_labeled=draw(st.integers(1, 4)),
                         per_unlabeled=draw(st.sampled_from([0, 0, 3, 9])))
    params = small_params(n_hidden=n_hidden, n_neighbors=1,
                          manifold_weight=draw(st.sampled_from([0.0, 0.3, 7.0])))
    prob, _ = build_problem(bundle, random_prelabels(bundle, seed), params)
    return prob, params, w


@settings(max_examples=60, deadline=None)
@given(panelled_problems())
def test_panelled_assembly_stays_within_the_pinned_tolerance(case):
    prob, params, w = case
    n = prob.h_target.shape[0]
    with mock.patch.object(graph_module, "_PANEL_ENTRIES", w * n):
        assert graph_module._panel_width(n) == w
        g_loss, g_smooth, rhs = single._beta_blocks(prob, params)
        beta, (a, _) = _sselm_system(prob.h_target, prob.t_labeled, 3.0,
                                     params.manifold_weight, prob.graph)
    g_loss_ref, g_smooth_ref, rhs_ref = beta_blocks_reference(prob, params)
    assert np.array_equal(g_smooth, g_smooth.T)
    # only the smoothness Gram goes through panels
    assert np.array_equal(g_loss, g_loss_ref) and np.array_equal(rhs, rhs_ref)
    assert np.abs(g_smooth - g_smooth_ref).max() <= (
        PANEL_RTOL * np.abs(g_smooth_ref).max())
    a_ref, _ = sselm_system_reference(prob.h_target, prob.t_labeled, 3.0,
                                      params.manifold_weight, prob.graph)
    assert np.abs(a - a_ref).max() <= PANEL_RTOL * np.abs(a_ref).max()
    assert np.isfinite(beta).all()


def test_laplacian_gram_is_symmetric_and_its_lower_triangle_is_the_full_product():
    # one panel (L = 200, and a ragged 203 below the panel width), and L
    # a multiple of 8 over many panels: 13 of width 80 at the tall fit's
    # 3009 target rows
    for n, width in ((209, 200), (309, 203), (1009, 1000), (3009, 1000)):
        rng = np.random.default_rng(n)
        x = Dataset(rng.standard_normal((2, n)))
        h = map_features(new_hidden_map(width, 2, seed=n), x)
        graph = build_knn_graph(x, 5)
        got = graph_module.laplacian_gram(graph, h)
        lower = np.tril_indices(width)
        assert np.array_equal(got, got.T)
        assert np.array_equal(got[lower],
                              (h.T @ (graph.sparse_laplacian @ h))[lower])


def test_beta_blocks_form_no_n_by_l_product():
    # n_t = 3 x (3 + 664) = 2001 target rows and L = 300: the old formula's
    # n_t x L product L H and scipy's copy of its operand take 9.6 MB
    bundle = blob_bundle(0, per_source=20, per_labeled=3, per_unlabeled=664)
    params = small_params(n_hidden=300)
    prob, _ = build_problem(bundle, random_prelabels(bundle), params)
    n, width = prob.h_target.shape
    w = graph_module._panel_width(n)
    # three L x L blocks, then one panel: L H's, its operand copy, h.T @ it
    bound = 8 * (3 * width * width + 2 * n * w + width * w) + (64 << 10)
    assert peak_bytes(single._beta_blocks, prob, params) <= bound
    assert peak_bytes(beta_blocks_reference, prob, params) > bound


def test_one_view_loop_sums_its_grams_without_changing_a_bit():
    # the one-view loop adds H'LH into the loss Gram once; update_beta
    # scales and adds both blocks every call, at unit weight
    for prob, params in (small_problem(2, max_iter=3), _stock(0)[:2]):
        (beta,), (theta,), _, history = single._alternate([prob], params)
        u_ref, theta_ref = np.ones(prob.n_hidden), np.eye(prob.n_classes)
        for _ in history:
            beta_ref = update_beta(u_ref, theta_ref, prob, params)
            theta_ref = update_theta(beta_ref, prob, params)
            u_ref = update_u(beta_ref, params.reweight_eps)
        assert np.array_equal(beta, beta_ref)
        assert np.array_equal(theta, theta_ref)
