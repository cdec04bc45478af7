"""End-to-end runs of the command line, in process and as ``python -m edapt``."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from edapt import (
    Dataset,
    ParameterError,
    ParseError,
    build_knn_graph,
    load_model,
    new_hidden_map,
    preclassify_elm,
    predict_eda,
    predict_mveda,
    run_benchmark,
    standardize_bundle,
)
from edapt.bench import load_config, synth_spec
from edapt.cli import main
from edapt.data import (generate_shift, load_bundle, load_csv, load_multiview_bundles,
                        save_csv)
from edapt.features import fit_standardizer
from edapt.preclassify import BUILTINS

TINY_CFG = """\
seeds = 0
methods = elm_s,eda
grid = 1.0,10.0
n_source = 30
n_unlabeled = 12
n_test = 12
m = 2
n_hidden = 20
max_iter = 2
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CFG)
    return str(p)


def _synth(tmp_path, cfg_path, capsys, *extra):
    out = tmp_path / "data"
    rc = main(["synth", "--seed", "0", "--config", cfg_path,
               "--out-dir", str(out), *extra])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    return str(out), lines


def test_synth_writes_manifest_and_truth(tmp_path, cfg_path, capsys):
    out, lines = _synth(tmp_path, cfg_path, capsys)
    manifest, truth = lines
    assert manifest.endswith("manifest.txt")
    assert truth.endswith("unlabeled_truth_labels.csv")
    with open(truth) as fh:
        labels = [int(x) for x in fh.read().split()]
    assert len(labels) == 12 and set(labels) <= {0, 1, 2}
    # regenerating with the same seed reproduces the files byte for byte
    out2 = tmp_path / "data2"
    main(["synth", "--seed", "0", "--config", cfg_path, "--out-dir", str(out2)])
    capsys.readouterr()
    a = (tmp_path / "data" / "source_features.csv").read_bytes()
    b = (out2 / "source_features.csv").read_bytes()
    assert a == b


def test_fit_then_predict_round_trip(tmp_path, cfg_path, capsys):
    data, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    run = tmp_path / "run"
    rc = main(["fit", manifest, "--config", cfg_path, "--out-dir", str(run)])
    assert rc == 0
    fit_out = capsys.readouterr().out
    assert "objective: " in fit_out
    assert sorted(p.name for p in run.iterdir()) == [
        "model.json", "unlabeled_labels.csv", "unlabeled_scores.csv"]
    assert (run / "unlabeled_scores.csv").exists()

    test_csv = f"{data}/target_test_features.csv"
    pred = tmp_path / "pred"
    rc = main(["predict", str(run / "model.json"), test_csv,
               "--out-dir", str(pred)])
    assert rc == 0
    capsys.readouterr()
    # the model carries its standardizer and applies it to the raw CSV
    model = load_model(str(run / "model.json"))
    assert model.standardizer is not None
    want_labels, want_scores = predict_eda(model, load_csv(test_csv))
    got_scores = load_csv(str(pred / "predicted_scores.csv")).features.T
    with open(pred / "predicted_labels.csv") as fh:
        got_labels = np.array([int(x) for x in fh.read().split()])
    assert np.array_equal(got_scores, want_scores)
    assert np.array_equal(got_labels, want_labels)


def test_predict_detransform_changes_scores(tmp_path, cfg_path, capsys):
    data, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    run = tmp_path / "run"
    main(["fit", manifest, "--config", cfg_path, "--out-dir", str(run)])
    capsys.readouterr()
    test_csv = f"{data}/target_test_features.csv"
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    main(["predict", str(run / "model.json"), test_csv, "--out-dir", str(a_dir)])
    main(["predict", str(run / "model.json"), test_csv, "--detransform",
          "--out-dir", str(b_dir)])
    capsys.readouterr()
    plain = load_csv(str(a_dir / "predicted_scores.csv")).features
    undone = load_csv(str(b_dir / "predicted_scores.csv")).features
    assert not np.array_equal(plain, undone)


def test_multiview_fit_and_predict(tmp_path, cfg_path, capsys):
    data, (manifest, _) = _synth(tmp_path, cfg_path, capsys, "--views", "2")
    run = tmp_path / "run"
    rc = main(["fit", manifest, "--config", cfg_path, "--out-dir", str(run)])
    assert rc == 0
    fit_out = capsys.readouterr().out
    assert "view weights: " in fit_out
    model = load_model(str(run / "model.json"))
    assert model.n_views == 2 and len(model.standardizers) == 2
    assert not list(run.glob("standardizer*"))

    pred = tmp_path / "pred"
    csvs = [f"{data}/view{v}_target_test_features.csv" for v in range(2)]
    rc = main(["predict", str(run / "model.json"), *csvs, "--out-dir", str(pred)])
    assert rc == 0
    capsys.readouterr()
    _, want, _ = predict_mveda(model, [load_csv(p) for p in csvs])
    assert np.array_equal(load_csv(str(pred / "predicted_scores.csv")).features.T, want)
    # one CSV for a two-view model is a usage error
    rc = main(["predict", str(run / "model.json"),
               f"{data}/view0_target_test_features.csv",
               "--out-dir", str(pred)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_views_flag_counts_a_plain_manifest_as_one_view(tmp_path, cfg_path, capsys):
    _, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    run = tmp_path / "run"
    assert main(["fit", manifest, "--config", cfg_path, "--views", "2",
                 "--out-dir", str(run)]) == 2
    assert "--views 2 out of range; manifest has 1" in capsys.readouterr().err


def test_fit_help_names_every_builtin_prelabel(capsys):
    with pytest.raises(SystemExit):
        main(["fit", "--help"])
    assert f"builtin ({'|'.join(BUILTINS)})" in capsys.readouterr().out


def test_views_flag_limits_a_multiview_manifest(tmp_path, cfg_path, capsys):
    data, (manifest, _) = _synth(tmp_path, cfg_path, capsys, "--views", "2")
    run = tmp_path / "run"
    rc = main(["fit", manifest, "--config", cfg_path, "--views", "1",
               "--out-dir", str(run)])
    assert rc == 0
    capsys.readouterr()
    assert load_model(str(run / "model.json")).n_views == 1
    rc = main(["fit", manifest, "--config", cfg_path, "--views", "5",
               "--out-dir", str(run)])
    assert rc == 2
    capsys.readouterr()


def test_first_view_of_a_multiview_manifest_fits_as_the_single_view_manifest(
        tmp_path, cfg_path, capsys):
    # view 0 of a multi-view manifest is the single-view bundle of the same
    # seed, and its map is drawn from the same seed; --views 1 leaves one
    # view, so --detransform applies as it does to the single-view manifest
    _, (one, _) = _synth(tmp_path / "one", cfg_path, capsys)
    _, (two, _) = _synth(tmp_path / "two", cfg_path, capsys, "--views", "2")
    scores = []
    for extra in ([], ["--detransform"]):
        outputs = []
        for manifest, views in ((one, []), (two, ["--views", "1"])):
            run = tmp_path / f"run{len(os.listdir(tmp_path))}"
            assert main(["fit", manifest, "--config", cfg_path, "--seed", "3",
                         "--out-dir", str(run), *views, *extra]) == 0
            # the printed lines other than the paths: no view weights for
            # a one-view fit, and the same objective
            printed = [ln for ln in capsys.readouterr().out.splitlines()
                       if not ln.startswith(str(run))]
            outputs.append((printed, *((run / name).read_bytes() for name in (
                "unlabeled_labels.csv", "unlabeled_scores.csv", "model.json"))))
        assert len(outputs[0][0]) == 1 and outputs[0][0][0].startswith("objective: ")
        assert outputs[0] == outputs[1]
        scores.append(outputs[0][2])
    assert scores[0] != scores[1]  # the drift was undone


def test_three_views_are_made_and_mapped_by_the_one_view_recipe(tmp_path, cfg_path,
                                                               capsys):
    # synth makes view v with the config's noise-view helper, and fit
    # draws view v's map with params.view_map(dim, v), for every view
    out, run = tmp_path / "data", tmp_path / "run"
    assert main(["synth", "--seed", "3", "--views", "3", "--config", cfg_path,
                 "--out-dir", str(out)]) == 0
    manifest = capsys.readouterr().out.splitlines()[0]
    assert main(["fit", manifest, "--seed", "3", "--config", cfg_path,
                 "--out-dir", str(run)]) == 0
    capsys.readouterr()
    config = load_config(cfg_path)
    base = generate_shift(synth_spec(config, 3))
    views = load_multiview_bundles(manifest)
    assert len(views) == 3
    for v, view in enumerate(views):
        want = config.view_bundle(base, 3, v)
        for part in ("source", "target_labeled", "target_unlabeled", "target_test"):
            got, expected = getattr(view, part), getattr(want, part)
            assert np.array_equal(got.features, expected.features)
            assert (got.labels is None and expected.labels is None) or np.array_equal(
                got.labels, expected.labels)
    params = replace(config.params, seed=3)
    model = load_model(str(run / "model.json"))
    assert model.n_views == 3
    for v, (hm, view) in enumerate(zip(model.hidden_maps, views)):
        want = params.view_map(view.target_dim, v)
        assert np.array_equal(hm.weights, want.weights)
        assert np.array_equal(hm.biases, want.biases)
        assert (hm.activation, hm.seed) == (want.activation, want.seed)


def test_fit_rejects_detransform_on_a_multiview_manifest(tmp_path, cfg_path, capsys):
    _, (manifest, _) = _synth(tmp_path, cfg_path, capsys, "--views", "2")
    run = tmp_path / "run"
    for extra in ([], ["--views", "2"]):
        rc = main(["fit", manifest, "--config", cfg_path, "--detransform",
                   "--out-dir", str(run), *extra])
        assert rc == 2
        assert "--detransform applies to single-view fits" in capsys.readouterr().err
        assert not run.exists()


def _scores(path) -> np.ndarray:
    return load_csv(str(path)).features.T


def test_refit_without_standardize_predicts_with_the_refitted_model(tmp_path, cfg_path,
                                                                   capsys):
    # a standardized fit used to leave standardizer.txt behind, and `predict`
    # rescaled the inputs of an unstandardized refit in the same directory
    data, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    run = tmp_path / "run"
    assert main(["fit", manifest, "--config", cfg_path, "--out-dir", str(run)]) == 0
    raw_cfg = tmp_path / "raw.cfg"
    raw_cfg.write_text(TINY_CFG + "standardize = false\n")
    assert main(["fit", manifest, "--config", str(raw_cfg), "--out-dir", str(run)]) == 0
    test_csv = f"{data}/target_test_features.csv"
    assert main(["predict", str(run / "model.json"), test_csv,
                 "--out-dir", str(tmp_path / "pred")]) == 0
    capsys.readouterr()
    model = load_model(str(run / "model.json"))
    assert model.standardizer is None
    _, want = predict_eda(model, load_csv(test_csv))
    assert np.array_equal(_scores(tmp_path / "pred" / "predicted_scores.csv"), want)


def test_predict_refuses_a_standardizer_file_beside_a_model_without_one(
        tmp_path, cfg_path, capsys):
    # a run directory from before models carried their standardizer
    raw_cfg = tmp_path / "raw.cfg"
    raw_cfg.write_text(TINY_CFG + "standardize = false\n")
    for views, name in [("1", "standardizer.txt"), ("2", "standardizer_view1.txt")]:
        data, (manifest, _) = _synth(tmp_path / views, cfg_path, capsys,
                                     "--views", views)
        run = tmp_path / views / "run"
        assert main(["fit", manifest, "--config", str(raw_cfg),
                     "--out-dir", str(run)]) == 0
        (run / name).write_text("0.0,0.0\n1.0,1.0\n")
        csvs = ([f"{data}/target_test_features.csv"] if views == "1" else
                [f"{data}/view{v}_target_test_features.csv" for v in range(2)])
        capsys.readouterr()
        assert main(["predict", str(run / "model.json"), *csvs,
                     "--out-dir", str(tmp_path / "pred")]) == 2
        assert f"{run / name}: standardizer file beside" in capsys.readouterr().err

    # beside a model that carries its standardizer, such a file is not read
    run = tmp_path / "scaled"
    assert main(["fit", manifest, "--config", cfg_path, "--out-dir", str(run)]) == 0
    model = load_model(str(run / "model.json"))
    (run / "standardizer_view0.txt").write_text("0.0,0.0\n1.0,1.0\n")
    assert main(["predict", str(run / "model.json"), *csvs,
                 "--out-dir", str(tmp_path / "pred")]) == 0
    capsys.readouterr()
    _, want, _ = predict_mveda(model, [load_csv(p) for p in csvs])
    assert np.array_equal(_scores(tmp_path / "pred" / "predicted_scores.csv"), want)


def test_bench_prints_every_report_path(tmp_path, cfg_path, capsys):
    cfg = tmp_path / "mv.cfg"
    cfg.write_text(TINY_CFG.replace("methods = elm_s,eda", "methods = eda,mveda"))
    reports = tmp_path / "reports"
    assert main(["bench", "--config", str(cfg), "--out-dir", str(reports)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [os.path.basename(p).rsplit("_", 1)[0] for p in lines] == [
        "results", "per_seed", "convergence", "view_weights", "timing", "table",
        "config"]
    assert sorted(lines) == sorted(str(p) for p in reports.iterdir())


def test_bench_and_sweep_commands(tmp_path, cfg_path, capsys):
    reports = tmp_path / "reports"
    rc = main(["bench", "--config", cfg_path, "--out-dir", str(reports)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    for p in lines:
        assert p.startswith(str(reports))
    rc = main(["sweep", "--config", cfg_path, "--out-dir", str(reports)])
    assert rc == 0
    sweep_path = capsys.readouterr().out.strip()
    assert "sweep_" in sweep_path
    with open(sweep_path) as fh:
        assert "c_source,c_target,mean,std" in fh.read()


def test_bench_rejects_a_repeated_grid_value(tmp_path, capsys):
    cfg = tmp_path / "repeated.cfg"
    cfg.write_text(TINY_CFG.replace("grid = 1.0,10.0", "grid = 1,10,1"))
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "repeated [1.0]" in capsys.readouterr().err


def _edit_model(path, edit) -> None:
    d = json.loads(path.read_text())
    edit(d)
    path.write_text(json.dumps(d))


def test_predict_rejects_a_malformed_standardizer(tmp_path, cfg_path, capsys):
    data, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    model = tmp_path / "run" / "model.json"
    for edit, want in [
        (lambda st: st.update(std=[0.0 for _ in st["std"]]),
         "standardizer: field 'std' has entries <= 0"),
        (lambda st: st["mean"].__setitem__(0, float("nan")),
         "standardizer: field 'mean' has non-finite entries"),
        (lambda st: st.pop("mean"), "standardizer: missing field 'mean'"),
    ]:
        assert main(["fit", manifest, "--config", cfg_path,
                     "--out-dir", str(model.parent)]) == 0
        capsys.readouterr()
        _edit_model(model, lambda d: edit(d["standardizer"]))
        rc = main(["predict", str(model), f"{data}/target_test_features.csv",
                   "--out-dir", str(tmp_path / "pred")])
        assert rc == 2
        assert f"{model}: {want}" in capsys.readouterr().err


def _one_feature_too_many(src: str, dst) -> str:
    x = load_csv(src).features
    save_csv(Dataset(np.vstack([x, x[:1]])), str(dst))
    return str(dst)


def test_predict_rejects_a_standardizer_of_the_wrong_length(tmp_path, cfg_path,
                                                           capsys):
    data, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    run = tmp_path / "run"
    assert main(["fit", manifest, "--config", cfg_path, "--out-dir", str(run)]) == 0
    capsys.readouterr()
    _edit_model(run / "model.json", lambda d: d["standardizer"].update(
        mean=[0.0] * 3, std=[1.0] * 3))
    rc = main(["predict", str(run / "model.json"), f"{data}/target_test_features.csv",
               "--out-dir", str(tmp_path / "pred")])
    assert rc == 2
    assert (f"{run / 'model.json'}: field 'standardizer' has 3 features, "
            "the hidden map takes 2") in capsys.readouterr().err

    mv_data, (mv_manifest, _) = _synth(tmp_path / "mv", cfg_path, capsys, "--views", "2")
    mv_run = tmp_path / "mv_run"
    assert main(["fit", mv_manifest, "--config", cfg_path,
                 "--out-dir", str(mv_run)]) == 0
    capsys.readouterr()
    _edit_model(mv_run / "model.json", lambda d: d["views"][1]["standardizer"].update(
        mean=[0.0] * 5, std=[1.0] * 5))
    rc = main(["predict", str(mv_run / "model.json"),
               f"{mv_data}/view0_target_test_features.csv",
               f"{mv_data}/view1_target_test_features.csv",
               "--out-dir", str(tmp_path / "mv_pred")])
    assert rc == 2
    assert (f"{mv_run / 'model.json'}: view 1: field 'standardizer' has 5 features, "
            "the hidden map takes 4") in capsys.readouterr().err


def test_predict_names_a_csv_of_the_wrong_width(tmp_path, cfg_path, capsys):
    data, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    run = tmp_path / "run"
    assert main(["fit", manifest, "--config", cfg_path, "--out-dir", str(run)]) == 0
    capsys.readouterr()
    wide = _one_feature_too_many(f"{data}/target_test_features.csv",
                                 tmp_path / "wide.csv")
    rc = main(["predict", str(run / "model.json"), wide,
               "--out-dir", str(tmp_path / "pred")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{wide}: the input has 3 features, the model's hidden map takes 2" in err

    mv_data, (mv_manifest, _) = _synth(tmp_path / "mv", cfg_path, capsys, "--views", "2")
    mv_run = tmp_path / "mv_run"
    assert main(["fit", mv_manifest, "--config", cfg_path,
                 "--out-dir", str(mv_run)]) == 0
    capsys.readouterr()
    wide = _one_feature_too_many(f"{mv_data}/view1_target_test_features.csv",
                                 tmp_path / "wide_view1.csv")
    rc = main(["predict", str(mv_run / "model.json"),
               f"{mv_data}/view0_target_test_features.csv", wide,
               "--out-dir", str(tmp_path / "mv_pred")])
    assert rc == 2
    err = capsys.readouterr().err
    assert (f"{wide} (view 1): the input has 5 features, "
            "the model's hidden map takes 4") in err


def test_predict_rejects_a_model_whose_shapes_disagree(tmp_path, cfg_path, capsys):
    mv_data, (mv_manifest, _) = _synth(tmp_path / "mv", cfg_path, capsys, "--views", "2")
    mv_run = tmp_path / "mv_run"
    assert main(["fit", mv_manifest, "--config", cfg_path,
                 "--out-dir", str(mv_run)]) == 0
    capsys.readouterr()
    model = mv_run / "model.json"
    d = json.loads(model.read_text())
    d["views"][1].update(beta=d["views"][1]["beta"][:5])
    model.write_text(json.dumps(d))
    rc = main(["predict", str(mv_run / "model.json"),
               f"{mv_data}/view0_target_test_features.csv",
               f"{mv_data}/view1_target_test_features.csv",
               "--out-dir", str(tmp_path / "mv_pred")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{model}: view 1: field 'beta'" in err


@pytest.mark.parametrize("views", ["0", "-1"])
def test_synth_refuses_fewer_than_one_view(tmp_path, cfg_path, capsys, views):
    out = tmp_path / "data"
    assert main(["synth", "--config", cfg_path, "--out-dir", str(out),
                 "--views", views]) == 2
    assert f"--views must be >= 1, got {views}" in capsys.readouterr().err
    assert not out.exists()


def test_predict_checks_the_csv_count_before_loading_any(tmp_path, cfg_path, capsys):
    # none of these CSVs exists, so only a check made before loading passes
    missing = [str(tmp_path / f"missing{i}.csv") for i in range(3)]
    for views, given in (("1", 2), ("2", 1), ("2", 3)):
        _, (manifest, _) = _synth(tmp_path / views, cfg_path, capsys, "--views", views)
        run = tmp_path / views / "run"
        assert main(["fit", manifest, "--config", cfg_path, "--out-dir", str(run)]) == 0
        capsys.readouterr()
        model = run / "model.json"
        assert main(["predict", str(model), *missing[:given],
                     "--out-dir", str(tmp_path / "pred")]) == 2
        assert (f"{model}: {views} view(s), one feature CSV per view, "
                f"got {given} CSV(s)") in capsys.readouterr().err


def test_errors_exit_with_code_2(tmp_path, cfg_path, capsys):
    assert main(["fit", str(tmp_path / "missing.txt"),
                 "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery_key = 1\n")
    assert main(["bench", "--config", str(bad),
                 "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()
    # a model file without its drift matrix
    model = tmp_path / "model.json"
    model.write_text('{"kind": "eda", "beta": [[1.0]], "hidden_map": {'
                     '"weights": [[1.0]], "biases": [0.0], "activation": "radbas",'
                     ' "seed": 0}}')
    assert main(["predict", str(model), str(tmp_path / "x.csv"),
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(model) in err and "'theta'" in err


def test_fit_reads_prelabels_from_a_csv(tmp_path, cfg_path, capsys):
    _, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    assert main(["fit", manifest, "--config", cfg_path, "--prelabels", "elm",
                 "--out-dir", str(tmp_path / "elm")]) == 0
    # the builtin elm scores as `fit` computes them, written with repr floats
    config = load_config(cfg_path)
    p = config.params
    bundle = load_bundle(manifest)
    bundle = standardize_bundle(bundle, fit_standardizer(bundle.source,
                                                         bundle.target_labeled))
    hm = new_hidden_map(p.n_hidden, bundle.target_dim, p.activation, p.seed)
    phi = preclassify_elm(bundle, hm, config.pre_ridge)
    csv = tmp_path / "phi.csv"
    csv.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in phi))
    assert main(["fit", manifest, "--config", cfg_path, "--prelabels", str(csv),
                 "--out-dir", str(tmp_path / "csv")]) == 0
    capsys.readouterr()
    assert ((tmp_path / "csv" / "model.json").read_bytes()
            == (tmp_path / "elm" / "model.json").read_bytes())


def _edit(path, pattern, repl):
    with open(path) as fh:
        text = fh.read()
    new = re.sub(pattern, repl, text, flags=re.M)
    assert new != text
    with open(path, "w") as fh:
        fh.write(new)


def _fit_error(manifest, cfg_path, tmp_path, capsys, *extra):
    rc = main(["fit", manifest, "--config", cfg_path,
               "--out-dir", str(tmp_path / "run"), *extra])
    err = capsys.readouterr().err
    assert rc == 2, err
    return err


def test_fit_rejects_a_misspelled_manifest_key(tmp_path, cfg_path, capsys):
    # it used to fit without the unlabeled split
    _, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    _edit(manifest, r"^target_unlabeled_features ", "target_unlabled_features ")
    err = _fit_error(manifest, cfg_path, tmp_path, capsys)
    assert f"{manifest}: unknown key 'target_unlabled_features'" in err


def test_fit_rejects_a_multiview_manifest_with_a_renamed_view(tmp_path, cfg_path,
                                                              capsys):
    # it used to fit view 0 alone
    _, (manifest, _) = _synth(tmp_path, cfg_path, capsys, "--views", "3")
    _edit(manifest, r"^view1_", "viewB_")
    err = _fit_error(manifest, cfg_path, tmp_path, capsys)
    assert f"{manifest}: unknown key 'viewB_source_features'" in err


@pytest.mark.parametrize("case", ["classes", "missing_key", "nan_feature",
                                  "label_range", "prelabel_shape"])
def test_fit_input_errors_name_the_file_and_key(tmp_path, cfg_path, capsys, case):
    data, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    extra = []
    if case == "classes":
        _edit(manifest, r"^classes = .*$", "classes = x")
        want = [manifest, "'classes'", "'x'"]
    elif case == "missing_key":
        _edit(manifest, r"^source_labels = .*\n", "")
        want = [f"{manifest}: missing key 'source_labels'"]
    elif case == "nan_feature":
        _edit(f"{data}/source_features.csv", r"\A(.*\n)[^,\n]*", r"\1nan")
        want = [manifest, "split 'source'", f"{data}/source_features.csv:2",
                "non-finite value nan"]
    elif case == "label_range":
        _edit(f"{data}/source_labels.csv", r"\A\d+", "7")
        want = [manifest, "split 'source'", f"{data}/source_labels.csv",
                "label 7 at index 0 outside [0, 3)"]
    else:
        phi = tmp_path / "phi.csv"
        phi.write_text("1.0,2.0\n3.0,4.0\n")
        extra = ["--prelabels", str(phi)]
        want = [str(phi), "(12, 3)", "(2, 2)"]
    err = _fit_error(manifest, cfg_path, tmp_path, capsys, *extra)
    assert all(w in err for w in want), err


def test_config_value_errors_name_the_file_and_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seeds = 0\nm = abc\n")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: key 'm': cannot parse 'abc' as int" in err


def test_config_rejects_a_repeated_key(tmp_path, capsys):
    # it used to run with the last value
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("seeds = 0\nmethods = elm_s\nseeds = 1\n")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert f"{cfg}:3: key 'seeds' given twice" in capsys.readouterr().err


@pytest.mark.parametrize("line, want", [
    ("means = 1,2;3", "means must be two or more rows of equal, non-zero length, "
                      "got row lengths [2, 1]"),
    ("translation = 1,2,3", "translation must be 2 finite values"),
    ("cov_scale = 0", "cov_scale must be positive and finite, got 0.0"),
    # one means column under the default 30 degree rotation
    pytest.param("means = 0; 1\ntranslation = 2",
                 "rotation_deg must be 0 with one means column, got 30.0",
                 id="rotation_deg-one-column"),
])
def test_config_geometry_errors_name_the_file_and_key(tmp_path, capsys, line, want):
    # they used to pass load_config and fail inside run_benchmark unnamed
    cfg = tmp_path / "geometry.cfg"
    cfg.write_text(f"seeds = 0\nmethods = elm_s\n{line}\n")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert f"{cfg}: {want}" in capsys.readouterr().err


def test_a_bench_without_test_rows_is_refused_naming_the_file_and_key(
        tmp_path, capsys):
    # synth and fit take n_test = 0; bench and sweep used to exit 2 with
    # "benchmarking needs a labeled target_test split", unnamed
    cfg = tmp_path / "no_test.cfg"
    cfg.write_text(TINY_CFG.replace("n_test = 12", "n_test = 0"))
    for cmd in ("bench", "sweep"):
        assert main([cmd, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: key 'n_test': " in err and "got 0" in err
    data = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(data)]) == 0
    capsys.readouterr()
    assert main(["fit", str(data / "manifest.txt"), "--config", str(cfg),
                 "--out-dir", str(tmp_path / "run")]) == 0


def test_a_manifest_bench_without_test_rows_is_refused_naming_the_key_and_manifest(
        tmp_path, capsys):
    # the bench resplits target_labeled plus target_test; a manifest
    # without target_test used to exit 2 with "resplitting needs a
    # labeled target_test pool", naming neither the key nor the manifest
    cfg = tmp_path / "no_test.cfg"
    cfg.write_text(TINY_CFG.replace("n_test = 12", "n_test = 0"))
    data = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(data)]) == 0
    capsys.readouterr()
    manifest = data / "manifest.txt"
    bench_cfg = tmp_path / "bench.cfg"
    bench_cfg.write_text(f"{TINY_CFG}data = {manifest}\n")
    for cmd in ("bench", "sweep"):
        assert main([cmd, "--config", str(bench_cfg),
                     "--out-dir", str(tmp_path / "reports")]) == 2
        assert (f"key 'data': {manifest} has no labeled target_test split"
                in capsys.readouterr().err)
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("line, want", [
    ("grid = 1,nan", "grid values must be positive and finite, got (1.0, nan)"),
    ("pre_ridge = 0", "pre_ridge must be positive and finite, got 0.0"),
    ("scale = 0", "scale must be positive and finite, got 0.0"),
    ("rotation_deg = nan", "rotation_deg must be finite, got nan"),
    ("n_source = 0", "n_source must be >= 1, got 0"),
    ("n_unlabeled = -1", "n_unlabeled must be >= 0, got -1"),
    ("n_test = -1", "n_test must be >= 0, got -1"),
    ("c_source = inf", "c_source must be finite and >= 0, got inf"),
    ("noise_dim = 0", "noise_dim must be >= 1, got 0"),
])
def test_config_values_that_fail_mid_run_name_the_file_and_key(tmp_path, capsys,
                                                               line, want):
    # each used to pass load_config and fail inside the run, without the file
    cfg = tmp_path / "values.cfg"
    cfg.write_text(f"seeds = 0\nmethods = elm_s,eda\nn_hidden = 20\n{line}\n")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert f"{cfg}: {want}" in capsys.readouterr().err


@pytest.mark.parametrize("text, want", [
    ("seeds = 0\nmethods =", "methods must hold at least one value"),
    ("seeds = 0\nmethods = elm_s,elm_s",
     "methods values must be distinct; repeated ['elm_s']"),
    ("methods = elm_s\nseeds = 0,1,0", "seeds values must be distinct; repeated [0]"),
    ("methods = elm_s\nseeds = -1", "seeds must be >= 0, got (-1,)"),
    ("methods = elm_s\nseeds = 0\nseed = -1", "seed must be >= 0, got -1"),
])
def test_bench_refuses_empty_repeated_and_negative_entries(tmp_path, capsys,
                                                          text, want):
    # no methods used to crash emit_report with a traceback, and a
    # negative seed to fail inside numpy without naming the file
    cfg = tmp_path / "entries.cfg"
    cfg.write_text(f"{text}\n")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert f"{cfg}: {want}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "fit", "bench", "sweep"])
@pytest.mark.parametrize("value, want", [("-1", "must be >= 0, got -1"),
                                         ("1.5", "expected an integer, got '1.5'")])
def test_a_bad_seed_flag_is_refused_naming_it(tmp_path, capsys, command, value, want):
    # a negative seed used to fail late with numpy's bare message
    argv = [command, "--seed", value, "--out-dir", str(tmp_path)]
    if command == "fit":
        argv.insert(1, str(tmp_path / "manifest.txt"))
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"argument --seed: {want}" in capsys.readouterr().err


def test_predict_names_a_model_directory(tmp_path, capsys):
    # multi-view models used to be saved as a directory
    model = tmp_path / "model"
    model.mkdir()
    assert main(["predict", str(model), str(tmp_path / "x.csv"),
                 "--out-dir", str(tmp_path)]) == 2
    assert str(model) in capsys.readouterr().err


def test_bench_names_the_config_when_n_neighbors_exceeds_the_target_rows(
        tmp_path, cfg_path, capsys):
    # it used to fail inside the graph build, naming neither file nor key
    with open(cfg_path, "a") as fh:
        fh.write("n_neighbors = 18\n")  # 2 per class x 3 + 12 unlabeled rows
    assert main(["bench", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    assert (f"{cfg_path}: key 'n_neighbors': 18 needs at least 19 samples for the "
            "k-NN graph, the synthetic scenario has 18") in capsys.readouterr().err


@pytest.mark.parametrize("methods", ["elm_s,eda", "elm_s"])
def test_sweep_names_the_config_when_n_neighbors_exceeds_the_target_rows(
        tmp_path, capsys, methods):
    # the sweep runs eda alone, whatever the config's methods; without
    # eda among them its refusal used to name no file
    cfg = tmp_path / "k.cfg"
    cfg.write_text(TINY_CFG.replace("methods = elm_s,eda", f"methods = {methods}")
                   + "n_neighbors = 18\n")
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert (f"{cfg}: key 'n_neighbors': 18 needs at least 19 samples for the "
            "k-NN graph, the synthetic scenario has 18") in capsys.readouterr().err


# the synthetic graph would hold 2 x 3 + 12 = 18 rows
K18_CFG = "n_neighbors = 18\nn_unlabeled = 12\nm = 2\nn_hidden = 20\nmax_iter = 2\n"


def test_fit_accepts_a_config_too_small_for_the_synthetic_graph(tmp_path, capsys):
    # fit builds its graph from the manifest (159 target rows); it used to
    # exit 2 on the synthetic check
    k_cfg = tmp_path / "k.cfg"
    k_cfg.write_text(K18_CFG)
    assert main(["synth", "--seed", "0", "--out-dir", str(tmp_path / "data")]) == 0
    manifest = capsys.readouterr().out.splitlines()[0]
    assert main(["fit", manifest, "--config", str(k_cfg),
                 "--out-dir", str(tmp_path / "run")]) == 0, capsys.readouterr().err
    assert (tmp_path / "run" / "model.json").exists()


def test_synth_accepts_a_config_too_small_for_the_synthetic_graph(tmp_path, capsys):
    # synth builds no graph; it used to exit 2 on the synthetic check
    k_cfg = tmp_path / "k.cfg"
    k_cfg.write_text(K18_CFG)
    assert main(["synth", "--seed", "0", "--config", str(k_cfg),
                 "--out-dir", str(tmp_path)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("methods", ["sselm", "elm_s"])
def test_bench_checks_n_neighbors_against_the_graph_its_methods_build(
        tmp_path, capsys, methods):
    # sselm's graph also holds the 30 source rows; the ELM baselines build none
    cfg = tmp_path / "graph.cfg"
    cfg.write_text(TINY_CFG.replace("methods = elm_s,eda", f"methods = {methods}")
                   + "n_neighbors = 18\n")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0


def test_fit_names_the_config_and_manifest_when_n_neighbors_exceeds_the_target_rows(
        tmp_path, cfg_path, capsys):
    _, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    big = tmp_path / "big.cfg"
    big.write_text(TINY_CFG.replace("n_unlabeled = 12", "n_unlabeled = 300")
                   + "n_neighbors = 18\n")
    err = _fit_error(manifest, str(big), tmp_path, capsys)
    assert (f"{big}: key 'n_neighbors': 18 needs at least 19 samples for the "
            f"k-NN graph, {manifest} has 18") in err


def test_one_k_nn_rule_refuses_the_same_k_with_the_same_sentence(tmp_path, cfg_path,
                                                                 capsys):
    # the graph build, the bench and fit used to word the rule three ways
    sentence = re.compile(r"18 needs at least 19 samples for the k-NN graph, (.+) has 18")
    with pytest.raises(ParameterError) as graph:
        build_knn_graph(Dataset(np.arange(36.0).reshape(2, 18)), 18)
    config = load_config(cfg_path)
    with pytest.raises(ParameterError) as bench:
        run_benchmark(replace(config, params=replace(config.params, n_neighbors=18)))
    _, (manifest, _) = _synth(tmp_path, cfg_path, capsys)  # 6 + 12 target rows
    k18 = tmp_path / "k18.cfg"
    k18.write_text(TINY_CFG + "n_neighbors = 18\n")
    fit = _fit_error(manifest, str(k18), tmp_path, capsys)
    holders = [sentence.search(text).group(1)
               for text in (str(graph.value), str(bench.value), fit)]
    assert holders == ["the dataset", "the synthetic scenario", manifest]


@pytest.mark.parametrize("standardize", ["true", "false"])
def test_fit_refuses_a_source_wider_than_its_target_naming_the_manifest(
        tmp_path, cfg_path, capsys, standardize):
    # it used to load, then fail naming no file: in the standardizer with
    # "cannot concatenate datasets with dims [2, 3]", or, unscaled, in the
    # pre-classifier with "needs equal feature dims"
    data, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    _edit(f"{data}/source_features.csv", r"^(.+)$", r"\1,0.5")
    cfg = tmp_path / "std.cfg"
    cfg.write_text(f"{TINY_CFG}standardize = {standardize}\n")
    err = _fit_error(manifest, str(cfg), tmp_path, capsys)
    assert (f"{manifest}: splits disagree on feature dim: source 3, target_labeled 2, "
            "target_unlabeled 2, target_test 2") in err


@pytest.mark.parametrize("command", ["bench", "sweep"])
@pytest.mark.parametrize("line, want", [
    # 30 target rows per seed: the 18-row labeled pool plus 12 unlabeled
    ("n_neighbors = 30", "key 'n_neighbors': 30 needs at least 31 samples for the "
                         "k-NN graph, {manifest} has 30"),
    # 2 labeled plus 4 test rows of each class
    ("m = 6", "key 'm': {manifest}: class 0 has 6 pool samples; "
              "need at least 7 to split"),
])
def test_a_manifest_bench_names_config_key_and_manifest_for_what_its_pool_cannot_hold(
        tmp_path, cfg_path, capsys, command, line, want):
    # both used to fail inside the first seed, naming no file and no key
    _, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    cfg = tmp_path / "manifest.cfg"
    cfg.write_text(TINY_CFG.replace("m = 2\n", "") + f"data = {manifest}\n{line}\n")
    assert main([command, "--config", str(cfg),
                 "--out-dir", str(tmp_path / "reports")]) == 2
    assert f"{cfg}: {want.format(manifest=manifest)}" in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


def test_a_manifest_bench_counts_source_rows_in_a_graph_sselm_builds_alone(
        tmp_path, cfg_path, capsys):
    # sselm's graph also holds the 30 source rows
    _, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    cfg = tmp_path / "sselm.cfg"
    text = f"{TINY_CFG}data = {manifest}\n".replace("methods = elm_s,eda",
                                                    "methods = sselm")
    cfg.write_text(text + "n_neighbors = 30\n")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    cfg.write_text(text + "n_neighbors = 60\n")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert (f"{cfg}: key 'n_neighbors': 60 needs at least 61 samples for the "
            f"k-NN graph, {manifest} has 60") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "sweep"])
def test_a_manifest_that_fails_to_load_is_named_with_the_config_file_and_key(
        tmp_path, cfg_path, capsys, command):
    # both used to name the manifest alone, not the config or its key
    data, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    cfg = tmp_path / "w.cfg"
    cfg.write_text(f"{TINY_CFG}data = {manifest}\n")
    _edit(f"{data}/source_features.csv", r"^(.+)$", r"\1,0.5")
    assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert (f"error: {cfg}: key 'data': {manifest}: splits disagree on feature dim: "
            "source 3, target_labeled 2") in capsys.readouterr().err
    _edit(f"{data}/source_features.csv", r"^[^,\n]+,", "x,")
    assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: key 'data': ") and "source_features.csv" in err
    with pytest.raises(ParseError, match="^key 'data': "):
        run_benchmark(load_config(str(cfg)))


def test_python_dash_m_runs_the_command_line():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-m", "edapt", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: edapt")
    for command in ("synth", "fit", "predict", "bench", "sweep"):
        assert command in out.stdout
