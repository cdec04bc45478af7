"""End-to-end runs of the command line, in process."""

import json
import os
import re
import shutil

import numpy as np
import pytest

from edapt import (
    Dataset,
    load_model,
    new_hidden_map,
    preclassify_elm,
    predict_eda,
    standardize_bundle,
)
from edapt.bench import load_config
from edapt.cli import main
from edapt.data import load_bundle, load_csv, save_csv
from edapt.features import fit_standardizer, load_standardizer

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
    assert (run / "model.json").exists()
    assert (run / "standardizer.txt").exists()
    assert (run / "unlabeled_labels.csv").exists()
    assert (run / "unlabeled_scores.csv").exists()

    test_csv = f"{data}/target_test_features.csv"
    pred = tmp_path / "pred"
    rc = main(["predict", str(run / "model.json"), test_csv,
               "--out-dir", str(pred)])
    assert rc == 0
    capsys.readouterr()
    # the standardizer saved beside the model is applied automatically
    model = load_model(str(run / "model.json"))
    st = load_standardizer(str(run / "standardizer.txt"))
    want_labels, want_scores = predict_eda(model, st.apply(load_csv(test_csv)))
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
    assert load_model(str(run / "model.json")).n_views == 2
    assert (run / "standardizer_view0.txt").exists()

    pred = tmp_path / "pred"
    rc = main(["predict", str(run / "model.json"),
               f"{data}/view0_target_test_features.csv",
               f"{data}/view1_target_test_features.csv",
               "--out-dir", str(pred)])
    assert rc == 0
    capsys.readouterr()
    assert (pred / "predicted_labels.csv").exists()
    # one CSV for a two-view model is a usage error
    rc = main(["predict", str(run / "model.json"),
               f"{data}/view0_target_test_features.csv",
               "--out-dir", str(pred)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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


def test_fit_rejects_detransform_on_a_multiview_manifest(tmp_path, cfg_path, capsys):
    _, (manifest, _) = _synth(tmp_path, cfg_path, capsys, "--views", "2")
    run = tmp_path / "run"
    rc = main(["fit", manifest, "--config", cfg_path, "--detransform",
               "--out-dir", str(run)])
    assert rc == 2
    assert "--detransform applies to single-view fits" in capsys.readouterr().err
    assert not run.exists()


def test_predict_reads_standardizers_by_model_kind(tmp_path, cfg_path, capsys):
    mv_data, (mv_manifest, _) = _synth(tmp_path / "mv", cfg_path, capsys, "--views", "2")
    run = tmp_path / "run"
    assert main(["fit", mv_manifest, "--config", cfg_path, "--views", "1",
                 "--out-dir", str(run)]) == 0
    test_csv = f"{mv_data}/view0_target_test_features.csv"

    def predict(out):
        assert main(["predict", str(run / "model.json"), test_csv,
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        return load_csv(str(out / "predicted_scores.csv")).features

    before = predict(tmp_path / "before")
    # an unrelated single-view fit's standardizer.txt, put beside the
    # one-view model
    _, (manifest, _) = _synth(tmp_path / "single", cfg_path, capsys, "--seed", "1")
    single = tmp_path / "single_run"
    assert main(["fit", manifest, "--config", cfg_path, "--out-dir", str(single)]) == 0
    shutil.copy(single / "standardizer.txt", run / "standardizer.txt")
    assert np.array_equal(predict(tmp_path / "after"), before)


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


def test_predict_rejects_a_malformed_standardizer(tmp_path, cfg_path, capsys):
    data, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    run = tmp_path / "run"
    assert main(["fit", manifest, "--config", cfg_path, "--out-dir", str(run)]) == 0
    capsys.readouterr()
    st_path = run / "standardizer.txt"
    mean_line = st_path.read_text().splitlines()[0]
    zero_std = ",".join("0.0" for _ in mean_line.split(","))
    st_path.write_text(f"{mean_line}\n{zero_std}\n")
    rc = main(["predict", str(run / "model.json"), f"{data}/target_test_features.csv",
               "--out-dir", str(tmp_path / "pred")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(st_path) in err and "'std'" in err


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
    wide = _one_feature_too_many(f"{data}/target_test_features.csv",
                                 tmp_path / "wide.csv")
    rc = main(["predict", str(run / "model.json"), wide,
               "--out-dir", str(tmp_path / "pred")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(run / "standardizer.txt") in err
    assert "has 2 features, the input has 3" in err

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
    assert str(mv_run / "standardizer_view1.txt") in err
    assert "has 4 features, the input has 5" in err


def test_predict_names_a_csv_of_the_wrong_width(tmp_path, cfg_path, capsys):
    # with no standardizer beside the model, the hidden map's width is the check
    data, (manifest, _) = _synth(tmp_path, cfg_path, capsys)
    run = tmp_path / "run"
    assert main(["fit", manifest, "--config", cfg_path, "--out-dir", str(run)]) == 0
    capsys.readouterr()
    os.remove(run / "standardizer.txt")
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
    os.remove(mv_run / "standardizer_view1.txt")
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
    d["views"][1].update(beta=d["views"][1]["beta"][:5], u=d["views"][1]["u"][:3])
    model.write_text(json.dumps(d))
    rc = main(["predict", str(mv_run / "model.json"),
               f"{mv_data}/view0_target_test_features.csv",
               f"{mv_data}/view1_target_test_features.csv",
               "--out-dir", str(tmp_path / "mv_pred")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{model}: view 1: field 'beta'" in err


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
])
def test_config_geometry_errors_name_the_file_and_key(tmp_path, capsys, line, want):
    # they used to pass load_config and fail inside run_benchmark unnamed
    cfg = tmp_path / "geometry.cfg"
    cfg.write_text(f"seeds = 0\nmethods = elm_s\n{line}\n")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert f"{cfg}: {want}" in capsys.readouterr().err


@pytest.mark.parametrize("line, want", [
    ("grid = 1,nan", "grid values must be positive and finite, got (1.0, nan)"),
    ("pre_ridge = 0", "pre_ridge must be positive and finite, got 0.0"),
    ("scale = 0", "scale must be positive and finite, got 0.0"),
    ("rotation_deg = nan", "rotation_deg must be finite, got nan"),
    ("n_source = 0", "n_source must be >= 1, got 0"),
    ("n_unlabeled = -1", "n_unlabeled must be >= 0, got -1"),
    ("n_test = -1", "n_test must be >= 0, got -1"),
    ("c_source = inf", "c_source must be finite and >= 0, got inf"),
])
def test_config_values_that_fail_mid_run_name_the_file_and_key(tmp_path, capsys,
                                                               line, want):
    # each used to pass load_config and fail inside the run, without the file
    cfg = tmp_path / "values.cfg"
    cfg.write_text(f"seeds = 0\nmethods = elm_s,eda\nn_hidden = 20\n{line}\n")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert f"{cfg}: {want}" in capsys.readouterr().err


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
