"""End-to-end runs of the command line, in process."""

import numpy as np
import pytest

from edapt import Dataset, load_csv, load_model, load_standardizer, predict_eda, save_csv
from edapt.cli import main

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
    assert (run / "model" / "view1.json").exists()
    assert (run / "standardizer_view0.txt").exists()

    pred = tmp_path / "pred"
    rc = main(["predict", str(run / "model"),
               f"{data}/view0_target_test_features.csv",
               f"{data}/view1_target_test_features.csv",
               "--out-dir", str(pred)])
    assert rc == 0
    capsys.readouterr()
    assert (pred / "predicted_labels.csv").exists()
    # one CSV for a two-view model is a usage error
    rc = main(["predict", str(run / "model"),
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
    assert (run / "model" / "view0.json").exists()
    assert not (run / "model" / "view1.json").exists()
    rc = main(["fit", manifest, "--config", cfg_path, "--views", "5",
               "--out-dir", str(run)])
    assert rc == 2
    capsys.readouterr()


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
    rc = main(["predict", str(mv_run / "model"),
               f"{mv_data}/view0_target_test_features.csv", wide,
               "--out-dir", str(tmp_path / "mv_pred")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(mv_run / "standardizer_view1.txt") in err
    assert "has 4 features, the input has 5" in err


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
