"""Datasets, label codes, CSV/manifest round trips, and the shift generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edapt import (
    Dataset,
    DomainBundle,
    ParameterError,
    ParseError,
    ShapeError,
    augment_noise_view,
    default_shift_spec,
    generate_shift,
)
from edapt.data import (
    SynthShiftSpec,
    concat_features,
    decode_labels,
    encode_labels,
    load_bundle,
    load_csv,
    load_multiview_bundles,
    read_keyvalues,
    read_matrix_csv,
    save_bundle,
    save_csv,
    save_multiview_bundle,
    unlabeled_truth,
)

from helpers import blob_bundle


# ---------------------------------------------------------------------------
# Dataset / DomainBundle validation
# ---------------------------------------------------------------------------


def test_dataset_shapes_and_props():
    ds = Dataset([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [0, 1, 0])
    assert ds.dim == 2 and ds.n == 3
    assert ds.labels.dtype == np.int64


def test_dataset_rejects_bad_inputs():
    with pytest.raises(ShapeError):
        Dataset(np.ones(3))
    with pytest.raises(ShapeError):
        Dataset(np.ones((2, 0)))
    with pytest.raises(ParameterError):
        Dataset([[np.nan, 1.0]])
    with pytest.raises(ShapeError):
        Dataset(np.ones((2, 3)), [0, 1])
    with pytest.raises(ParameterError):
        Dataset(np.ones((2, 2)), [0.5, 1.0])
    with pytest.raises(ParameterError):
        Dataset(np.ones((2, 2)), [-1, 0])


def test_dataset_is_immutable():
    ds = Dataset(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0


def test_bundle_guards():
    good = blob_bundle()
    assert good.n_unlabeled == 9
    with pytest.raises(ParameterError):
        DomainBundle(Dataset(np.ones((2, 2))), good.target_labeled,
                     None, good.n_classes)
    with pytest.raises(ParameterError):
        # unlabeled split must not carry labels
        DomainBundle(good.source, good.target_labeled,
                     Dataset(np.ones((2, 2)), [0, 1]), good.n_classes)
    with pytest.raises(ShapeError):
        # target splits must agree on dimensionality
        DomainBundle(good.source, good.target_labeled,
                     Dataset(np.ones((5, 2))), good.n_classes)
    with pytest.raises(ParameterError):
        DomainBundle(good.source, good.target_labeled, None, 1)


def test_target_all_orders_labeled_first():
    b = blob_bundle()
    stacked = b.target_all()
    assert stacked.labels is None
    n_lab = b.target_labeled.n
    assert np.array_equal(stacked.features[:, :n_lab], b.target_labeled.features)
    assert np.array_equal(stacked.features[:, n_lab:], b.target_unlabeled.features)


def test_concat_features():
    a = Dataset([[1.0], [2.0]])
    b = Dataset([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(concat_features(a, b),
                          [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])
    with pytest.raises(ShapeError):
        concat_features(a, Dataset(np.ones((3, 1))))


# ---------------------------------------------------------------------------
# label codes
# ---------------------------------------------------------------------------


def test_encode_hand_case():
    t = encode_labels([0, 2, 1], 3)
    expected = [[1.0, -1.0, -1.0], [-1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]]
    assert np.array_equal(t, expected)


def test_encode_rejects_out_of_range():
    with pytest.raises(ParameterError):
        encode_labels([0, 3], 3)
    with pytest.raises(ParameterError):
        encode_labels([0, 1], 1)


def test_encode_refuses_non_integer_labels():
    # it used to fail inside numpy's indexing with an IndexError
    with pytest.raises(ParameterError, match="labels must be integers"):
        encode_labels(np.array([0.5, 1.0]), 2)


def test_decode_hand_case():
    scores = np.array([[0.2, 0.1, -3.0], [-1.0, 4.0, 3.9]])
    assert np.array_equal(decode_labels(scores), [0, 1])


@given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
def test_decode_inverts_encode(labels):
    y = np.asarray(labels)
    assert np.array_equal(decode_labels(encode_labels(y, 6)), y)


# ---------------------------------------------------------------------------
# CSV and manifest I/O
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    # awkward values: non-terminating binary fractions, tiny magnitudes
    x = np.array([[0.1, 1.0 / 3.0, -0.0], [1e-300, 12345.6789, 2.0**-40]])
    ds = Dataset(x, [2, 0, 1])
    fp, lp = str(tmp_path / "f.csv"), str(tmp_path / "l.csv")
    save_csv(ds, fp, lp)
    back = load_csv(fp, lp)
    assert np.array_equal(back.features, x)
    assert np.array_equal(back.labels, [2, 0, 1])


def test_csv_file_is_row_per_sample(tmp_path):
    ds = Dataset([[1.0, 2.0], [3.0, 4.0]])
    fp = str(tmp_path / "f.csv")
    save_csv(ds, fp)
    with open(fp) as fh:
        lines = fh.read().splitlines()
    assert lines == ["1.0,3.0", "2.0,4.0"]  # one sample (column) per line


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=64), min_size=1, max_size=12))
def test_csv_round_trip_property(tmp_path_factory, values):
    d = tmp_path_factory.mktemp("csv")
    x = np.asarray(values)[None, :]
    fp = str(d / "f.csv")
    save_csv(Dataset(x), fp)
    assert np.array_equal(load_csv(fp).features, x)


def test_save_csv_without_labels_errors(tmp_path):
    with pytest.raises(ParameterError):
        save_csv(Dataset(np.ones((1, 1))), str(tmp_path / "f.csv"),
                 str(tmp_path / "l.csv"))


def test_read_matrix_csv_errors(tmp_path):
    ragged = tmp_path / "r.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError):
        read_matrix_csv(str(ragged))
    junk = tmp_path / "j.csv"
    junk.write_text("1.0,abc\n")
    with pytest.raises(ParseError):
        read_matrix_csv(str(junk))
    empty = tmp_path / "e.csv"
    empty.write_text("\n\n")
    with pytest.raises(ParseError):
        read_matrix_csv(str(empty))


def test_label_file_errors(tmp_path):
    fp = tmp_path / "f.csv"
    fp.write_text("1.0\n2.0\n")
    lp = tmp_path / "l.csv"
    lp.write_text("0\nx\n")
    with pytest.raises(ParseError):
        load_csv(str(fp), str(lp))
    lp.write_text("0\n")
    with pytest.raises(ShapeError):
        load_csv(str(fp), str(lp))
    lp.write_text("0\n-1\n")
    with pytest.raises(ParseError, match=r"l\.csv:2: negative label -1"):
        load_csv(str(fp), str(lp))


def test_read_keyvalues(tmp_path):
    p = tmp_path / "kv.txt"
    p.write_text("# comment\n\na = 1\nb = hello world  # trailing\n")
    assert read_keyvalues(str(p)) == {"a": "1", "b": "hello world"}
    p.write_text("no separator here\n")
    with pytest.raises(ParseError):
        read_keyvalues(str(p))


def _bundles_equal(a, b):
    assert np.array_equal(a.source.features, b.source.features)
    assert np.array_equal(a.source.labels, b.source.labels)
    assert np.array_equal(a.target_labeled.features, b.target_labeled.features)
    assert np.array_equal(a.target_labeled.labels, b.target_labeled.labels)
    assert (a.target_unlabeled is None) == (b.target_unlabeled is None)
    if a.target_unlabeled is not None:
        assert np.array_equal(a.target_unlabeled.features,
                              b.target_unlabeled.features)
    assert (a.target_test is None) == (b.target_test is None)
    if a.target_test is not None:
        assert np.array_equal(a.target_test.features, b.target_test.features)
        if a.target_test.labels is not None:
            assert np.array_equal(a.target_test.labels, b.target_test.labels)
    assert a.n_classes == b.n_classes


def test_bundle_manifest_round_trip(tmp_path):
    b = blob_bundle(seed=4, per_test=2)
    manifest = save_bundle(b, str(tmp_path))
    _bundles_equal(load_bundle(manifest), b)


def test_bundle_round_trip_empty_unlabeled(tmp_path):
    b = blob_bundle(seed=5, per_unlabeled=0)
    assert b.target_unlabeled is None
    manifest = save_bundle(b, str(tmp_path))
    back = load_bundle(manifest)
    assert back.target_unlabeled is None
    _bundles_equal(back, b)


def test_manifest_missing_key(tmp_path):
    b = blob_bundle(seed=6)
    manifest = save_bundle(b, str(tmp_path))
    with open(manifest) as fh:
        text = [ln for ln in fh if not ln.startswith("classes")]
    (tmp_path / "broken.txt").write_text("".join(text))
    with pytest.raises(ParseError):
        load_bundle(str(tmp_path / "broken.txt"))


def test_multiview_manifest_round_trip(tmp_path):
    b0 = blob_bundle(seed=7, per_test=2)
    b1 = augment_noise_view(b0, 2, seed=99)
    manifest = save_multiview_bundle([b0, b1], str(tmp_path))
    views = load_multiview_bundles(manifest)
    assert len(views) == 2
    _bundles_equal(views[0], b0)
    _bundles_equal(views[1], b1)


def test_a_plain_manifest_is_one_view(tmp_path):
    b = blob_bundle(seed=7, per_test=2)
    plain = save_bundle(b, str(tmp_path / "plain"))
    views = load_multiview_bundles(plain)
    assert len(views) == 1
    _bundles_equal(views[0], load_bundle(plain))
    # and one view is written as the plain manifest, byte for byte
    save_multiview_bundle([b], str(tmp_path / "one"))
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "one").iterdir())
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()


# ---------------------------------------------------------------------------
# synthetic shift generator
# ---------------------------------------------------------------------------


def test_target_transform_hand_case():
    spec = default_shift_spec(rotation_deg=30.0, scale=2.0)
    out = spec.target_transform(np.array([[1.0], [0.0]]))
    # 2 * R(30deg) @ (1, 0) + (2, 0) = (sqrt(3) + 2, 1)
    assert np.allclose(out[:, 0], [np.sqrt(3.0) + 2.0, 1.0], atol=1e-14)


def test_generator_is_deterministic():
    a = generate_shift(default_shift_spec(seed=3))
    b = generate_shift(default_shift_spec(seed=3))
    assert np.array_equal(a.source.features, b.source.features)
    assert np.array_equal(a.target_unlabeled.features, b.target_unlabeled.features)
    c = generate_shift(default_shift_spec(seed=4))
    assert not np.array_equal(a.source.features, c.source.features)


def test_generator_split_sizes_and_label_blocks():
    spec = default_shift_spec(seed=1, n_source=10, n_unlabeled=7, n_test=5)
    b = generate_shift(spec)
    assert b.source.n == 10 and b.n_unlabeled == 7 and b.target_test.n == 5
    assert b.target_labeled.n == 9  # 3 per class
    # class-blocked draw order; leftover samples go to the lowest ids
    assert np.array_equal(b.source.labels, [0] * 4 + [1] * 3 + [2] * 3)
    assert np.array_equal(b.target_labeled.labels, [0] * 3 + [1] * 3 + [2] * 3)
    assert b.target_unlabeled.labels is None
    assert np.array_equal(unlabeled_truth(spec), [0] * 3 + [1] * 2 + [2] * 2)


def test_later_splits_do_not_disturb_earlier_draws():
    # draw order is source, labeled, unlabeled, test: truncating the tail
    # must not change what came before
    full = generate_shift(default_shift_spec(seed=8, n_test=9))
    trunc = generate_shift(default_shift_spec(seed=8, n_test=0))
    assert trunc.target_test is None
    assert np.array_equal(full.source.features, trunc.source.features)
    assert np.array_equal(full.target_labeled.features,
                          trunc.target_labeled.features)
    assert np.array_equal(full.target_unlabeled.features,
                          trunc.target_unlabeled.features)


def test_spec_validation():
    means = np.zeros((3, 2))
    cov = np.stack([np.eye(2)] * 3)
    with pytest.raises(ParameterError):
        SynthShiftSpec(means, np.stack([-np.eye(2)] * 3))
    with pytest.raises(ShapeError):
        SynthShiftSpec(means, cov, translation=(1.0, 2.0, 3.0))
    with pytest.raises(ParameterError):
        SynthShiftSpec(means, cov, scale=0.0)
    with pytest.raises(ShapeError):
        SynthShiftSpec(np.zeros(3), cov)
    # non-finite values used to fail later, in generate_shift, naming no field
    nan_cov = cov.copy()
    nan_cov[1, 0, 0] = np.nan
    for kwargs, want in [
        (dict(scale=np.nan), "scale must be positive and finite, got nan"),
        (dict(rotation_deg=np.nan), "rotation_deg must be finite, got nan"),
        (dict(means=np.array([[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]])),
         "field 'means' has non-finite entries, the first in class 1"),
        (dict(covariances=nan_cov),
         "field 'covariances' has non-finite entries, the first in class 1"),
        (dict(translation=(np.nan, 0.0)),
         "field 'translation' has non-finite entries, the first in entry 0"),
    ]:
        kwargs = {"means": means, "covariances": cov, **kwargs}
        with pytest.raises(ParameterError, match=want):
            SynthShiftSpec(**kwargs)


def test_augment_noise_view():
    b = blob_bundle(seed=9, per_test=2)
    v = augment_noise_view(b, 3, seed=5)
    assert v.source.dim == b.source.dim + 3
    assert np.array_equal(v.source.features[:2], b.source.features)
    assert np.array_equal(v.source.labels, b.source.labels)
    assert np.array_equal(v.target_test.features[:2], b.target_test.features)
    # deterministic per seed, fresh noise per seed
    v2 = augment_noise_view(b, 3, seed=5)
    assert np.array_equal(v.source.features, v2.source.features)
    v3 = augment_noise_view(b, 3, seed=6)
    assert not np.array_equal(v.source.features, v3.source.features)
    with pytest.raises(ParameterError):
        augment_noise_view(b, 0, seed=1)
