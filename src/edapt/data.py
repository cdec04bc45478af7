"""Datasets, label encodings, and a seeded synthetic domain-shift generator.

Conventions
-----------
Features are stored column-per-sample: a dataset with ``n`` samples of
dimension ``d`` holds a ``d x n`` float64 matrix.  CSV files on disk use
the opposite, more common interchange layout (one line per sample); the
loaders transpose.  Class labels are integers ``0..c-1``; the target
matrices consumed by the solvers are ``n x c`` with ``+1`` in the true
class column and ``-1`` elsewhere.

All randomness flows through ``numpy.random.default_rng`` (PCG64) with
explicit integer seeds, so every artifact in this package is reproducible
from its recorded seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, ParseError, ShapeError, check_finite, check_int,
                     check_real)

__all__ = [
    "Dataset",
    "DomainBundle",
    "SynthShiftSpec",
    "augment_noise_view",
    "concat_features",
    "decode_labels",
    "default_class_means",
    "encode_labels",
    "generate_shift",
    "load_bundle",
    "load_csv",
    "load_multiview_bundles",
    "read_matrix_csv",
    "save_bundle",
    "save_csv",
    "save_labels",
    "save_multiview_bundle",
    "unlabeled_truth",
]


def _lock(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _class_ids(labels, n_classes: float = np.inf) -> np.ndarray:
    """``labels`` as an integer array with entries in ``[0, n_classes)``;
    else ParameterError naming the first bad index."""
    y = np.asarray(labels)
    if not np.issubdtype(y.dtype, np.integer):
        raise ParameterError("labels must be integers")
    bad = (y < 0) | (y >= n_classes)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParameterError(f"label {y[i]} at index {i} outside [0, {n_classes})")
    return y


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable feature block with optional integer labels.

    Parameters
    ----------
    features : ndarray, shape (d, n)
        Column-per-sample feature matrix, finite float64.
    labels : ndarray of int, shape (n,), optional
        Class ids, non-negative.  ``None`` marks an unlabeled set.
    """

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        x = np.array(self.features, dtype=np.float64)
        if x.ndim != 2:
            raise ShapeError(f"features must be 2-D (d x n), got ndim={x.ndim}")
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ShapeError(f"features must be non-empty, got shape {x.shape}")
        check_finite("features", x, "feature")
        object.__setattr__(self, "features", _lock(x))
        if self.labels is not None:
            y = _class_ids(self.labels)
            if y.ndim != 1 or y.shape[0] != x.shape[1]:
                raise ShapeError(
                    f"labels must have one entry per sample: "
                    f"expected {x.shape[1]}, got shape {y.shape}"
                )
            object.__setattr__(self, "labels", _lock(y.astype(np.int64)))

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]


def concat_features(*datasets: Dataset) -> np.ndarray:
    """Stack the feature columns of several datasets (dims must agree)."""
    dims = {d.dim for d in datasets}
    if len(dims) != 1:
        raise ShapeError(f"cannot concatenate datasets with dims {sorted(dims)}")
    return np.hstack([d.features for d in datasets])


def encode_labels(labels, n_classes: int) -> np.ndarray:
    """Encode integer class ids as a ``+1`` / ``-1`` indicator matrix.

    Row ``i`` has ``+1`` in column ``labels[i]`` and ``-1`` elsewhere.

    Raises
    ------
    ParameterError
        If ``n_classes < 2``, a label is not an integer, or any label
        falls outside ``[0, n_classes)`` (the message names the
        offending index).
    """
    check_int("n_classes", n_classes, 2)
    y = _class_ids(labels, n_classes)
    t = -np.ones((y.shape[0], n_classes))
    t[np.arange(y.shape[0]), y] = 1.0
    return t


def decode_labels(scores: np.ndarray) -> np.ndarray:
    """Map a score matrix (one row per sample) to class ids by row argmax."""
    return np.argmax(np.asarray(scores), axis=1)


@dataclass(frozen=True, eq=False)
class DomainBundle:
    """The labeled/unlabeled split structure consumed by every solver.

    ``source`` and ``target_labeled`` carry labels; ``target_unlabeled``
    never does (this is what keeps pre-classifiers honest: the type rules
    out accidental use of unlabeled-target ground truth).  ``target_test``
    is optional and used only for evaluation.  Every split has the same
    feature dim, since one hidden map serves source and target.  An empty
    unlabeled set is represented as ``None``.
    """

    source: Dataset
    target_labeled: Dataset
    target_unlabeled: Dataset | None
    n_classes: int
    target_test: Dataset | None = None

    def __post_init__(self):
        check_int("n_classes", self.n_classes, 2)
        for name in ("source", "target_labeled", "target_test"):
            ds = getattr(self, name)
            if ds is None or ds.labels is None:
                if name != "target_test":
                    raise ParameterError(f"{name} must be labeled")
                continue
            try:
                _class_ids(ds.labels, self.n_classes)
            except ParameterError as err:
                raise ParameterError(f"{name} {err}") from None
        if self.target_unlabeled is not None and self.target_unlabeled.labels is not None:
            raise ParameterError("target_unlabeled must not carry labels")
        splits = ("source", "target_labeled", "target_unlabeled", "target_test")
        dims = {name: getattr(self, name).dim for name in splits
                if getattr(self, name) is not None}
        if len(set(dims.values())) != 1:
            raise ShapeError("splits disagree on feature dim: "
                             + ", ".join(f"{name} {d}" for name, d in dims.items()))

    @property
    def target_dim(self) -> int:
        return self.target_labeled.dim

    @property
    def n_unlabeled(self) -> int:
        return 0 if self.target_unlabeled is None else self.target_unlabeled.n

    def target_all(self) -> Dataset:
        """Labeled-then-unlabeled target features, labels dropped.

        This fixed ordering is what the neighborhood graph and the
        manifold term are built over; keep it stable.
        """
        if self.target_unlabeled is None:
            return Dataset(self.target_labeled.features)
        return Dataset(
            np.hstack([self.target_labeled.features, self.target_unlabeled.features])
        )


# ---------------------------------------------------------------------------
# CSV and manifest I/O
# ---------------------------------------------------------------------------


def read_matrix_csv(path: str) -> np.ndarray:
    """Read a headerless numeric CSV as a row-major matrix.

    Raises
    ------
    ParseError
        Ragged rows, non-numeric or non-finite tokens (message carries
        file and line), or an empty file.
    """
    rows, linenos = [], []
    width = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            toks = line.split(",")
            if width is None:
                width = len(toks)
            elif len(toks) != width:
                raise ParseError(
                    f"{path}:{lineno}: expected {width} values, got {len(toks)}"
                )
            try:
                rows.append([float(t) for t in toks])
            except ValueError:
                bad = next(t for t in toks if not _is_float(t))
                raise ParseError(
                    f"{path}:{lineno}: non-numeric value {bad!r}"
                ) from None
            linenos.append(lineno)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    out = np.asarray(rows)
    bad = ~np.isfinite(out)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ParseError(f"{path}:{linenos[r]}: non-finite value {float(out[r, c])}")
    return out


def load_csv(features_path: str, labels_path: str | None = None) -> Dataset:
    """Load a dataset from headerless CSV (one line per sample).

    The label file, if given, holds one base-10 integer per line.

    Raises
    ------
    ParseError
        Ragged rows, non-numeric or non-finite tokens (message carries
        file and line).
    ShapeError
        Label/feature row-count mismatch.
    """
    features = read_matrix_csv(features_path).T  # file is sample-per-line
    labels = None
    if labels_path is not None:
        labels = _load_labels(labels_path)
        if labels.shape[0] != features.shape[1]:
            raise ShapeError(
                f"{labels_path}: {labels.shape[0]} labels for "
                f"{features.shape[1]} samples"
            )
    return Dataset(features, labels)


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _load_labels(path: str) -> np.ndarray:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(int(line))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-integer label {line!r}") from None
            if out[-1] < 0:
                raise ParseError(f"{path}:{lineno}: negative label {out[-1]}")
    return np.asarray(out, dtype=np.int64)


def save_labels(labels, path: str) -> None:
    """Write integer class ids, one per line (LF endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


def save_csv(dataset: Dataset, features_path: str, labels_path: str | None = None) -> None:
    """Write a dataset as headerless CSV (one line per sample, LF endings).

    Floats are written with ``repr`` so a reload reproduces them exactly.
    """
    with open(features_path, "w", encoding="utf-8", newline="\n") as fh:
        for col in dataset.features.T:
            fh.write(",".join(repr(float(v)) for v in col) + "\n")
    if labels_path is not None:
        if dataset.labels is None:
            raise ParameterError("dataset has no labels to save")
        save_labels(dataset.labels, labels_path)


# the split keys a manifest may hold, each with a ``view<i>_`` prefix in
# a multi-view manifest; the first four are required
_MANIFEST_KEYS = (
    "source_features",
    "source_labels",
    "target_labeled_features",
    "target_labeled_labels",
    "target_unlabeled_features",
    "target_test_features",
    "target_test_labels",
)


def read_keyvalues(path: str) -> dict[str, str]:
    """Parse a ``key = value`` text file (``#`` comments, blank lines ok).

    A key given twice is rejected, naming the file and line.
    """
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (t.strip() for t in line.split("=", 1))
            if key in out:
                raise ParseError(f"{path}:{lineno}: key {key!r} given twice")
            out[key] = val
    return out


def _check_manifest_keys(keys: dict[str, str], manifest_path: str,
                         prefixes: list[str]) -> None:
    """Reject any key but ``classes`` and the per-view split keys."""
    allowed = {"classes"} | {p + k for p in prefixes for k in _MANIFEST_KEYS}
    unknown = [k for k in keys if k not in allowed]
    if unknown:
        raise ParseError(f"{manifest_path}: unknown key {unknown[0]!r}")


def _bundle_from_keys(keys: dict[str, str], manifest_path: str,
                      prefix: str = "") -> DomainBundle:
    """One view's bundle; every error names the manifest and the key or
    split it came from."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    for key in ("classes", *(prefix + k for k in _MANIFEST_KEYS[:4])):
        if key not in keys:
            raise ParseError(f"{manifest_path}: missing key {key!r}")
    try:
        n_classes = int(keys["classes"])
    except ValueError:
        raise ParseError(f"{manifest_path}: key 'classes' must be an integer, "
                         f"got {keys['classes']!r}") from None

    def split(stem: str) -> Dataset:
        name = prefix + stem
        feat = os.path.join(base, keys[f"{name}_features"])
        lab = keys.get(f"{name}_labels")
        lab = None if lab is None else os.path.join(base, lab)
        try:
            ds = load_csv(feat, lab)
        except (ParseError, ShapeError, ParameterError) as err:
            raise type(err)(f"{manifest_path}: split {name!r}: {err}") from None
        if lab is not None:
            try:
                _class_ids(ds.labels, n_classes)
            except ParameterError as err:
                raise ParameterError(f"{manifest_path}: split {name!r}: {lab}: {err}") from None
        return ds

    source = split("source")
    labeled = split("target_labeled")
    unl_path = keys.get(prefix + "target_unlabeled_features")
    unlabeled = None
    if unl_path is not None and _has_rows(os.path.join(base, unl_path)):
        unlabeled = split("target_unlabeled")
    test = None
    if prefix + "target_test_features" in keys:
        test = split("target_test")
    try:
        return DomainBundle(source, labeled, unlabeled, n_classes, test)
    except (ShapeError, ParameterError) as err:
        raise type(err)(f"{manifest_path}: {err}") from None


def _has_rows(path: str) -> bool:
    with open(path, encoding="utf-8") as fh:
        return any(line.strip() for line in fh)


def load_bundle(manifest_path: str) -> DomainBundle:
    """Load a domain bundle from its manifest.

    The manifest is a ``key = value`` file naming the feature/label CSVs
    (paths relative to the manifest) plus ``classes``.  An absent or empty
    unlabeled file yields an empty unlabeled split.  A manifest of
    several views (:func:`load_multiview_bundles`) is refused.
    """
    bundles = load_multiview_bundles(manifest_path)
    if len(bundles) != 1:
        raise ParseError(f"{manifest_path}: holds {len(bundles)} views; "
                         "expected a one-view manifest")
    return bundles[0]


def load_multiview_bundles(manifest_path: str) -> list[DomainBundle]:
    """Load per-view bundles from a manifest with ``view<i>_`` key groups.

    Views are numbered from 0 without gaps; a key of any other view, or
    one that is not a split key, is rejected.  A manifest without view
    prefixes (what :func:`save_bundle` writes) is one view.
    """
    keys = read_keyvalues(manifest_path)
    n_views = 0
    while any(k.startswith(f"view{n_views}_") for k in keys):
        n_views += 1
    prefixes = [f"view{i}_" for i in range(n_views)] or [""]
    _check_manifest_keys(keys, manifest_path, prefixes)
    return [_bundle_from_keys(keys, manifest_path, p) for p in prefixes]


def _write_split(ds: Dataset | None, out_dir: str, stem: str) -> dict[str, str]:
    feat = f"{stem}_features.csv"
    out: dict[str, str] = {}
    if ds is None:
        # empty split: an empty file keeps the manifest key present
        open(os.path.join(out_dir, feat), "w", encoding="utf-8").close()
        out[f"{stem}_features"] = feat
        return out
    lab = None if ds.labels is None else f"{stem}_labels.csv"
    save_csv(ds, os.path.join(out_dir, feat),
             None if lab is None else os.path.join(out_dir, lab))
    out[f"{stem}_features"] = feat
    if lab is not None:
        out[f"{stem}_labels"] = lab
    return out


def _write_views(views: list[tuple[str, DomainBundle]], out_dir: str) -> str:
    """Write each ``(prefix, bundle)`` view's CSVs plus one
    ``manifest.txt`` whose keys carry the view's prefix; return its path."""
    os.makedirs(out_dir, exist_ok=True)
    keys: dict[str, str] = {}
    for prefix, b in views:
        # the prefixed stem doubles as the manifest key prefix
        keys.update(_write_split(b.source, out_dir, f"{prefix}source"))
        keys.update(_write_split(b.target_labeled, out_dir, f"{prefix}target_labeled"))
        keys.update(_write_split(b.target_unlabeled, out_dir, f"{prefix}target_unlabeled"))
        if b.target_test is not None:
            keys.update(_write_split(b.target_test, out_dir, f"{prefix}target_test"))
    keys["classes"] = str(views[0][1].n_classes)
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w", encoding="utf-8", newline="\n") as fh:
        for k, v in keys.items():
            fh.write(f"{k} = {v}\n")
    return manifest


def save_bundle(bundle: DomainBundle, out_dir: str) -> str:
    """Write a bundle's CSVs plus manifest into ``out_dir``; return manifest path."""
    return _write_views([("", bundle)], out_dir)


def save_multiview_bundle(bundles: list[DomainBundle], out_dir: str) -> str:
    """Write per-view CSVs plus a ``view<i>_``-keyed manifest; return its
    path.  One view is written as :func:`save_bundle` writes it, without
    prefixes."""
    classes = {b.n_classes for b in bundles}
    if len(classes) != 1:
        raise ParameterError(f"views disagree on class count: {sorted(classes)}")
    if len(bundles) == 1:
        return save_bundle(bundles[0], out_dir)
    return _write_views([(f"view{i}_", b) for i, b in enumerate(bundles)], out_dir)


# ---------------------------------------------------------------------------
# Synthetic domain-shift generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SynthShiftSpec:
    """Recipe for a synthetic cross-domain classification problem.

    The source domain draws each class from a full-covariance Gaussian.
    Every target split draws from the same Gaussians and then applies a
    fixed distortion ``x -> scale * R(rotation_deg) @ x + translation``,
    where ``R`` rotates the first two coordinates and leaves the rest
    alone.  Generation is deterministic for a fixed ``seed``; draw order
    is source, target-labeled, target-unlabeled, target-test, each
    class-blocked in class order.
    """

    means: np.ndarray
    covariances: np.ndarray
    rotation_deg: float = 30.0
    translation: np.ndarray | tuple = (2.0, 0.0)
    scale: float = 1.0
    n_source: int = 150
    n_labeled_per_class: int = 3
    n_unlabeled: int = 150
    n_test: int = 150
    seed: int = 0

    def __post_init__(self):
        m = _class_means(self.means)
        c, d = m.shape
        cov = np.array(self.covariances, dtype=np.float64)
        if cov.shape != (c, d, d):
            raise ShapeError(
                f"covariances must be {(c, d, d)}, got {cov.shape}"
            )
        t = np.array(self.translation, dtype=np.float64)
        if t.shape != (d,):
            raise ShapeError(f"translation must be {d} finite values (one per means "
                             f"column), got {tuple(t.ravel().tolist())}")
        check_finite("means", m, "class")
        check_finite("covariances", cov, "class")
        check_finite("translation", t)
        chols = np.empty_like(cov)
        for i in range(c):
            try:
                chols[i] = np.linalg.cholesky(cov[i])
            except np.linalg.LinAlgError:
                raise ParameterError(
                    f"covariance for class {i} is not positive definite"
                ) from None
        check_real("rotation_deg", self.rotation_deg)
        if self.rotation_deg != 0.0 and d < 2:
            raise ParameterError(f"rotation_deg must be 0 with one means column, "
                                 f"got {self.rotation_deg}")
        check_real("scale", self.scale, 0.0, strict=True)
        for name, least in (("n_source", 1), ("n_labeled_per_class", 1),
                            ("n_unlabeled", 0), ("n_test", 0), ("seed", 0)):
            check_int(name, getattr(self, name), least)
        object.__setattr__(self, "means", _lock(m))
        object.__setattr__(self, "covariances", _lock(cov))
        object.__setattr__(self, "translation", _lock(t))
        object.__setattr__(self, "_chols", _lock(chols))

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    def rotation_matrix(self) -> np.ndarray:
        r = np.eye(self.n_features)
        if self.rotation_deg != 0.0:
            a = np.deg2rad(self.rotation_deg)
            r[0, 0] = r[1, 1] = np.cos(a)
            r[0, 1] = -np.sin(a)
            r[1, 0] = np.sin(a)
        return r

    def target_transform(self, x: np.ndarray) -> np.ndarray:
        """Apply the domain distortion to a d x n feature block."""
        return self.scale * (self.rotation_matrix() @ x) + self.translation[:, None]


def _class_means(rows) -> np.ndarray:
    """Class centers ``rows`` as a float (classes, dim) array; anything
    but two or more rows of one non-zero length raises ShapeError."""
    try:
        m = np.array(rows, dtype=np.float64)
    except ValueError:  # ragged rows
        m = np.empty(0)
    if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 1:
        raise ShapeError("means must be two or more rows of equal, non-zero length, "
                         f"got row lengths {[np.size(row) for row in rows]}")
    return m


def default_class_means() -> np.ndarray:
    """Three cluster centers on a 120-degree star of radius 1.6 around (3, 3).

    Centered away from the origin so the target rotation displaces all
    classes coherently: a source-only classifier degrades without the
    class geometry itself collapsing.
    """
    angles = np.deg2rad([90.0, 210.0, 330.0])
    return np.column_stack([3.0 + 1.6 * np.cos(angles), 3.0 + 1.6 * np.sin(angles)])


def _split_counts(total: int, n_classes: int) -> list[int]:
    base, extra = divmod(total, n_classes)
    return [base + (1 if i < extra else 0) for i in range(n_classes)]


def _sample_block(rng, spec: SynthShiftSpec, counts) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    chols = spec._chols
    for i, n_i in enumerate(counts):
        if n_i == 0:
            continue
        z = rng.standard_normal((n_i, spec.n_features))
        xs.append(spec.means[i] + z @ chols[i].T)
        ys.append(np.full(n_i, i, dtype=np.int64))
    x = np.concatenate(xs, axis=0).T  # to d x n
    return x, np.concatenate(ys)


def _generate(spec: SynthShiftSpec) -> tuple[DomainBundle, np.ndarray]:
    rng = np.random.default_rng(spec.seed)
    c = spec.n_classes

    xs, ys = _sample_block(rng, spec, _split_counts(spec.n_source, c))
    source = Dataset(xs, ys)

    xl, yl = _sample_block(rng, spec, [spec.n_labeled_per_class] * c)
    labeled = Dataset(spec.target_transform(xl), yl)

    unlabeled = None
    yu = np.empty(0, dtype=np.int64)
    if spec.n_unlabeled > 0:
        xu, yu = _sample_block(rng, spec, _split_counts(spec.n_unlabeled, c))
        unlabeled = Dataset(spec.target_transform(xu))

    test = None
    if spec.n_test > 0:
        xt, yt = _sample_block(rng, spec, _split_counts(spec.n_test, c))
        test = Dataset(spec.target_transform(xt), yt)

    return DomainBundle(source, labeled, unlabeled, c, test), yu


def generate_shift(spec: SynthShiftSpec) -> DomainBundle:
    """Draw the bundle described by ``spec`` (deterministic per seed)."""
    return _generate(spec)[0]


def unlabeled_truth(spec: SynthShiftSpec) -> np.ndarray:
    """The class ids the unlabeled split was drawn with (for evaluation only)."""
    return _generate(spec)[1]


# stream label separating noise-view draws from every other seeded stream
_NOISE_STREAM = 104729


def augment_noise_view(bundle: DomainBundle, n_noise: int, seed: int) -> DomainBundle:
    """A second view: the original features plus independent noise dims.

    Appends ``n_noise`` standard-normal feature rows to every split
    (draw order: source, target labeled, target unlabeled, target test),
    keeping labels as they are.  Used to exercise the multi-view solver
    on single-view data; deterministic per seed.
    """
    check_int("n_noise", n_noise, 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _NOISE_STREAM]))

    def aug(ds: Dataset | None) -> Dataset | None:
        if ds is None:
            return None
        noise = rng.standard_normal((n_noise, ds.n))
        return Dataset(np.vstack([ds.features, noise]), ds.labels)

    return DomainBundle(
        aug(bundle.source),
        aug(bundle.target_labeled),
        aug(bundle.target_unlabeled),
        bundle.n_classes,
        aug(bundle.target_test),
    )
