"""Frozen random hidden layers and optional feature standardization.

The classifiers in this package never train their hidden layer.  A
:class:`HiddenMap` draws its input weights and biases i.i.d. uniform on
``[0, 1]`` once (weights first, then biases, from one PCG64 stream) and
is then immutable; learning happens entirely in the output weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, DomainBundle, concat_features
from .errors import ParameterError, ParseError, ShapeError

ACTIVATIONS = ("radbas", "sigmoid")


def _radbas(z: np.ndarray) -> np.ndarray:
    return np.exp(-np.square(z))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)); exp(-z) overflows to inf below z ~ -709.8, where
    # the logistic is 0 in double precision, so the overflow is silenced
    with np.errstate(over="ignore"):
        out = np.exp(-z)
    out += 1.0
    return np.reciprocal(out, out=out)


_ACT_FNS = {"radbas": _radbas, "sigmoid": _sigmoid}


@dataclass(frozen=True, eq=False)
class HiddenMap:
    """A frozen random single-hidden-layer feature map.

    Attributes
    ----------
    weights : ndarray, shape (n_hidden, n_features)
    biases : ndarray, shape (n_hidden,)
    activation : str
        ``"radbas"`` (``exp(-z**2)``) or ``"sigmoid"`` (logistic).
    seed : int
        The seed the map was drawn from (kept for provenance).
    """

    weights: np.ndarray
    biases: np.ndarray
    activation: str
    seed: int

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        b = np.array(self.biases, dtype=np.float64)
        if w.ndim != 2:
            raise ShapeError("weights must be 2-D (n_hidden x n_features)")
        if b.shape != (w.shape[0],):
            raise ShapeError(
                f"biases must have shape ({w.shape[0]},), got {b.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ParameterError(
                f"unknown activation {self.activation!r}; choose from {ACTIVATIONS}"
            )
        w.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def n_hidden(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


def new_hidden_map(
    n_hidden: int, n_features: int, activation: str = "radbas", seed: int = 0
) -> HiddenMap:
    """Draw a hidden map with entries i.i.d. uniform on [0, 1].

    Weights are drawn before biases from ``default_rng(seed)`` (PCG64),
    so the same arguments always reproduce the same map.
    """
    if n_hidden < 1 or n_features < 1:
        raise ParameterError("n_hidden and n_features must be >= 1")
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, size=(n_hidden, n_features))
    b = rng.uniform(0.0, 1.0, size=n_hidden)
    return HiddenMap(w, b, activation, seed)


def derive_view_seed(seed: int, view: int) -> int:
    """Deterministic per-view seed (SeedSequence entropy ``[seed, view]``)."""
    return int(np.random.SeedSequence([seed, view]).generate_state(1)[0])


def map_features(hidden_map: HiddenMap, data: Dataset) -> np.ndarray:
    """Apply the hidden layer to a dataset.

    Returns the ``n x n_hidden`` activation matrix whose row ``i`` is
    ``act(W @ x_i + b)``.  Feature dimension must match the map.
    """
    if data.dim != hidden_map.n_features:
        raise ShapeError(
            f"map expects {hidden_map.n_features} features, data has {data.dim}"
        )
    z = (hidden_map.weights @ data.features).T + hidden_map.biases
    return _ACT_FNS[hidden_map.activation](z)


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-feature affine rescaling fitted on source + labeled target."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, data: Dataset) -> Dataset:
        x = (data.features - self.mean[:, None]) / self.std[:, None]
        return Dataset(x, data.labels)


def fit_standardizer(*datasets: Dataset) -> Standardizer:
    """Fit per-feature mean/std over the given datasets' pooled columns.

    Features with zero spread get std 1 so they pass through centered.
    """
    x = concat_features(*datasets)
    mean = x.mean(axis=1)
    std = x.std(axis=1)
    std[std == 0.0] = 1.0
    return Standardizer(mean, std)


def standardize_bundle(
    bundle: DomainBundle, standardizer: Standardizer | None = None
) -> DomainBundle:
    """Return a bundle rescaled by statistics of source + labeled target.

    Pass ``standardizer`` to reuse fitted statistics (anything scored
    later must go through the same rescaling).  Requires source and
    target dims to agree.
    """
    st = standardizer or fit_standardizer(bundle.source, bundle.target_labeled)
    return DomainBundle(
        st.apply(bundle.source),
        st.apply(bundle.target_labeled),
        None if bundle.target_unlabeled is None else st.apply(bundle.target_unlabeled),
        bundle.n_classes,
        None if bundle.target_test is None else st.apply(bundle.target_test),
    )


def save_standardizer(standardizer: Standardizer, path: str) -> None:
    """Write a standardizer as two comma-separated lines (mean, std)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(repr(float(v)) for v in standardizer.mean) + "\n")
        fh.write(",".join(repr(float(v)) for v in standardizer.std) + "\n")


def _stat_line(line: str, path: str, name: str) -> np.ndarray:
    try:
        values = np.array([float(tok) for tok in line.split(",")])
    except ValueError as err:
        raise ParseError(f"{path}: field {name!r}: {err}") from None
    if not np.isfinite(values).all():
        raise ParseError(f"{path}: field {name!r} has non-finite entries")
    return values


def load_standardizer(path: str) -> Standardizer:
    """Read a standardizer written by :func:`save_standardizer`.

    A line that does not parse, a non-finite entry or a non-positive
    std raises :class:`ParseError` naming the file and the field.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if len(lines) != 2:
        raise ParseError(f"{path}: expected 2 lines (mean, std), got {len(lines)}")
    mean = _stat_line(lines[0], path, "mean")
    std = _stat_line(lines[1], path, "std")
    if mean.shape != std.shape:
        raise ParseError(f"{path}: mean and std lengths differ")
    if (std <= 0.0).any():
        raise ParseError(f"{path}: field 'std' has entries <= 0")
    return Standardizer(mean, std)
