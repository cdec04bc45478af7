"""Frozen random hidden layers and optional feature standardization.

The classifiers in this package never train their hidden layer.  A
:class:`HiddenMap` draws its input weights and biases i.i.d. uniform on
``[0, 1]`` once (weights first, then biases, from one PCG64 stream) and
is then immutable; learning happens entirely in the output weights.

:func:`map_features` is one blocked kernel.  The activations are laid out
hidden-unit-major (an F-ordered ``n x L`` matrix) and the bias add and
the activation run in place, one block of about ``_BLOCK`` entries (a
few rows) at a time, while the block is still in cache.  Given output
weights it returns the scores ``act(W x + b) @ weights`` block by block
from one reused buffer and never forms the ``n x L`` matrix, so scoring
needs O(block * L + n * c) memory rather than O(n * L).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DomainBundle, concat_features
from .errors import ParameterError, ShapeError

ACTIVATIONS = ("radbas", "sigmoid")


# activations per block (1 MiB of float64, inside a 2 MiB per-core L2)
_BLOCK = 1 << 17


# The activations overwrite their argument and return it.  They flip the
# sign with multiply(z, -1.0), which is exact: numpy 2.4.6's in-place
# negative(z, out=z) on AVX-512 reads the wrong elements when z is a view
# with a stride of 8 elements (a one-row block of 8 samples), writing
# -s[0], -s[1], ... where -s[0], -s[8], ... belong.
def _radbas(z: np.ndarray) -> np.ndarray:
    np.square(z, out=z)
    np.multiply(z, -1.0, out=z)
    return np.exp(z, out=z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)); exp(-z) overflows to inf below z ~ -709.8, where
    # the logistic is 0 in double precision, so the overflow is silenced
    np.multiply(z, -1.0, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


_ACT_FNS = {"radbas": _radbas, "sigmoid": _sigmoid}


def _as_int(name: str, value) -> int:
    """``value`` as an int; a string, float, bool or None raises
    ParameterError naming ``name``."""
    try:
        if isinstance(value, bool):  # operator.index takes True as 1
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


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
        if w.ndim != 2 or 0 in w.shape:
            raise ShapeError("weights must be 2-D (n_hidden x n_features) with "
                             f"at least one hidden unit and one input, got {w.shape}")
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
        object.__setattr__(self, "seed", _as_int("seed", self.seed))

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


def map_features(hidden_map: HiddenMap, data: Dataset,
                 weights: np.ndarray | None = None) -> np.ndarray:
    """Apply the hidden layer to a dataset, optionally projecting it.

    Without ``weights``, returns the ``n x n_hidden`` activation matrix
    whose row ``i`` is ``act(W @ x_i + b)``, F-ordered (hidden-unit-major).
    With ``weights`` (``n_hidden x c``), returns the ``n x c`` scores
    ``act(W @ x_i + b) @ weights``, computed in row blocks of about
    ``_BLOCK`` activations without forming the activation matrix.  The
    matrix equals the unblocked ``act((W @ X).T + b)`` bit for bit; the
    scores equal its product with ``weights`` bit for bit when the
    dataset fits in one block and up to rounding otherwise.  Feature
    dimension must match the map.
    """
    if data.dim != hidden_map.n_features:
        raise ShapeError(
            f"map expects {hidden_map.n_features} features, data has {data.dim}"
        )
    w, b, x = hidden_map.weights, hidden_map.biases[:, None], data.features
    act = _ACT_FNS[hidden_map.activation]
    n_hidden, n = w.shape[0], data.n
    rows = max(1, _BLOCK // n_hidden)
    if weights is None:
        # one product over all rows: a product per row block may round
        # differently in the last bits, and the matrix must not
        zt = w @ x
        for i in range(0, n, rows):
            z = zt[:, i:i + rows]
            z += b
            act(z)
        return zt.T
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[0] != n_hidden:
        raise ShapeError(f"weights must have shape ({n_hidden}, c) for a map of "
                         f"shape {w.shape}, got {weights.shape}")
    scores = np.empty((n, weights.shape[1]))
    buf = np.empty((n_hidden, min(rows, n)))
    for i in range(0, n, rows):
        xb = x[:, i:i + rows]
        z = buf[:, :xb.shape[1]]
        np.matmul(w, xb, out=z)
        z += b
        np.matmul(act(z).T, weights, out=scores[i:i + rows])
    return scores


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-feature affine rescaling fitted on source + labeled target:
    finite, read-only ``mean`` and ``std`` vectors of one length, every
    ``std > 0``.  A fitted model carries it and applies it to raw
    features before its hidden map."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        for name in ("mean", "std"):
            a = np.array(getattr(self, name), dtype=np.float64)
            if a.ndim != 1:
                raise ShapeError(f"field {name!r} must be a vector, got shape {a.shape}")
            if not np.isfinite(a).all():
                raise ParameterError(f"field {name!r} has non-finite entries")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if self.mean.shape != self.std.shape:
            raise ShapeError(f"fields 'mean' and 'std' differ in length: "
                             f"{self.mean.size} and {self.std.size}")
        if (self.std <= 0.0).any():
            raise ParameterError("field 'std' has entries <= 0")

    def apply(self, data: Dataset) -> Dataset:
        if data.dim != self.mean.size:
            raise ShapeError(f"standardizer has {self.mean.size} features, "
                             f"the input has {data.dim}")
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

