"""Symmetric positive-definite solves used by every closed-form update.

All model updates in this package are solutions of SPD linear systems.
They go through :func:`solve_spd`, which factorizes once (Cholesky) and
takes one step of iterative refinement, so that stationarity residuals
stay near machine precision even for badly scaled penalty weights.  One
step already gives componentwise backward stability (Skeel 1980; Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 12.2);
more passes leave the residual where the first one put it.  The factored
matrix is either the system itself or, for the output-weight solve of a
view with fewer samples than hidden units, the smaller sample-space
matrix that a caller-supplied correction map goes through; both take
the same refinement step; such a caller may also supply the first
iterate.  :func:`solve_spd` never inverts the matrix it factors; the one
explicit inverse in the package is the sample-space solve's target
weight block ``W_t^-1``, a term of the matrix ``S = W^-1 + Z D^-1 Z'``
that the Woodbury form factors.  :func:`cho_inverse` computes it from
the block's Cholesky factor (LAPACK ``potri``), not by solving against
an identity.

This is the one module that binds ``scipy.linalg``: :func:`cho_factor`,
:func:`cho_solve` and :func:`cho_inverse` pass through to scipy and
import it on their first call, so a process that solves nothing never
imports scipy.

BLAS threads.  A solve whose factored matrix has order below
``_PIN_BELOW`` runs single-threaded: in the solves of a fit, waking a
second OpenBLAS thread costs more than it saves at every order measured
below 3000.  :func:`_blas_threads_for` sets the thread count of every
OpenBLAS library numpy and scipy have loaded through its own
set-num-threads symbol (``ctypes``), and restores the inherited count
on exit.  Larger solves, and every product outside a solve, keep the
inherited count.  The libraries are found in ``/proc/self/maps`` and
their symbols looked up on the first pinned solve, after importing
``scipy.linalg`` so that scipy's OpenBLAS is mapped; if none is found,
solves keep the inherited count and a ``UserWarning`` says so once per
process.  The setting is process-global, so solves
running in several Python threads at once may see each other's count,
and that can change results, not only speed: the refinement residual
(``single.beta_gradient``) rounds differently on one and on two
OpenBLAS threads.  What the thread count does not change is a bench
report, whose seeds each run inside one pin.
"""

from __future__ import annotations

import ctypes
import os
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import NumericError

# Order of the factored matrix below which a solve runs on one BLAS thread:
# two threads first won in situ at 3000 (README, "BLAS threads").
_PIN_BELOW = 3000

# (get, set) num-threads symbol names, in lookup order: numpy's 64-bit
# build, scipy's build, then plain OpenBLAS
_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")
)

_controls: list | None = None  # [(get, set)] once looked up


def cho_factor(*args, **kwargs):
    """``scipy.linalg.cho_factor``; scipy is imported on the first call."""
    from scipy import linalg
    return linalg.cho_factor(*args, **kwargs)


def cho_solve(*args, **kwargs):
    """``scipy.linalg.cho_solve``; scipy is imported on the first call."""
    from scipy import linalg
    return linalg.cho_solve(*args, **kwargs)


def cho_inverse(factor) -> np.ndarray:
    """The inverse of the matrix whose :func:`cho_factor` is ``factor``,
    as a new, exactly symmetric array.

    LAPACK ``potri`` computes the triangle the factor holds, which is
    then mirrored into the other one; the factor is left as it was.
    scipy is imported on the first call.
    """
    from scipy.linalg import lapack
    c, lower = factor
    inv, info = lapack.dpotri(c, lower=lower)
    if info != 0:
        raise NumericError(f"inverse from a Cholesky factor failed (potri info {info})")
    strict_lower = np.tri(inv.shape[0], k=-1, dtype=bool)
    np.copyto(inv, inv.T, where=strict_lower.T if lower else strict_lower)
    return inv


def _loaded_libraries() -> list[str]:
    """Paths of the files mapped into this process (``/proc/self/maps``),
    each once; none where there is no such file."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.strip().split(maxsplit=5) for line in fh]
    except OSError:
        return []
    return list(dict.fromkeys(f[5] for f in fields if len(f) == 6 and f[5][0] == "/"))


def _find_controls() -> list:
    """The (get, set) thread-count functions of each loaded OpenBLAS."""
    # a pin can run before any solve has imported scipy; without this
    # its OpenBLAS is not mapped yet and keeps the inherited count
    import scipy.linalg  # noqa: F401

    controls = []
    for path in _loaded_libraries():
        if "openblas" not in os.path.basename(path).lower():
            continue
        lib = ctypes.CDLL(path)
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


def _blas_controls() -> list:
    """:func:`_find_controls`, looked up once per process; warns if empty."""
    global _controls
    if _controls is None:
        _controls = _find_controls()
        if not _controls:
            warnings.warn(
                "no OpenBLAS thread control found in the loaded libraries; "
                "SPD solves run with the inherited BLAS thread count",
                UserWarning,
            )
    return _controls


@contextmanager
def _blas_threads_for(order: int):
    """Run the body on one BLAS thread if ``order < _PIN_BELOW``."""
    if order >= _PIN_BELOW:
        yield
        return
    saved = [(set_, count) for get, set_ in _blas_controls() if (count := get()) != 1]
    for set_, _ in saved:
        set_(1)
    try:
        yield
    finally:
        for set_, count in saved:
            set_(count)


def solve_spd(
    a: np.ndarray, b: np.ndarray, jitter: float = 0.0, residual_fn=None,
    correction_fn=None, start_fn=None,
) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a``.

    Parameters
    ----------
    a : ndarray, shape (n, n)
        Symmetric positive-definite matrix.
    b : ndarray, shape (n,) or (n, m)
        Right-hand side.
    jitter : float
        If the factorization fails, retry once with ``jitter * I`` added
        and say so with a ``UserWarning``.  Zero disables the retry.
    residual_fn : callable, optional
        ``x -> b - a @ x`` evaluated the caller's way, once per solve.
        Refinement then drives *that* association of the residual to
        machine level, which matters when the caller checks stationarity
        against factored expressions rather than the assembled matrix.
    correction_fn : callable, optional
        ``(factor, r) -> x`` mapping a right-hand side or residual ``r``
        to its solution through ``factor``, the Cholesky factor of ``a``;
        defaults to the plain ``cho_solve``.  With it, ``a`` may be a
        smaller matrix the caller's system is solved through (a Woodbury
        capacitance matrix); ``b`` and ``residual_fn`` then belong to
        the caller's system.
    start_fn : callable, optional
        ``(factor, b) -> x0``, the first iterate; defaults to the
        correction map.  With it, ``b`` is whatever ``start_fn`` reads,
        such as a right-hand side of the factored system itself, and
        ``x0`` belongs to the caller's system.

    Returns
    -------
    ndarray
        Solution after one refinement pass:
        ``x0 + correction(factor, residual_fn(x0))``.

    Raises
    ------
    NumericError
        If the inputs or the solution are non-finite, or the
        factorization fails even after the jitter retry.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericError("non-finite entries in linear system")
    # a and b are checked above; scipy's own checks would repeat that
    with _blas_threads_for(a.shape[0]):
        try:
            factor = cho_factor(a, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            if jitter <= 0.0:
                raise NumericError("Cholesky factorization failed") from None
            try:
                a = a + jitter * np.eye(a.shape[0])
                factor = cho_factor(a, lower=True, check_finite=False)
            except np.linalg.LinAlgError:
                raise NumericError(
                    f"Cholesky factorization failed after jitter {jitter!r} retry"
                ) from None
            warnings.warn(
                f"Cholesky factorization of an order-{a.shape[0]} matrix failed; "
                f"solved with jitter {jitter!r} added to its diagonal",
                UserWarning, stacklevel=2,
            )
        if residual_fn is None:
            residual_fn = lambda x: b - a @ x  # noqa: E731
        correction = correction_fn or (
            lambda f, r: cho_solve(f, r, check_finite=False))
        # one pass of iterative refinement: penalty weights spanning 1..1e4
        # leave the system ill scaled enough that a bare solve can sit ~1e-7
        # off stationarity; one correction recovers it, further ones do not
        # shrink the residual
        x = (start_fn or correction)(factor, b)
        x = x + correction(factor, residual_fn(x))
    if not np.isfinite(x).all():
        raise NumericError("non-finite solution of linear system")
    return x
