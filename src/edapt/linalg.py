"""Symmetric positive-definite solves used by every closed-form update.

All model updates in this package are solutions of SPD linear systems.
They go through :func:`solve_spd`, which factorizes once (Cholesky) and
iterates refinement so that stationarity residuals stay near machine
precision even for badly scaled penalty weights.  The factored matrix is
either the system itself or, for the output-weight solve of a view with
fewer samples than hidden units, the smaller sample-space matrix that a
caller-supplied correction map goes through; both run the same
refinement loop.  System matrices are never inverted explicitly.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NumericError


def solve_spd(
    a: np.ndarray, b: np.ndarray, jitter: float = 0.0, residual_fn=None,
    correction_fn=None,
) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a``.

    Parameters
    ----------
    a : ndarray, shape (n, n)
        Symmetric positive-definite matrix.
    b : ndarray, shape (n,) or (n, m)
        Right-hand side.
    jitter : float
        If the factorization fails, retry once with ``jitter * I`` added.
        Zero disables the retry.
    residual_fn : callable, optional
        ``x -> b - a @ x`` evaluated the caller's way.  Refinement then
        drives *that* association of the residual to machine level,
        which matters when the caller checks stationarity against
        factored expressions rather than the assembled matrix.
    correction_fn : callable, optional
        ``(factor, r) -> x`` mapping a right-hand side or residual ``r``
        to its solution through ``factor``, the Cholesky factor of ``a``;
        defaults to the plain ``cho_solve``.  With it, ``a`` may be a
        smaller matrix the caller's system is solved through (a Woodbury
        capacitance matrix); ``b`` and ``residual_fn`` then belong to
        the caller's system.

    Returns
    -------
    ndarray
        Solution refined until its residual stops shrinking (at most
        four refinement passes).

    Raises
    ------
    NumericError
        If the inputs are non-finite or the factorization fails even
        after the jitter retry.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericError("non-finite entries in linear system")
    try:
        factor = cho_factor(a, lower=True)
    except np.linalg.LinAlgError:
        if jitter <= 0.0:
            raise NumericError("Cholesky factorization failed") from None
        try:
            a = a + jitter * np.eye(a.shape[0])
            factor = cho_factor(a, lower=True)
        except np.linalg.LinAlgError:
            raise NumericError(
                f"Cholesky factorization failed after jitter {jitter!r} retry"
            ) from None
    if residual_fn is None:
        residual_fn = lambda x: b - a @ x  # noqa: E731
    correction = correction_fn or cho_solve
    x = correction(factor, b)
    # iterative refinement: penalty weights spanning 1..1e4 leave the
    # system ill scaled enough that a bare solve can sit ~1e-7 off
    # stationarity; refining until the residual stalls recovers it
    res = residual_fn(x)
    rn = np.linalg.norm(res)
    for _ in range(4):
        if rn == 0.0:
            break
        x_new = x + correction(factor, res)
        res_new = residual_fn(x_new)
        rn_new = np.linalg.norm(res_new)
        if rn_new >= rn:
            break
        x, res, rn = x_new, res_new, rn_new
    return x
