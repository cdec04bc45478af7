"""Text serialization of fitted models.

Every model is one plain JSON file (binary-free, diff-friendly); floats
are written with full round-trip precision.  A multi-view file holds one
block per view under ``views`` (hidden map, ``beta``, ``theta`` and, for
a standardized fit, ``standardizer``: the fields of a single-view file)
beside the view-weight history, the objective history and the
parameters.  The reweighting ``u`` and the view weights ``alpha`` are
derived, not written; :func:`load_model` ignores them in older files.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, fields

import numpy as np

from .errors import ParseError
from .features import HiddenMap, Standardizer
from .multiview import MvEdaModel
from .single import EdaModel, EdaParams

__all__ = ["load_model", "save_model"]

_PARAM_NAMES = frozenset(f.name for f in fields(EdaParams))


def _map_block(hm: HiddenMap) -> dict:
    return {
        "weights": hm.weights.tolist(),
        "biases": hm.biases.tolist(),
        "activation": hm.activation,
        "seed": hm.seed,
    }


def _view_block(hm: HiddenMap, beta, theta, standardizer) -> dict:
    block = {
        "hidden_map": _map_block(hm),
        "beta": np.asarray(beta).tolist(),
        "theta": np.asarray(theta).tolist(),
    }
    if standardizer is not None:
        block["standardizer"] = {"mean": standardizer.mean.tolist(),
                                 "std": standardizer.std.tolist()}
    return block


def save_model(model, path: str) -> str:
    """Serialize a fitted model to one JSON file; returns the path written."""
    if isinstance(model, EdaModel):
        d = {
            "kind": "eda",
            **_view_block(model.hidden_map, model.beta, model.theta,
                          model.standardizer),
            "objective_history": model.objective_history.tolist(),
            "params": asdict(model.params),
        }
    elif isinstance(model, MvEdaModel):
        d = {
            "kind": "mveda",
            "views": [_view_block(*view) for view in zip(
                model.hidden_maps, model.betas, model.thetas,
                model.standardizers or [None] * model.n_views)],
            "alpha_history": model.alpha_history.tolist(),
            "objective_history": model.objective_history.tolist(),
            "params": asdict(model.params),
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(d, fh, indent=1)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# loading: every field is checked, and a bad one is named with its file
# ---------------------------------------------------------------------------


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _field(d, key: str, where: str):
    if not isinstance(d, dict) or key not in d:
        raise ParseError(f"{where}: missing field {key!r}")
    return d[key]


def _array(d, key: str, where: str) -> np.ndarray:
    raw = _field(d, key, where)
    with _naming(f"{where}: field {key!r}"):
        a = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ParseError(f"{where}: field {key!r} has non-finite entries")
    return a


def _params(d, where: str) -> EdaParams:
    raw = _field(d, "params", where)
    unknown = sorted(set(raw) - _PARAM_NAMES)
    if unknown:
        raise ParseError(f"{where}: field 'params' has unknown keys {unknown}")
    with _naming(f"{where}: params"):
        return EdaParams(**raw)


def _map_from_block(d, where: str) -> HiddenMap:
    blk = _field(d, "hidden_map", where)
    where = f"{where}: hidden_map"
    with _naming(where):
        return HiddenMap(_array(blk, "weights", where), _array(blk, "biases", where),
                         _field(blk, "activation", where), _field(blk, "seed", where))


def _standardizer(d, where: str) -> Standardizer | None:
    if "standardizer" not in d:
        return None
    blk = d["standardizer"]
    where = f"{where}: standardizer"
    with _naming(where):
        return Standardizer(_array(blk, "mean", where), _array(blk, "std", where))


def _view_fields(d, where: str) -> tuple:
    """Hidden map, beta, theta and standardizer (or None) of an ``eda``
    file or a view block."""
    return (_map_from_block(d, where), _array(d, "beta", where),
            _array(d, "theta", where), _standardizer(d, where))


@contextmanager
def _naming(where: str):
    """Re-raise a type or value error from inside as a ParseError that
    names ``where``."""
    try:
        yield
    except ParseError:
        raise
    except (TypeError, ValueError) as err:
        raise ParseError(f"{where}: {err}") from None


def load_model(path: str):
    """Load a model written by :func:`save_model`.

    A missing, malformed or non-finite field, an unknown parameter, a
    standardizer with a ``std <= 0``, or arrays whose shapes disagree
    with each other (a standardizer's length with its hidden map's
    input width) raise :class:`ParseError` naming the file (and the
    field).
    """
    with _naming(path):
        d = _read_json(path)
        kind = d.get("kind") if isinstance(d, dict) else None
        if kind == "eda":
            hm, beta, theta, st = _view_fields(d, path)
            return EdaModel(hm, beta, theta, _array(d, "objective_history", path),
                            _params(d, path), st)
        if kind == "mveda":
            views = [_view_fields(blk, f"{path}: view {i}")
                     for i, blk in enumerate(_field(d, "views", path))]
            sts = [view[3] for view in views]
            return MvEdaModel(
                *([view[j] for view in views] for j in range(3)),
                _array(d, "alpha_history", path),
                _array(d, "objective_history", path), _params(d, path),
                None if all(st is None for st in sts) else sts,
            )
        raise ParseError(f"{path}: unknown model kind {kind!r}")
