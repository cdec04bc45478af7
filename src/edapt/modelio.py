"""Text serialization of fitted models.

Every model is one plain JSON file (binary-free, diff-friendly); floats
are written with full round-trip precision.  A one-view model is an
``eda`` file: its hidden map, ``beta``, ``theta`` and, for a
standardized fit, ``standardizer`` sit at the top level.  A model with
two or more views is an ``mveda`` file, which holds one such block per
view under ``views`` beside the view-weight history.  Both kinds hold
the objective history and the parameters, and both load as one
:class:`~edapt.single.EdaModel`; an ``eda`` file's view weights are all
ones.  The reweighting ``u`` and the view weights ``alpha`` are
derived, not written; :func:`load_model` ignores them in older files.
The file is one line of standard JSON: the records a model is built
from refuse non-finite entries, so no ``NaN`` token is ever written,
and :func:`load_model` leaves every value check to those records.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, fields

import numpy as np

from .errors import ParseError
from .features import HiddenMap, Standardizer
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
    try:
        per_view = zip(model.hidden_maps, model.betas, model.thetas,
                       model.standardizers or [None] * model.n_views)
    except AttributeError:
        raise TypeError(f"cannot serialize {type(model).__name__}") from None
    views = [_view_block(*view) for view in per_view]
    if len(views) == 1:
        d = {"kind": "eda", **views[0]}
    else:
        d = {"kind": "mveda", "views": views,
             "alpha_history": model.alpha_history.tolist()}
    d["objective_history"] = model.objective_history.tolist()
    d["params"] = asdict(model.params)
    # one json.dumps call runs CPython's C encoder over the whole tree;
    # json.dump, and any indent, run the pure-Python one
    text = json.dumps(d)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
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
        return np.asarray(raw, dtype=np.float64)


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


def load_model(path: str) -> EdaModel:
    """Load a model written by :func:`save_model`.

    A missing or malformed field, an unknown parameter, or any refusal
    of the records the model is built from (a non-finite entry, a
    ``std <= 0``, shapes that disagree, a one-view ``mveda`` file whose
    ``alpha_history`` is not all ones) raises :class:`ParseError`
    naming the file and the field.
    """
    with _naming(path):
        d = _read_json(path)
        kind = d.get("kind") if isinstance(d, dict) else None
        if kind == "eda":
            views = [_view_fields(d, path)]
        elif kind == "mveda":
            views = [_view_fields(blk, f"{path}: view {i}")
                     for i, blk in enumerate(_field(d, "views", path))]
        else:
            raise ParseError(f"{path}: unknown model kind {kind!r}")
        history = _array(d, "objective_history", path)
        # a one-view fit weighs its view by 1 in every round
        alphas = (np.ones((history.size, 1)) if kind == "eda"
                  else _array(d, "alpha_history", path))
        sts = [view[3] for view in views]
        return EdaModel(
            *([view[j] for view in views] for j in range(3)), alphas, history,
            _params(d, path), None if all(st is None for st in sts) else sts,
        )
