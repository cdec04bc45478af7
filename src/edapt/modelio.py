"""Text serialization of fitted models.

Every model file is plain JSON (binary-free, diff-friendly); floats are
written with full round-trip precision.  Multi-view models are saved as
a directory: one ``view<i>.json`` per view, the shared weights in
``alpha.txt`` (one value per line), and ``mveda.json`` with parameters
and objective history.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, fields

import numpy as np

from .baselines import ElmModel
from .errors import ParseError
from .features import HiddenMap
from .multiview import MvEdaModel
from .single import EdaModel, EdaParams, _check_view

__all__ = ["load_model", "save_model"]

_PARAM_NAMES = frozenset(f.name for f in fields(EdaParams))


def _map_block(hm: HiddenMap) -> dict:
    return {
        "weights": hm.weights.tolist(),
        "biases": hm.biases.tolist(),
        "activation": hm.activation,
        "seed": hm.seed,
    }


def _dump(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _view_block(hm: HiddenMap, beta, theta, u) -> dict:
    return {
        "kind": "eda_view",
        "hidden_map": _map_block(hm),
        "beta": np.asarray(beta).tolist(),
        "theta": np.asarray(theta).tolist(),
        "u": np.asarray(u).tolist(),
    }


def save_model(model, path: str) -> str:
    """Serialize a fitted model; returns the path written.

    ``ElmModel`` and ``EdaModel`` become single JSON files;
    ``MvEdaModel`` becomes a directory (``path`` is created).
    """
    if isinstance(model, ElmModel):
        _dump(
            {
                "kind": "elm",
                "hidden_map": _map_block(model.hidden_map),
                "beta": model.beta.tolist(),
                "ridge": model.ridge,
            },
            path,
        )
        return path
    if isinstance(model, EdaModel):
        _dump(
            {
                **_view_block(model.hidden_map, model.beta, model.theta, model.u),
                "kind": "eda",
                "objective_history": model.objective_history.tolist(),
                "params": asdict(model.params),
            },
            path,
        )
        return path
    if isinstance(model, MvEdaModel):
        os.makedirs(path, exist_ok=True)
        for v in range(model.n_views):
            _dump(
                _view_block(
                    model.hidden_maps[v], model.betas[v], model.thetas[v], model.us[v]
                ),
                os.path.join(path, f"view{v}.json"),
            )
        with open(os.path.join(path, "alpha.txt"), "w", encoding="utf-8",
                  newline="\n") as fh:
            for a in model.alpha:
                fh.write(f"{repr(float(a))}\n")
        _dump(
            {
                "kind": "mveda",
                "n_views": model.n_views,
                "alpha_history": model.alpha_history.tolist(),
                "objective_history": model.objective_history.tolist(),
                "params": asdict(model.params),
            },
            os.path.join(path, "mveda.json"),
        )
        return path
    raise TypeError(f"cannot serialize {type(model).__name__}")


# ---------------------------------------------------------------------------
# loading: every field is checked, and a bad one is named with its file
# ---------------------------------------------------------------------------


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _kind(d):
    return d.get("kind") if isinstance(d, dict) else None


def _field(d, key: str, where: str):
    if not isinstance(d, dict) or key not in d:
        raise ParseError(f"{where}: missing field {key!r}")
    return d[key]


def _array(d, key: str, where: str) -> np.ndarray:
    a = np.asarray(_field(d, key, where), dtype=np.float64)
    if not np.isfinite(a).all():
        raise ParseError(f"{where}: field {key!r} has non-finite entries")
    return a


def _params(d, where: str) -> EdaParams:
    raw = _field(d, "params", where)
    unknown = sorted(set(raw) - _PARAM_NAMES)
    if unknown:
        raise ParseError(f"{where}: field 'params' has unknown keys {unknown}")
    return EdaParams(**raw)


def _map_from_block(d, where: str) -> HiddenMap:
    blk = _field(d, "hidden_map", where)
    where = f"{where}: hidden_map"
    with _naming(where):
        return HiddenMap(_array(blk, "weights", where), _array(blk, "biases", where),
                         _field(blk, "activation", where), _field(blk, "seed", where))


def _view_fields(d, where: str) -> tuple:
    """Hidden map, beta, theta and u of an ``eda`` file or a view file."""
    return (_map_from_block(d, where), _array(d, "beta", where),
            _array(d, "theta", where), _array(d, "u", where))


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
    """Load a model written by :func:`save_model` (file or directory).

    A missing, malformed or non-finite field, an unknown parameter, or
    arrays whose shapes disagree with each other raise
    :class:`ParseError` naming the file (and the field).
    """
    with _naming(path):
        return _load(path)


def _load(path: str):
    if os.path.isdir(path):
        head_path = os.path.join(path, "mveda.json")
        with _naming(head_path):
            head = _read_json(head_path)
            if _kind(head) != "mveda":
                raise ParseError(f"{head_path}: wrong kind {_kind(head)!r}")
            n_views = _field(head, "n_views", head_path)
            views, c = [], None
            for v in range(n_views):
                where = os.path.join(path, f"view{v}.json")
                with _naming(where):
                    blk = _read_json(where)
                    if _kind(blk) != "eda_view":
                        raise ParseError(f"{where}: wrong kind {_kind(blk)!r}")
                    views.append(_view_fields(blk, where))
                    c = _check_view(*views[-1], c)
            where = os.path.join(path, "alpha.txt")
            with _naming(where), open(where, encoding="utf-8") as fh:
                alpha = np.array([float(line) for line in fh if line.strip()])
                if alpha.shape != (n_views,) or not np.isfinite(alpha).all():
                    raise ParseError(f"{where}: need {n_views} finite view "
                                     f"weights, got {alpha.tolist()}")
            return MvEdaModel(
                *(list(col) for col in zip(*views)), alpha,
                _array(head, "alpha_history", head_path),
                _array(head, "objective_history", head_path),
                _params(head, head_path),
            )
    d = _read_json(path)
    kind = _kind(d)
    if kind == "elm":
        return ElmModel(_map_from_block(d, path), _array(d, "beta", path),
                        _field(d, "ridge", path))
    if kind == "eda":
        return EdaModel(*_view_fields(d, path), _array(d, "objective_history", path),
                        _params(d, path))
    raise ParseError(f"{path}: unknown model kind {kind!r}")
