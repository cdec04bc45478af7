"""Span tracing at edapt's layer boundaries, without touching the library.

A :class:`Tracer` wraps each boundary function at every binding the
library's own callers look it up through: ``solve_spd`` is imported by
name into ``single``, ``multiview``, ``baselines`` and ``preclassify``,
so replacing only ``edapt.linalg.solve_spd`` would miss every call.
:meth:`Tracer.installed` therefore scans all loaded ``edapt`` modules
for attributes that *are* the original function object and swaps each
one, restoring them on exit.

Each call records a span (name, start, end, parent span, operation id)
in memory; a few boundaries also record counts (Cholesky dimension,
content hashes of their inputs, rows mapped, bytes of Laplacian arrays,
solver rounds).  Spans are written out once, at the end of a run.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from edapt.data import Dataset, DomainBundle
from edapt.features import HiddenMap

# (span name, module the original is read from, attribute name)
BOUNDARIES = (
    ("lapack.cho_factor", "edapt.linalg", "cho_factor"),
    ("lapack.cho_solve", "edapt.linalg", "cho_solve"),
    ("linalg.solve_spd", "edapt.linalg", "solve_spd"),
    ("single.beta_gradient", "edapt.single", "beta_gradient"),
    ("graph.build_knn_graph", "edapt.graph", "build_knn_graph"),
    ("single.build_problem", "edapt.single", "build_problem"),
    ("preclassify.preclassify_elm", "edapt.preclassify", "preclassify_elm"),
    ("preclassify.preclassify_kernel", "edapt.preclassify", "preclassify_kernel"),
    ("baselines.fit_elm", "edapt.baselines", "fit_elm"),
    ("baselines.fit_sselm", "edapt.baselines", "fit_sselm"),
    ("bench.run_benchmark", "edapt.bench", "run_benchmark"),
    ("bench.run_sweep", "edapt.bench", "run_sweep"),
    ("bench.emit_report", "edapt.bench", "emit_report"),
    ("single.fit_eda", "edapt.single", "fit_eda"),
    ("multiview.fit_mveda", "edapt.multiview", "fit_mveda"),
    ("single.eda_objective", "edapt.single", "eda_objective"),
    ("multiview.mv_objective", "edapt.multiview", "mv_objective"),
    ("single.update_theta", "edapt.single", "update_theta"),
    ("multiview.update_alpha", "edapt.multiview", "update_alpha"),
    ("features.map_features", "edapt.features", "map_features"),
    ("single.predict_eda", "edapt.single", "predict_eda"),
    ("multiview.predict_mveda", "edapt.multiview", "predict_mveda"),
    ("modelio.save_model", "edapt.modelio", "save_model"),
    ("modelio.load_model", "edapt.modelio", "load_model"),
)
SPAN_NAMES = tuple(b[0] for b in BOUNDARIES)
ROOT = "op"
FITS = ("single.fit_eda", "multiview.fit_mveda")


def _problem_key(args: dict) -> tuple:
    # build_problem reads only these parameters; the loss weights that
    # differ between grid points do not change the problem it builds
    p = args["params"]
    used = (p.n_neighbors,) if args["hidden_map"] is not None else (
        p.n_neighbors, p.n_hidden, p.activation, p.seed)
    return args["bundle"], args["prelabels"], args["hidden_map"], used


# boundaries whose input content is hashed, for the .distinct_ratio counts:
# the bound arguments that determine the result
HASHED = {
    "graph.build_knn_graph": lambda a: tuple(a.values()),
    "single.build_problem": _problem_key,
    "preclassify.preclassify_elm": lambda a: tuple(a.values()),
}

STATS = ("calls", "self_s", "total_s")
# extra per-layer numbers beyond calls/self_s/total_s, with unit and direction
EXTRA = (
    ("lapack.cho_factor.gflop", "GFLOP", "lower"),
    ("lapack.cho_factor.gflop_per_s", "GFLOP/s", "higher"),
    ("single.beta_gradient.per_solve", "evals/solve", "lower"),
    ("graph.build_knn_graph.distinct_ratio", "fraction", "higher"),
    ("graph.laplacian_bytes", "bytes", "lower"),
    ("single.build_problem.distinct_ratio", "fraction", "higher"),
    ("preclassify.preclassify_elm.distinct_ratio", "fraction", "higher"),
    ("solver.rounds", "count", "lower"),
    ("features.map_features.rows", "count", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
# the same trace repeated with OPENBLAS_NUM_THREADS=1: time stats of the
# layers a thread policy can move, plus the traced operation wall time
SINGLE_THREAD_PREFIX = "st1."
SINGLE_THREAD_STATS = tuple(
    f"{name}.{stat}"
    for name in ("lapack.cho_factor", "lapack.cho_solve", "linalg.solve_spd",
                 "single.beta_gradient", "graph.build_knn_graph",
                 "single.fit_eda", "multiview.fit_mveda", "features.map_features",
                 "single.eda_objective", "preclassify.preclassify_elm",
                 "bench.run_benchmark", "bench.run_sweep")
    for stat in ("self_s", "total_s")
) + ("lapack.cho_factor.gflop_per_s", "trace.op_s")


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    units = {"calls": "count", "self_s": "s", "total_s": "s"}
    specs = [(f"{n}.{s}", units[s], "lower") for n in SPAN_NAMES for s in STATS]
    specs += list(EXTRA)
    by_name = {name: (unit, better) for name, unit, better in specs}
    specs += [(SINGLE_THREAD_PREFIX + name, *by_name[name])
              for name in SINGLE_THREAD_STATS]
    return specs


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    _feed(h, parts)
    return h.hexdigest()


def _feed(h, parts) -> None:
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(f"{p.shape}{p.dtype.str}".encode())
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, Dataset):
            _feed(h, (p.features, p.labels))
        elif isinstance(p, DomainBundle):
            _feed(h, (p.source, p.target_labeled, p.target_unlabeled, p.target_test,
                      p.n_classes))
        elif isinstance(p, HiddenMap):
            _feed(h, (p.weights, p.biases, p.activation))
        else:
            h.update(repr(p).encode())


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    info: dict

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._op = -1

    # -- recording ----------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, info) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = Span(sid, parent, self._op, name, t0, t1, info)

    @contextmanager
    def operation(self):
        """Root span of one operation; every span inside shares its id."""
        self._op += 1
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, ROOT, t0, {})

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in HASHED else None

        def traced(*args, **kwargs):
            info = {}
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info["hash"] = _digest(*HASHED[name](bound.arguments))
            elif name == "lapack.cho_factor":
                info["n"] = int(np.shape(args[0] if args else kwargs["a"])[0])
            elif name == "linalg.solve_spd":
                info["refined"] = (len(args) > 3 and args[3] is not None) or (
                    kwargs.get("residual_fn") is not None)
            elif name == "features.map_features":
                info["rows"] = int((args[1] if len(args) > 1 else kwargs["data"]).n)
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, t0, info)
            if name == "graph.build_knn_graph":
                info["bytes"] = int(result.adjacency.nbytes + result.degrees.nbytes
                                    + result.laplacian.nbytes)
            elif name in FITS:
                info["rounds"] = len(result.objective_history)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Swap every binding of every boundary for its traced wrapper."""
        swapped = []
        try:
            for name, modname, attr in BOUNDARIES:
                original = getattr(sys.modules[modname], attr)
                wrapper = self._wrap(name, original)
                for mname, mod in list(sys.modules.items()):
                    if mod is None or not (mname == "edapt" or mname.startswith("edapt.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            swapped.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(swapped):
                setattr(mod, key, original)

    # -- aggregation --------------------------------------------------------

    def op_stats(self) -> list[dict[str, float]]:
        """Per-layer numbers for each recorded operation, in order."""
        spans = [s for s in self.spans if s is not None]
        by_id = {s.sid: s for s in spans}
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
        ops: dict[int, list[Span]] = {}
        for s in spans:
            ops.setdefault(s.op, []).append(s)

        def inside(s: Span, names) -> bool:
            p = s.parent
            while p is not None:
                if by_id[p].name in names:
                    return True
                p = by_id[p].parent
            return False

        out = []
        for op in sorted(ops):
            members = ops[op]
            root = next(s for s in members if s.name == ROOT)
            st = {f"{n}.{k}": 0.0 for n in SPAN_NAMES for k in STATS}
            hashes: dict[str, set] = {n: set() for n in HASHED}
            flop = refined = rows = lap_bytes = rounds = 0
            for s in members:
                if s.name == ROOT:
                    continue
                st[f"{s.name}.calls"] += 1
                st[f"{s.name}.self_s"] += s.dur - child_time.get(s.sid, 0.0)
                if not inside(s, (s.name,)):
                    st[f"{s.name}.total_s"] += s.dur
                if s.name in HASHED:
                    hashes[s.name].add(s.info["hash"])
                flop += s.info.get("n", 0) ** 3 / 3.0
                refined += bool(s.info.get("refined"))
                rows += s.info.get("rows", 0)
                lap_bytes += s.info.get("bytes", 0)
                if s.name in FITS and not inside(s, FITS):
                    rounds += s.info["rounds"]
            chol_s = st["lapack.cho_factor.total_s"]
            st["lapack.cho_factor.gflop"] = flop / 1e9
            st["lapack.cho_factor.gflop_per_s"] = flop / 1e9 / chol_s if chol_s else 0.0
            st["single.beta_gradient.per_solve"] = (
                st["single.beta_gradient.calls"] / refined if refined else 0.0)
            for n in HASHED:
                calls = st[f"{n}.calls"]
                st[f"{n}.distinct_ratio"] = len(hashes[n]) / calls if calls else 0.0
            st["graph.laplacian_bytes"] = float(lap_bytes)
            st["solver.rounds"] = float(rounds)
            st["features.map_features.rows"] = float(rows)
            st["trace.op_s"] = root.dur
            st["trace.self_sum_s"] = root.dur - child_time.get(root.sid, 0.0) + sum(
                st[f"{n}.self_s"] for n in SPAN_NAMES)
            out.append(st)
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps({
                        "id": s.sid, "parent": s.parent, "op": s.op, "name": s.name,
                        "start": s.start, "end": s.end, **s.info}) + "\n")


def median_stats(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over operations of each per-layer number."""
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}
