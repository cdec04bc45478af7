"""Seeded benchmark and parameter-sweep harness.

Protocol
--------
For every seed the harness regenerates (synthetic source) or resplits
(manifest source) the data with ``m`` labeled target samples per class,
then runs every requested method on the identical split with the
identical hidden map; a content hash of split plus map is asserted
across methods, so no method can quietly see different data.  Methods
with tunable weights are run over a small grid and reported two ways:
``best-on-grid`` (the grid point with the best mean test metric across
seeds - an optimistic, tuned-on-test selection) and ``fixed-default``
(the configured parameters as they are).

Each method builds its inputs once per seed.  View v is
:meth:`BenchConfig.view_bundle` of the seed's standardized bundle (so
its noise meets standardized features; ``edapt synth`` adds it to raw
ones), mapped by ``params.view_map``.  The adaptation methods differ
only in their pre-classifier scores, so they share each seed's view
problems: view v's bundle, hidden map, activations and target graph are
built once, on first use, and each method swaps in its own scores.
They sweep only the loss weights ``c_source``/``c_target``, which
change none of these, so each grid point only re-runs the alternating
solver.  The normal equations' weight-free Grams (``Hs'Hs``,
``Hu'Hu``, ``H'LH`` and ``Hs'Ts``) are likewise built once per seed and
primal view, before any point runs, and every method and grid point
scales copies of them; only the labeled Gram ``Ht'Ht``, of rank at
most ``m c``, is rebuilt per fit.  The test rows of each view and the
ELM baselines' training rows are mapped once per seed, on first use,
and shared by the methods that score or fit on them; the view
problems, the ELM pre-classifier and ``sselm`` map their own rows, so
some rows are mapped more than once.  No pre-classifier scores or baseline rows are
made unless a method uses them.

Each seed runs inside ``linalg._blas_threads_for`` at the order of its
largest factored matrix, so below the crossover it runs on one BLAS
thread and its reports do not depend on the inherited thread count.
Inside that pin every method's inputs and fit are built first, in this
process; then the seed's (method, point) runs, in report order, are
split round-robin among ``min(CPUs, runs)`` processes: this one and
forked children, which share the built inputs and send their results,
fit times and warnings back pickled.  They are merged in run order, so
the split changes no report bit, no warning's order and no error's
type.  A seed stays in this process alone on one CPU, without
``os.fork``, while other threads are alive, or at an order whose
solves already use every BLAS thread (:func:`_workers`).
Reports are plain text and CSV with deterministic content and file
names derived from a hash of the configuration, so rerunning a config
reproduces every report byte for byte.  The exception is the timing
CSV: it records wall-clock fit times (summed over the processes that
ran them), which are measurements, not derived values, and therefore
vary between runs.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import threading
import time
import traceback
import warnings
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .baselines import fit_elm, fit_sselm
from .data import (
    Dataset,
    DomainBundle,
    SynthShiftSpec,
    _class_means,
    augment_noise_view,
    concat_features,
    decode_labels,
    default_class_means,
    encode_labels,
    generate_shift,
    load_bundle,
    read_keyvalues,
)
from .errors import (ParameterError, ParseError, ShapeError, check_choice, check_int,
                     check_real)
from .features import (HiddenMap, _cpu_count, derive_view_seed, map_features,
                       standardize_bundle)
from .graph import build_knn_graph, check_graph_rows
from .linalg import _PIN_BELOW, _blas_threads_for
from .metrics import accuracy, mean_average_precision
from .preclassify import KERNELS, average_prelabels, builtin_prelabels
from .single import (EdaParams, EdaProblem, _alternate, _constant_grams, _fuse,
                     _in_sample_space, build_problem)

__all__ = [
    "BenchConfig",
    "BenchReport",
    "MethodSummary",
    "check_synthetic_graph",
    "default_config",
    "default_shift_spec",
    "emit_report",
    "emit_sweep",
    "load_config",
    "parse_config",
    "run_benchmark",
    "run_sweep",
    "split_map_hash",
    "synth_spec",
]

METHOD_LABELS = {
    "elm_s": "ELM (source only)",
    "elm_t": "ELM (target labels only)",
    "elm_st": "ELM (source + target labels)",
    "sselm": "SS-ELM (simplified)",
    "eda": "EDA",
    "eda_lap": "EDA (laplacian-kernel pre)",
    "eda_inv": "EDA (inverse-distance pre)",
    "eda_avg": "EDA (averaged kernel pre)",
    "mveda": "MvEDA",
}

METRICS = ("accuracy", "map")

# the methods that build no k-NN graph; ``sselm`` builds its graph on
# every training row, the adaptation methods on the target rows
_NO_GRAPH = ("elm_s", "elm_t", "elm_st")

_RESPLIT_STREAM = 7877  # seed stream label for manifest resplits


@dataclass(frozen=True)
class BenchConfig:
    """Everything a benchmark run depends on (hashable as text)."""

    data: str = "synth"
    methods: tuple = ("elm_s", "elm_t", "elm_st", "sselm", "eda")
    metric: str = "accuracy"
    seeds: tuple = tuple(range(10))
    m: int = 3
    grid: tuple = (1.0, 10.0, 100.0, 1000.0, 10000.0)
    rotation_deg: float = 30.0
    translation: tuple = (2.0, 0.0)
    scale: float = 1.0
    n_source: int = 150
    n_unlabeled: int = 150
    n_test: int = 150
    cov_scale: float = 0.16
    means: tuple | None = None
    views: int = 2
    noise_dim: int = 2
    pre_ridge: float = 1.0
    standardize: bool = True
    params: EdaParams = field(default_factory=lambda: EdaParams(n_hidden=200))

    def __post_init__(self):
        check_choice("metric", self.metric, METRICS)
        for method in self.methods:
            check_choice("method", method, sorted(METHOD_LABELS))
        # a repeated method or seed would repeat report rows and weigh
        # twice in every mean
        for name in ("methods", "seeds", "grid"):
            values = getattr(self, name)
            if not values:
                raise ParameterError(f"{name} must hold at least one value")
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ParameterError(
                    f"{name} values must be distinct; repeated {repeated}")
        check_int("seeds", self.seeds, 0)
        check_real("grid values", self.grid, 0.0, strict=True)
        for name in ("m", "views", "noise_dim"):
            check_int(name, getattr(self, name), 1)
        for name in ("pre_ridge", "cov_scale"):
            check_real(name, getattr(self, name), 0.0, strict=True)
        # the synthetic scenario is built per seed inside run_benchmark;
        # its spec checks the geometry and sample counts here, so that
        # load_config names the file and key
        synth_spec(self, 0)

    def view_bundle(self, bundle: DomainBundle, seed: int, view: int) -> DomainBundle:
        """View ``view`` of a seed's bundle: the bundle itself for view 0,
        after that the bundle with ``noise_dim`` standard-normal features
        appended, drawn from ``derive_view_seed(seed, view)``.  The bench
        and ``edapt synth`` make their views here."""
        if view == 0:
            return bundle
        return augment_noise_view(bundle, self.noise_dim, derive_view_seed(seed, view))


def check_synthetic_graph(config: BenchConfig) -> None:
    """Refuse, before any seed is built, a synthetic scenario with no test
    rows to score or whose smallest k-NN graph cannot hold
    ``n_neighbors`` (:func:`~edapt.graph.check_graph_rows`).  Only
    ``run_benchmark`` (which ``run_sweep`` calls with ``eda`` alone)
    checks it; a manifest's graph is checked there against the manifest,
    and a fit checks its own graph."""
    if config.data != "synth":
        return
    if config.n_test < 1:
        raise ParameterError(f"key 'n_test': the bench scores target_test rows, "
                             f"so n_test must be >= 1, got {config.n_test}")
    classes = len(config.means or default_class_means())
    _check_graph(config, config.m * classes + config.n_unlabeled, config.n_source,
                 "the synthetic scenario")


def _check_graph(config: BenchConfig, target_rows: int, source_rows: int,
                 holder: str) -> None:
    """Refuse an ``n_neighbors`` that the smallest k-NN graph of a seed
    cannot hold: over the target rows, plus the source rows when ``sselm``
    is the one method with a graph."""
    graph = {m for m in config.methods if m not in _NO_GRAPH}
    if graph:
        rows = target_rows + (source_rows if graph == {"sselm"} else 0)
        check_graph_rows(config.params.n_neighbors, rows, holder, "key 'n_neighbors'")


def default_config(**overrides) -> BenchConfig:
    """The stock benchmark configuration (narrow hidden layer for speed)."""
    return replace(BenchConfig(), **overrides) if overrides else BenchConfig()


def _kind(name: str, default):
    # how a config value parses: as its default's type, a tuple as a list of
    # its first element's type, ``means`` as rows
    if name == "means":
        return "rows"
    if isinstance(default, tuple):
        return f"{type(default[0]).__name__}list"
    return "bool" if isinstance(default, bool) else type(default)


_BENCH_KEYS = {f.name: _kind(f.name, f.default)
               for f in fields(BenchConfig) if f.name != "params"}

# solver parameters are given flat; each parses as its default's type
_PARAM_KEYS = {f.name: type(f.default) for f in fields(EdaParams)}


def _parse_value(kind, raw: str):
    if kind is str:
        return raw
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind == "bool":
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ParseError(f"expected a boolean, got {raw!r}")
    if kind == "strlist":
        return tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    if kind == "intlist":
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    if kind == "floatlist":
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if kind == "rows":
        # empty is the default (None), as config_text writes it
        return tuple(
            tuple(float(tok) for tok in row.split(",") if tok.strip())
            for row in raw.split(";")
            if row.strip()
        ) or None
    raise AssertionError(kind)


def parse_config(pairs: dict[str, str]) -> BenchConfig:
    """Build a config from ``key = value`` pairs (unknown keys rejected;
    a value that does not parse names its key)."""
    bench_kwargs = {}
    param_kwargs = {}
    for key, raw in pairs.items():
        kind = _BENCH_KEYS.get(key, _PARAM_KEYS.get(key))
        if kind is None:
            raise ParseError(f"unknown config key {key!r}")
        try:
            value = _parse_value(kind, raw)
        except ValueError:
            raise ParseError(f"key {key!r}: cannot parse {raw!r} as "
                             f"{getattr(kind, '__name__', kind)}") from None
        (bench_kwargs if key in _BENCH_KEYS else param_kwargs)[key] = value
    base = BenchConfig()
    params = replace(base.params, **param_kwargs) if param_kwargs else base.params
    return replace(base, params=params, **bench_kwargs)


def load_config(path: str) -> BenchConfig:
    """Read and parse a config file; errors name the file."""
    pairs = read_keyvalues(path)
    try:
        return parse_config(pairs)
    except (ParseError, ParameterError, ShapeError) as err:
        raise type(err)(f"{path}: {err}") from None


def config_text(config: BenchConfig) -> str:
    """Canonical key = value rendering (drives the config hash)."""
    lines = []
    for name in sorted(_BENCH_KEYS):
        v = getattr(config, name)
        lines.append(f"{name} = {_render_value(v)}")
    for name in sorted(_PARAM_KEYS):
        v = getattr(config.params, name)
        lines.append(f"{name} = {_render_value(v)}")
    return "\n".join(lines) + "\n"


def _render_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        if v and isinstance(v[0], tuple):
            return "; ".join(",".join(repr(float(x)) for x in row) for row in v)
        return ",".join(
            repr(float(x)) if isinstance(x, float) else str(x) for x in v
        )
    if v is None:
        return ""
    return str(v)


def config_hash(config: BenchConfig) -> str:
    return hashlib.sha256(config_text(config).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# per-seed data and the fair-comparison hash
# ---------------------------------------------------------------------------


def synth_spec(config: BenchConfig, seed: int) -> SynthShiftSpec:
    means = _class_means(default_class_means() if config.means is None
                         else config.means)
    c, d = means.shape
    cov = np.stack([config.cov_scale * np.eye(d)] * c)
    return SynthShiftSpec(
        means=means,
        covariances=cov,
        rotation_deg=config.rotation_deg,
        translation=np.asarray(config.translation, dtype=np.float64),
        scale=config.scale,
        n_source=config.n_source,
        n_labeled_per_class=config.m,
        n_unlabeled=config.n_unlabeled,
        n_test=config.n_test,
        seed=seed,
    )


def default_shift_spec(seed: int = 0, **overrides) -> SynthShiftSpec:
    """The stock synthetic scenario: :func:`synth_spec` of
    ``default_config(**overrides)``, so three Gaussian blobs on a
    120-degree star, isotropic variance 0.16, shifted in the target
    domain by a 30-degree rotation plus a (2, 0) translation unless
    overridden."""
    return synth_spec(default_config(**overrides), seed)


def resplit_bundle(bundle: DomainBundle, m: int, seed: int) -> DomainBundle:
    """Draw a fresh m-per-class labeled split from the labeled target pool.

    The pool is target_labeled plus target_test (both labeled).  The
    remaining pool rows become the test set and, with labels dropped,
    are appended to any original unlabeled rows as unlabeled training
    data - mirroring the transductive reuse of held-out target samples.
    """
    if bundle.target_test is None or bundle.target_test.labels is None:
        raise ParameterError("resplitting needs a labeled target_test pool")
    x = np.hstack([bundle.target_labeled.features, bundle.target_test.features])
    y = np.concatenate([bundle.target_labeled.labels, bundle.target_test.labels])
    rng = np.random.default_rng(np.random.SeedSequence([seed, _RESPLIT_STREAM]))
    perm = rng.permutation(y.shape[0])
    labeled_idx = []
    for cls in range(bundle.n_classes):
        cls_idx = perm[y[perm] == cls]
        if cls_idx.shape[0] < m + 1:
            raise ParameterError(
                f"class {cls} has {cls_idx.shape[0]} pool samples; "
                f"need at least {m + 1} to split"
            )
        labeled_idx.extend(cls_idx[:m])
    labeled_idx = np.sort(np.asarray(labeled_idx))
    rest_idx = np.setdiff1d(np.arange(y.shape[0]), labeled_idx)
    unl_feats = x[:, rest_idx]
    if bundle.target_unlabeled is not None:
        unl_feats = np.hstack([unl_feats, bundle.target_unlabeled.features])
    return DomainBundle(
        bundle.source,
        Dataset(x[:, labeled_idx], y[labeled_idx]),
        Dataset(unl_feats),
        bundle.n_classes,
        Dataset(x[:, rest_idx], y[rest_idx]),
    )


def _seed_bundle(config: BenchConfig, seed: int,
                 base: DomainBundle | None) -> DomainBundle:
    if config.data == "synth":
        bundle = generate_shift(synth_spec(config, seed))
    else:
        bundle = resplit_bundle(base, config.m, seed)
    if config.standardize:
        bundle = standardize_bundle(bundle)
    return bundle


def _hash_update(h, a: np.ndarray | None):
    if a is None:
        h.update(b"none")
        return
    a = np.ascontiguousarray(a)
    h.update(str(a.shape).encode())
    h.update(a.tobytes())


def split_map_hash(bundle: DomainBundle, hidden_map: HiddenMap) -> str:
    """Content hash of a split plus hidden map (the fair-comparison token)."""
    h = hashlib.sha256()
    for ds in (bundle.source, bundle.target_labeled, bundle.target_unlabeled,
               bundle.target_test):
        if ds is None:
            h.update(b"missing")
            continue
        _hash_update(h, ds.features)
        _hash_update(h, ds.labels)
    _hash_update(h, hidden_map.weights)
    _hash_update(h, hidden_map.biases)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# method runners
# ---------------------------------------------------------------------------


# adaptation methods and the builtin pre-classifier each one anchors its
# unlabeled fidelity term to
_ADAPTATION_PRELABELS = {
    "eda": "elm",
    "eda_lap": "laplacian",
    "eda_inv": "inverse",
    "eda_avg": "average",
    "mveda": "elm",
}


@dataclass(frozen=True)
class _SeedContext:
    """Shared per-seed state every method consumes."""

    config: BenchConfig
    params: EdaParams  # the configured parameters with this seed
    bundle: DomainBundle
    hidden_map: HiddenMap
    t_source: np.ndarray
    t_labeled: np.ndarray
    y_test: np.ndarray
    token: str
    # view inputs, problems and Grams, pre-classifier scores and split
    # activations: each built on first use, shared by the seed's methods
    cache: dict = field(default_factory=dict)

    def _once(self, key: tuple, make):
        if key not in self.cache:
            self.cache[key] = make()
        return self.cache[key]

    def activations(self, part: str, view: int = 0) -> np.ndarray:
        """View ``view``'s map of its bundle's split ``part``: the test
        rows every method scores, and the ELM baselines' training rows."""
        def make():
            bundle, hidden_map = self.inputs(view)
            return map_features(hidden_map, getattr(bundle, part))
        return self._once(("activations", part, view), make)

    def inputs(self, view: int) -> tuple[DomainBundle, HiddenMap]:
        """View ``view``'s bundle and map: this seed's own for view 0, after
        that ``config.view_bundle`` of it with ``params.view_map``."""
        if view == 0:
            return self.bundle, self.hidden_map

        def make():
            bundle = self.config.view_bundle(self.bundle, self.params.seed, view)
            return bundle, self.params.view_map(bundle.target_dim, view)
        return self._once(("inputs", view), make)

    def prelabels(self, name: str, view: int) -> np.ndarray:
        """Builtin pre-classifier ``name``'s scores on view ``view``;
        ``average`` is the mean of the cached kernel ridges."""
        def make():
            if name == "average":
                return average_prelabels([self.prelabels(k, view) for k in KERNELS])
            return builtin_prelabels(name, *self.inputs(view), self.config.pre_ridge)
        return self._once((name, view), make)

    def problem(self, name: str, view: int) -> EdaProblem:
        """View ``view``'s problem anchored to pre-classifier ``name``'s
        scores.  The problem is built once per seed; each pre-classifier
        swaps in its own scores."""
        phi = self.prelabels(name, view)

        def make():
            bundle, hidden_map = self.inputs(view)
            return build_problem(bundle, phi, self.params, hidden_map)[0]
        return replace(self._once(("problem", view), make), prelabels=phi)

    def grams(self, view: int, prob: EdaProblem) -> dict | None:
        """View ``view``'s weight-free Grams (:func:`_constant_grams`), or
        None when its fits solve in sample space.  A grid point's loss
        weights are positive, so it solves in sample space whenever the
        configured weights do."""
        def make():
            return None if _in_sample_space(prob, self.params) else _constant_grams(prob)
        return self._once(("grams", view), make)


@dataclass(frozen=True)
class _GridResult:
    point: tuple
    value: float
    history: list | None = None
    alphas: np.ndarray | None = None  # per-iteration view weights (mveda)


def _score(config: BenchConfig, scores: np.ndarray, y_test: np.ndarray) -> float:
    if config.metric == "accuracy":
        return accuracy(decode_labels(scores), y_test)
    return mean_average_precision(scores, y_test)


def _elm_rows(method: str, ctx: _SeedContext):
    if method == "elm_s":
        return ctx.activations("source"), ctx.t_source
    if method == "elm_t":
        return ctx.activations("target_labeled"), ctx.t_labeled
    h = np.vstack([ctx.activations("source"), ctx.activations("target_labeled")])
    t = np.vstack([ctx.t_source, ctx.t_labeled])
    return h, t


def _ridge_fit(method: str, ctx: _SeedContext, p: EdaParams):
    """The ELM-like method's fit: ``ridge -> (test scores, None, None)``."""
    h_test = ctx.activations("target_test")
    if method != "sselm":
        h, t = _elm_rows(method, ctx)
        return lambda ridge: (h_test @ fit_elm(h, t, ridge), None, None)
    b = ctx.bundle
    x_all = Dataset(concat_features(*(d for d in (
        b.source, b.target_labeled, b.target_unlabeled) if d is not None)))
    h_all = map_features(ctx.hidden_map, x_all)
    t_lab = np.vstack([ctx.t_source, ctx.t_labeled])
    graph = build_knn_graph(x_all, p.n_neighbors)
    return lambda ridge: (
        h_test @ fit_sselm(h_all, t_lab, ridge, p.manifold_weight, graph), None, None)


def _adaptation_fit(method: str, ctx: _SeedContext, p: EdaParams):
    """The method's fit on its seed's shared view problems:
    ``(c_source, c_target) -> (test scores, objective history, view
    weights per round or None)``.

    The loss weights change neither the hidden activations nor the
    graph, so each grid point only re-runs the alternating loop, on the
    seed's Grams of each primal view.  Test
    scores are ``sum_v alpha_v (H_test_v beta_v)``, fused by the helper that
    :func:`~edapt.multiview.predict_mveda` fuses with; one view has
    ``alpha = [1]``.
    """
    n_views = ctx.config.views if method == "mveda" else 1
    problems = [ctx.problem(_ADAPTATION_PRELABELS[method], v) for v in range(n_views)]
    h_tests = [ctx.activations("target_test", v) for v in range(n_views)]
    grams = [ctx.grams(v, prob) for v, prob in enumerate(problems)]

    def fit(cs: float, ct: float):
        betas, _, alphas, history = _alternate(
            problems, replace(p, c_source=cs, c_target=ct), grams)
        scores = _fuse(alphas[-1], [h @ beta for h, beta in zip(h_tests, betas)])
        return scores, history, np.asarray(alphas) if method == "mveda" else None

    return fit


def _method_points(method: str, ctx: _SeedContext):
    """The method's fit, its grid points in report order and its default
    point."""
    config = ctx.config
    if method in _ADAPTATION_PRELABELS:
        fit = _adaptation_fit(method, ctx, ctx.params)
        grid = [(float(cs), float(ct)) for cs in config.grid for ct in config.grid]
        return fit, grid, (config.params.c_source, config.params.c_target)
    fit = _ridge_fit(method, ctx, ctx.params)
    return fit, [(float(ridge),) for ridge in config.grid], (1.0,)


# ---------------------------------------------------------------------------
# one seed's points, split among forked processes
# ---------------------------------------------------------------------------


def _workers(n_tasks: int, order: int) -> int:
    """Processes that run a seed's ``n_tasks`` points: one per CPU of the
    affinity mask, at most one per point.  One where the platform has no
    fork, where other threads are alive (a forked child can deadlock on a
    lock one of them held), or at an order whose solves already use every
    BLAS thread."""
    if not hasattr(os, "fork") or threading.active_count() > 1 or order >= _PIN_BELOW:
        return 1
    return min(_cpu_count(), n_tasks)


def _plain(caught) -> list[tuple]:
    # recorded warnings as picklable (message, filename, lineno)
    return [(w.message, w.filename, w.lineno) for w in caught]


def _reemit(warned, registry: dict) -> None:
    for message, filename, lineno in warned:
        warnings.warn_explicit(message, type(message), filename, lineno,
                               registry=registry)


def _run_share(tasks: list, share, ctx: _SeedContext) -> list[tuple]:
    """Run the tasks numbered ``share`` in order, each under recorded
    warnings, until one raises.  Returns ``(i, outcome, warnings)`` per
    task run; the outcome is ``(result, fit seconds)`` or the exception."""
    ran = []
    for i in share:
        _, fit, point = tasks[i]
        with warnings.catch_warnings(record=True) as caught:
            try:
                t0 = time.perf_counter()
                scores, history, alphas = fit(*point)
                seconds = time.perf_counter() - t0
                outcome = (_GridResult(point, _score(ctx.config, scores, ctx.y_test),
                                       history, alphas), seconds)
            except Exception as err:
                outcome = err
        ran.append((i, outcome, _plain(caught)))
        if isinstance(outcome, Exception):
            break
    return ran


def _child(tasks: list, share, ctx: _SeedContext, w: int):
    """A forked child's whole life: run ``share``, write the outcomes to
    pipe end ``w`` pickled, and leave without returning into the parent's
    stack (exit status 0 once the report is written in full)."""
    code = 1
    try:
        with os.fdopen(w, "wb") as pipe:
            pickle.dump(_run_share(tasks, share, ctx), pipe)
        code = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _reap(pid: int, r: int) -> tuple[list | None, int]:
    """Read a child's pipe to its end and wait for the child: ``(its
    outcomes, or None if it did not report in full, exit status)``."""
    with os.fdopen(r, "rb") as pipe:
        data = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return (pickle.loads(data) if status == 0 else None), status


def _run_points(tasks: list, ctx: _SeedContext, order: int) -> list[tuple]:
    """Run each ``(method, fit, point)`` task of a seed; returns ``(result,
    fit seconds)`` per task, in task order.

    With ``n = _workers(...)``, task ``i`` runs in process ``i % n``: the
    parent is process 0, the rest are forked children that inherit the
    seed's built inputs and send their outcomes back pickled over a pipe.
    Each task's warnings are recorded and warned again here in task
    order, and the first task to raise, in task order, is raised again
    with its type and a message naming its method, seed and point, so
    any worker count warns and raises as the serial run does.  Every
    child is waited for before this returns or raises.
    """
    n = _workers(len(tasks), order)
    children = []  # (pid, read end of its pipe)
    # under the "default" action a warning repeated at many points shows
    # once per seed, not once per point
    registry = {}
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                # Python 3.12 warns when it forks a process with threads;
                # the warning is warned again once the child is counted,
                # so an error filter cannot lose the child
                with warnings.catch_warnings(record=True) as forked:
                    warnings.simplefilter("always")
                    pid = os.fork()
                if pid == 0:
                    _child(tasks, range(k, len(tasks), n), ctx, w)
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            children.append((pid, r))
            _reemit(_plain(forked), registry)
        ran = _run_share(tasks, range(0, len(tasks), n), ctx)
    finally:
        reports = [_reap(pid, r) for pid, r in children]
    seed = ctx.params.seed
    for report, status in reports:
        if report is None:
            how = f"killed by signal {-status}" if status < 0 else f"exit status {status}"
            raise RuntimeError(f"seed {seed}: a bench worker process ended without "
                               f"reporting its points ({how})")
        ran += report
    outcomes = {i: (outcome, warned) for i, outcome, warned in ran}
    done = []
    for i, (method, _, point) in enumerate(tasks):
        outcome, warned = outcomes[i]
        _reemit(warned, registry)
        if isinstance(outcome, Exception):
            where = f"{method} at seed {seed}, point {_fmt_point(point)}"
            try:
                named = type(outcome)(f"{where}: {outcome}")
            except TypeError:  # a type that takes other arguments: raise it as it is
                raise outcome from None
            raise named from outcome
        done.append(outcome)
    return done


# ---------------------------------------------------------------------------
# benchmark driver and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodSummary:
    method: str
    label: str
    best_point: tuple
    best_mean: float
    best_std: float
    default_point: tuple
    default_mean: float
    default_std: float


@dataclass(frozen=True)
class BenchReport:
    config: BenchConfig
    config_hash: str
    summaries: list
    per_seed: list      # (method, seed, point, value)
    convergence: list   # (run_id, iteration, objective)
    view_weights: list  # (run_id, iteration, view, weight), mveda runs only
    timing: list        # (method, seed, n_fits, seconds)
    split_hashes: list  # (seed, token)


def _context(config: BenchConfig, seed: int, base: DomainBundle | None) -> _SeedContext:
    bundle = _seed_bundle(config, seed, base)
    params = replace(config.params, seed=seed)
    hidden_map = params.view_map(bundle.target_dim)
    return _SeedContext(
        config=config,
        params=params,
        bundle=bundle,
        hidden_map=hidden_map,
        t_source=encode_labels(bundle.source.labels, bundle.n_classes),
        t_labeled=encode_labels(bundle.target_labeled.labels, bundle.n_classes),
        y_test=bundle.target_test.labels,
        token=split_map_hash(bundle, hidden_map),
    )


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Run every configured method over every seed; see the module docs."""
    check_synthetic_graph(config)
    try:
        base = None if config.data == "synth" else load_bundle(config.data)
    except (ParameterError, ParseError, ShapeError) as err:
        raise type(err)(f"key 'data': {err}") from None
    if base is not None:
        if base.target_test is None or base.target_test.labels is None:
            raise ParameterError(f"key 'data': {config.data} has no labeled "
                                 "target_test split, which the bench resplits and scores")
        if "mveda" in config.methods:
            raise ParameterError(
                "mveda benchmarking on manifest data is not supported; "
                "use synthetic data or fit_mveda directly"
            )
        try:  # the pool holds the same rows of each class whatever the seed
            resplit_bundle(base, config.m, config.seeds[0])
        except ParameterError as err:
            raise ParameterError(f"key 'm': {config.data}: {err}") from None
        # each seed resplits the labeled pool; its target rows are the
        # whole pool plus the unlabeled rows
        pool = base.target_labeled.n + base.target_test.n
        _check_graph(config, pool + base.n_unlabeled, base.source.n, config.data)
    defaults: dict[str, list[float]] = {m: [] for m in config.methods}
    default_points: dict[str, tuple] = {}
    per_seed, convergence, view_weights, timing, split_hashes = [], [], [], [], []
    for seed in config.seeds:
        ctx = _context(config, seed, base)
        split_hashes.append((seed, ctx.token))
        # the seed's largest factored matrix: an L x L normal matrix or
        # the kernel pre-classifier's training block
        order = max(config.params.n_hidden,
                    ctx.bundle.source.n + ctx.bundle.target_labeled.n)
        with _blas_threads_for(order):
            # every method's inputs are built here, before any point runs,
            # so forked children share them; each method runs its grid in
            # report order, then its default point unless the grid holds it
            plans, tasks = [], []
            for method in config.methods:
                # fair comparison: every method must consume the same split
                # and hidden map this seed produced
                token = split_map_hash(ctx.bundle, ctx.hidden_map)
                if token != ctx.token:
                    raise AssertionError(
                        f"fair-comparison violation for {method!r} at seed {seed}"
                    )
                fit, grid, default_point = _method_points(method, ctx)
                points = grid + ([] if default_point in grid else [default_point])
                plans.append((method, len(grid), default_point, len(points)))
                tasks += [(method, fit, point) for point in points]
            outcomes = iter(_run_points(tasks, ctx, order))
        for method, n_grid, default_point, n_points in plans:
            ran = [next(outcomes) for _ in range(n_points)]
            for res, _ in ran[:n_grid]:
                per_seed.append((method, seed, res.point, res.value))
                if res.history is not None:
                    run_id = _run_id(method, seed, res.point)
                    for it, obj in enumerate(res.history, start=1):
                        convergence.append((run_id, it, float(obj)))
                if res.alphas is not None:
                    run_id = _run_id(method, seed, res.point)
                    for it, row in enumerate(res.alphas, start=1):
                        for v, w in enumerate(row):
                            view_weights.append((run_id, it, v, float(w)))
            default = next(res for res, _ in ran if res.point == default_point)
            defaults[method].append(default.value)
            default_points[method] = default.point
            timing.append((method, seed, n_points, sum(sec for _, sec in ran)))

    summaries = []
    for method in config.methods:
        grid = _point_stats(per_seed, method)
        best_point = max(grid, key=lambda pt: (grid[pt][0], _pt_key(pt)))
        dvals = defaults[method]
        summaries.append(MethodSummary(
            method=method,
            label=METHOD_LABELS[method],
            best_point=best_point,
            best_mean=grid[best_point][0],
            best_std=grid[best_point][1],
            default_point=default_points[method],
            default_mean=float(np.mean(dvals)),
            default_std=float(np.std(dvals)),
        ))
    return BenchReport(
        config=config,
        config_hash=config_hash(config),
        summaries=summaries,
        per_seed=per_seed,
        convergence=convergence,
        view_weights=view_weights,
        timing=timing,
        split_hashes=split_hashes,
    )


def _point_stats(per_seed: list, method: str) -> dict[tuple, tuple[float, float]]:
    """Mean and standard deviation of ``method``'s per-seed values at each
    grid point, points in grid order."""
    values: dict[tuple, list[float]] = {}
    for m, _, point, value in per_seed:
        if m == method:
            values.setdefault(point, []).append(value)
    return {pt: (float(np.mean(v)), float(np.std(v))) for pt, v in values.items()}


def _pt_key(pt: tuple) -> tuple:
    # deterministic tie break: prefer the lexicographically smallest point
    return tuple(-x for x in pt)


def _run_id(method: str, seed: int, point: tuple) -> str:
    tag = "_".join(_num(x) for x in point)
    return f"{method}_s{seed}_{tag}"


def _num(x: float) -> str:
    return f"{x:g}"


def _fmt_point(pt: tuple) -> str:
    return "/".join(_num(x) for x in pt)


_HEADER_NOTE = (
    "# splits: regenerated (synthetic) or reshuffled from the labeled target pool\n"
    "#         (manifest) per seed, m labeled target samples per class; all\n"
    "#         methods share each seed's split and hidden map (hash-checked)\n"
    "# selection: best-on-grid takes the grid point with the best mean test\n"
    "#         metric (optimistic, tuned on test); fixed-default uses the\n"
    "#         configured parameters unchanged\n"
)


def _write_report(out_dir: str, name: str, config_h: str, title: str,
                  lines: list[str]) -> str:
    """Write report file ``name``: the title line, the config line and the
    header note, then ``lines``; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {title}\n# config {config_h}\n{_HEADER_NOTE}")
        fh.writelines(f"{line}\n" for line in lines)
    return path


def _csv(header: str, rows) -> list[str]:
    # floats as repr, so they read back exactly; grid points as _fmt_point
    return [header] + [",".join(
        repr(x) if isinstance(x, float) else _fmt_point(x) if isinstance(x, tuple)
        else str(x) for x in row) for row in rows]


def emit_report(report: BenchReport, out_dir: str) -> dict[str, str]:
    """Write the report files; returns ``{name: path}``.

    ``results``/``per_seed``/``convergence``/``view_weights``/``table``/
    ``config`` are bytewise reproducible for a fixed config; ``timing``
    is not (it holds wall-clock measurements).  ``view_weights`` appears
    only when a multi-view method ran.  ``config`` loads back as a config.
    """
    h = report.config_hash
    files = [
        # one column per MethodSummary field, header and rows in field order
        ("results", "csv", "benchmark summary", _csv(
            ",".join(f.name for f in fields(MethodSummary)), map(astuple, report.summaries))),
        ("per_seed", "csv", "per-seed metric values",
         _csv("method,seed,point,value", report.per_seed)),
        ("convergence", "csv", "objective per iteration",
         _csv("run_id,iteration,objective", report.convergence)),
        ("view_weights", "csv", "view weights per iteration",
         _csv("run_id,iteration,view,weight", report.view_weights)),
        ("timing", "csv", "wall-clock fit times (not reproducible)",
         _csv("method,seed,n_fits,fit_seconds", report.timing)),
        ("table", "txt", "benchmark table", _render_table(report)),
        ("config", "txt", "configuration echo", [
            *config_text(report.config).splitlines(), "# per-seed split/map hashes",
            *(f"# seed {seed}: {token}" for seed, token in report.split_hashes)]),
    ]
    return {name: _write_report(out_dir, f"{name}_{h}.{ext}", h, title, lines)
            for name, ext, title, lines in files
            if name != "view_weights" or report.view_weights}


def _render_table(report: BenchReport) -> list[str]:
    headers = ("method", "best grid", "best", "default")
    rows = []
    for s in report.summaries:
        rows.append((
            s.label,
            _fmt_point(s.best_point),
            f"{s.best_mean:.4f} +- {s.best_std:.4f}",
            f"{s.default_mean:.4f} +- {s.default_std:.4f}",
        ))
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    for r in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return out


# ---------------------------------------------------------------------------
# parameter sweep
# ---------------------------------------------------------------------------


def run_sweep(config: BenchConfig) -> list[tuple[float, float, float, float]]:
    """Mean/std test metric of the adaptation solver on the full weight grid.

    Returns rows ``(c_source, c_target, mean, std)`` in grid order: the
    per-point aggregates of the benchmark's ``eda`` method.
    """
    report = run_benchmark(replace(config, methods=("eda",)))
    return [(cs, ct, mean, std)
            for (cs, ct), (mean, std) in _point_stats(report.per_seed, "eda").items()]


def emit_sweep(rows, config: BenchConfig, out_dir: str) -> str:
    """Write the sweep grid CSV; returns its path."""
    h = config_hash(config)
    return _write_report(out_dir, f"sweep_{h}.csv", h, "weight-grid sweep", _csv(
        "c_source,c_target,mean,std",
        [(_num(cs), _num(ct), mean, std) for cs, ct, mean, std in rows]))
