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

Each method builds its inputs once per seed.  The adaptation methods
differ only in their pre-classifier scores, so they share each seed's
view problems: view v's bundle, hidden map, activations and target
graph are built once, on first use, and each method swaps in its own
scores.  They sweep only the loss weights ``c_source``/``c_target``,
which change none of these, so each grid point only re-runs the
alternating solver.  The normal equations' weight-free Grams (``Hs'Hs``,
``Hu'Hu``, ``H'LH`` and ``Hs'Ts``) are likewise built once per seed and
view, on first use, and every method and grid point scales copies of
them; only the labeled Gram ``Ht'Ht``, of rank at most ``m c``, is
rebuilt per fit.  The test rows of each view and the ELM baselines'
training rows are mapped once per seed, on first use, and shared by the
methods that score or fit on them; the view problems, the ELM
pre-classifier and ``sselm`` map their own rows, so some rows are
mapped more than once.  No pre-classifier scores or baseline rows are
made unless a method uses them.

Reports are plain text and CSV with deterministic content and file
names derived from a hash of the configuration, so rerunning a config
reproduces every report byte for byte.  The exception is the timing
CSV: it records wall-clock fit times, which are measurements, not
derived values, and therefore vary between runs.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .baselines import fit_elm, fit_sselm
from .data import (
    Dataset,
    DomainBundle,
    SynthShiftSpec,
    augment_noise_view,
    concat_features,
    decode_labels,
    default_class_means,
    encode_labels,
    generate_shift,
    load_bundle,
    read_keyvalues,
)
from .errors import ParameterError, ParseError
from .features import (
    HiddenMap,
    _as_int,
    derive_view_seed,
    map_features,
    new_hidden_map,
    standardize_bundle,
)
from .graph import build_knn_graph
from .metrics import accuracy, mean_average_precision
from .preclassify import KERNELS, average_prelabels, builtin_prelabels
from .single import EdaParams, EdaProblem, _alternate, build_problem

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
        if self.metric not in METRICS:
            raise ParameterError(f"unknown metric {self.metric!r}; choose from {METRICS}")
        unknown = [m for m in self.methods if m not in METHOD_LABELS]
        if unknown:
            raise ParameterError(
                f"unknown methods {unknown}; choose from {sorted(METHOD_LABELS)}"
            )
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
        if min(_as_int("seeds", s) for s in self.seeds) < 0:
            raise ParameterError(f"seeds must be >= 0, got {self.seeds}")
        if self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")
        # comparisons written so that NaN fails them
        if not all(0.0 < g < np.inf for g in self.grid):
            raise ParameterError(f"grid values must be positive and finite, "
                                 f"got {self.grid}")
        for name, least in (("views", 1), ("noise_dim", 1), ("n_source", 1),
                            ("n_unlabeled", 0), ("n_test", 0)):
            if getattr(self, name) < least:
                raise ParameterError(
                    f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("pre_ridge", "scale", "cov_scale"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ParameterError(f"{name} must be positive and finite, "
                                     f"got {getattr(self, name)!r}")
        if not np.isfinite(self.rotation_deg):
            raise ParameterError(f"rotation_deg must be finite, got {self.rotation_deg}")
        # the synthetic scenario is built per seed inside run_benchmark;
        # checking its geometry here lets load_config name the file and key
        if self.means is not None:
            widths = [len(row) for row in self.means]
            if len(widths) < 2 or min(widths) < 1 or len(set(widths)) != 1:
                raise ParameterError(
                    "means must be two or more rows of equal, non-zero length, "
                    f"got row lengths {widths}")
            if not np.isfinite(self.means).all():
                raise ParameterError("means must be finite")
        dim = default_class_means().shape[1] if self.means is None else len(self.means[0])
        if len(self.translation) != dim or not np.isfinite(self.translation).all():
            raise ParameterError(
                f"translation must be {dim} finite values (one per means column), "
                f"got {self.translation}")
        if self.rotation_deg != 0.0 and dim < 2:
            raise ParameterError(f"rotation_deg must be 0 with one means column, "
                                 f"got {self.rotation_deg}")


def check_synthetic_graph(config: BenchConfig) -> None:
    """Refuse, before any seed is built, a synthetic scenario with no test
    rows to score or whose smallest k-NN graph cannot hold
    ``n_neighbors``.  Only benchmark runs check it (``run_benchmark``,
    which ``run_sweep`` calls with ``eda`` alone, and the ``bench`` and
    ``sweep`` commands); a fit on a manifest checks against the manifest."""
    if config.data != "synth":
        return
    if config.n_test < 1:
        raise ParameterError(f"key 'n_test': the bench scores target_test rows, "
                             f"so n_test must be >= 1, got {config.n_test}")
    graph = {m for m in config.methods if m not in _NO_GRAPH}
    if graph:
        classes = len(config.means or default_class_means())
        rows = config.m * classes + config.n_unlabeled
        if graph == {"sselm"}:
            rows += config.n_source
        k = config.params.n_neighbors
        if k >= rows:
            raise ParameterError(
                f"key 'n_neighbors': {k} needs at least {k + 1} samples for "
                f"the k-NN graph, the synthetic scenario has {rows}")


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
    except (ParseError, ParameterError) as err:
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
    means = (default_class_means() if config.means is None
             else np.asarray(config.means, dtype=np.float64))
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
        """View ``view``'s bundle and map: this seed's own for view 0, a
        noise-augmented copy of the bundle with a map of its own after."""
        if view == 0:
            return self.bundle, self.hidden_map

        def make():
            view_seed = derive_view_seed(self.params.seed, view)
            bundle = augment_noise_view(self.bundle, self.config.noise_dim, view_seed)
            p = self.params
            return bundle, new_hidden_map(p.n_hidden, bundle.target_dim,
                                          p.activation, view_seed)
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
    seed's cached Grams of each primal view.  Test
    scores are ``sum_v alpha_v (H_test_v beta_v)``, as
    :func:`~edapt.multiview.predict_mveda` fuses them; one view has
    ``alpha = [1]``.
    """
    n_views = ctx.config.views if method == "mveda" else 1
    problems = [ctx.problem(_ADAPTATION_PRELABELS[method], v) for v in range(n_views)]
    h_tests = [ctx.activations("target_test", v) for v in range(n_views)]
    # each view's weight-free Grams, filled by the first primal fit
    grams = [ctx._once(("grams", v), dict) for v in range(n_views)]

    def fit(cs: float, ct: float):
        betas, _, alphas, history = _alternate(
            problems, replace(p, c_source=cs, c_target=ct), grams)
        scores = sum(a * (h @ beta) for a, h, beta in zip(alphas[-1], h_tests, betas))
        return scores, history, np.asarray(alphas) if method == "mveda" else None

    return fit


def _run_method(method: str, ctx: _SeedContext):
    """Returns (grid results, default-point result, fit seconds, n fits)."""
    config = ctx.config
    p = ctx.params
    if method in _ADAPTATION_PRELABELS:
        fit = _adaptation_fit(method, ctx, p)
        points = [(float(cs), float(ct)) for cs in config.grid for ct in config.grid]
        default_point = (config.params.c_source, config.params.c_target)
    else:
        fit = _ridge_fit(method, ctx, p)
        points = [(float(ridge),) for ridge in config.grid]
        default_point = (1.0,)
    elapsed = 0.0
    n_fits = 0

    def run(point: tuple) -> _GridResult:
        nonlocal elapsed, n_fits
        t0 = time.perf_counter()
        scores, history, alphas = fit(*point)
        elapsed += time.perf_counter() - t0
        n_fits += 1
        return _GridResult(point, _score(config, scores, ctx.y_test), history, alphas)

    results = [run(point) for point in points]
    default = next((r for r in results if r.point == default_point), None)
    if default is None:
        default = run(default_point)
    return results, default, elapsed, n_fits


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
    p = config.params
    hidden_map = new_hidden_map(p.n_hidden, bundle.target_dim, p.activation, seed)
    return _SeedContext(
        config=config,
        params=replace(p, seed=seed),
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
    base = None if config.data == "synth" else load_bundle(config.data)
    if base is not None and (base.target_test is None
                             or base.target_test.labels is None):
        raise ParameterError(f"key 'data': {config.data} has no labeled target_test "
                             "split, which the bench resplits and scores")
    if config.data != "synth" and any(m == "mveda" for m in config.methods):
        raise ParameterError(
            "mveda benchmarking on manifest data is not supported; "
            "use synthetic data or fit_mveda directly"
        )
    defaults: dict[str, list[float]] = {m: [] for m in config.methods}
    default_points: dict[str, tuple] = {}
    per_seed, convergence, view_weights, timing, split_hashes = [], [], [], [], []
    for seed in config.seeds:
        ctx = _context(config, seed, base)
        split_hashes.append((seed, ctx.token))
        for method in config.methods:
            # fair comparison: every method must consume the same split
            # and hidden map this seed produced
            token = split_map_hash(ctx.bundle, ctx.hidden_map)
            if token != ctx.token:
                raise AssertionError(
                    f"fair-comparison violation for {method!r} at seed {seed}"
                )
            results, default, elapsed, n_fits = _run_method(method, ctx)
            for res in results:
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
            defaults[method].append(default.value)
            default_points[method] = default.point
            timing.append((method, seed, n_fits, elapsed))

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
