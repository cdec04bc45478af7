"""Command line front end.

Five subcommands cover the experiment loop end to end::

    edapt synth   --seed 0 --out-dir data/
    edapt fit     data/manifest.txt --out-dir run/ --prelabels elm
    edapt predict run/model.json data/target_test_features.csv --out-dir run/
    edapt bench   --config bench.cfg --out-dir reports/
    edapt sweep   --config bench.cfg --out-dir reports/

Configs are ``key = value`` text files; see ``bench.BenchConfig`` for
the accepted keys (solver parameters are given flat, e.g.
``c_target = 1000``).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .bench import (
    check_synthetic_graph,
    default_config,
    emit_report,
    emit_sweep,
    load_config,
    run_benchmark,
    run_sweep,
    synth_spec,
)
from .data import (
    Dataset,
    augment_noise_view,
    generate_shift,
    load_bundle,
    load_csv,
    load_multiview_bundles,
    read_keyvalues,
    read_matrix_csv,
    save_bundle,
    save_csv,
    save_labels,
    save_multiview_bundle,
    unlabeled_truth,
)
from .errors import ParameterError, ShapeError
from .features import (
    derive_view_seed,
    fit_standardizer,
    new_hidden_map,
    standardize_bundle,
)
from .modelio import load_model, save_model
from .multiview import fit_mveda, predict_mveda
from .preclassify import BUILTINS, builtin_prelabels
from .single import predict_eda

__all__ = ["main"]

_ERRORS = (ParameterError, ValueError, RuntimeError, OSError)


def _config(args):
    return load_config(args.config) if args.config else default_config()


def _bench_config(args, methods=None):
    """The config of ``bench``, or of ``sweep`` with the ``methods`` it
    runs; the synthetic graph of those methods is checked here so that a
    refusal names the config file."""
    config = _config(args)
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    try:
        check_synthetic_graph(config if methods is None
                              else replace(config, methods=methods))
    except ParameterError as err:
        raise ParameterError(f"{args.config or 'the default config'}: {err}") from None
    return config


def _predict(model, datasets: list[Dataset], detransform: bool):
    """``(labels, scores)`` of a model on one dataset per view; undoing
    the class drift takes a one-view model."""
    if detransform:
        return predict_eda(model, datasets[0], detransform=True)
    return predict_mveda(model, datasets)[:2]


def _write_predictions(out_dir: str, stem: str, labels: np.ndarray,
                       scores: np.ndarray) -> None:
    """Write ``<stem>_labels.csv`` and ``<stem>_scores.csv`` (one row per
    sample, as in the feature CSVs) and print their paths."""
    lab_path = os.path.join(out_dir, f"{stem}_labels.csv")
    sc_path = os.path.join(out_dir, f"{stem}_scores.csv")
    save_labels(labels, lab_path)
    save_csv(Dataset(np.ascontiguousarray(scores.T)), sc_path)
    print(lab_path)
    print(sc_path)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    if args.views < 1:
        raise ParameterError(f"--views must be >= 1, got {args.views}")
    config = _config(args)
    seed = args.seed if args.seed is not None else config.params.seed
    spec = synth_spec(config, seed)
    bundle = generate_shift(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    if args.views > 1:
        bundles = [bundle] + [
            augment_noise_view(bundle, config.noise_dim, derive_view_seed(seed, v))
            for v in range(1, args.views)
        ]
        manifest = save_multiview_bundle(bundles, args.out_dir)
    else:
        manifest = save_bundle(bundle, args.out_dir)
    truth = unlabeled_truth(spec)
    truth_path = os.path.join(args.out_dir, "unlabeled_truth_labels.csv")
    save_labels(truth, truth_path)
    print(manifest)
    print(truth_path)
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _resolve_prelabels(spec: str, bundle, hidden_map, ridge: float) -> np.ndarray:
    if spec in BUILTINS:
        return builtin_prelabels(spec, bundle, hidden_map, ridge)
    scores = read_matrix_csv(spec)  # anything else is a CSV path
    want = (bundle.n_unlabeled, bundle.n_classes)
    if scores.shape != want:
        raise ShapeError(f"{spec}: prelabels must be {want} (unlabeled samples "
                         f"x classes), got {scores.shape}")
    return scores


def _cmd_fit(args) -> int:
    config = _config(args)
    params = config.params
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    multiview = any(k.startswith("view0_") for k in read_keyvalues(args.manifest))

    # the views depend on the manifest kind; the pipeline below runs
    # once over the view list for either kind
    if multiview:
        if args.detransform:
            raise ParameterError("--detransform applies to single-view fits")
        bundles = load_multiview_bundles(args.manifest)
        if args.views is not None:
            if not 1 <= args.views <= len(bundles):
                raise ParameterError(
                    f"--views {args.views} out of range; manifest has {len(bundles)}"
                )
            bundles = bundles[: args.views]
    else:
        if args.views not in (None, 1):
            raise ParameterError("--views only applies to multi-view manifests")
        bundles = [load_bundle(args.manifest)]

    rows = bundles[0].target_labeled.n + bundles[0].n_unlabeled
    if params.n_neighbors >= rows:
        raise ParameterError(
            f"{args.config or 'the default config'}: key 'n_neighbors': "
            f"{params.n_neighbors} needs at least {params.n_neighbors + 1} samples "
            f"for the k-NN graph, {args.manifest} has {rows}")
    specs = [tok.strip() for tok in args.prelabels.split(",") if tok.strip()]
    if len(specs) == 1:
        specs = specs * len(bundles)
    if len(specs) != len(bundles):
        raise ParameterError(f"{len(specs)} prelabel specs for {len(bundles)} views")
    os.makedirs(args.out_dir, exist_ok=True)
    # the model carries the rescaling it was fitted under and applies it
    # to raw features, so the unlabeled split is scored from `bundles`
    sts = None
    fit_bundles = bundles
    if config.standardize:
        sts = [fit_standardizer(b.source, b.target_labeled) for b in bundles]
        fit_bundles = [standardize_bundle(b, st) for b, st in zip(bundles, sts)]
    maps = [new_hidden_map(params.n_hidden, b.target_dim, params.activation,
                           derive_view_seed(params.seed, v))
            for v, b in enumerate(fit_bundles)]
    phis = [
        _resolve_prelabels(s, b, m, config.pre_ridge)
        for s, b, m in zip(specs, fit_bundles, maps)
    ]
    model = replace(fit_mveda(fit_bundles, phis, params, hidden_maps=maps),
                    standardizers=sts)
    model_path = save_model(model, os.path.join(args.out_dir, "model.json"))
    unlabeled = [b.target_unlabeled for b in bundles]
    have_unlabeled = all(d is not None for d in unlabeled)
    if have_unlabeled:
        labels, scores = _predict(model, unlabeled, args.detransform)
    if model.n_views > 1:
        print("view weights: " + " ".join(f"{a:.6f}" for a in model.alpha))
    history = model.objective_history
    print("objective: " + " ".join(repr(float(v)) for v in history))
    print(model_path)
    if have_unlabeled:
        _write_predictions(args.out_dir, "unlabeled", labels, scores)
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def _refuse_stale_standardizer(model_path: str, n_views: int) -> None:
    """Refuse a model without a standardizer that has a standardizer file
    beside it, where fits saved it before models carried it."""
    base = os.path.dirname(os.path.abspath(model_path))
    names = ["standardizer.txt"] + [f"standardizer_view{v}.txt" for v in range(n_views)]
    for name in names:
        path = os.path.join(base, name)
        if os.path.exists(path):
            raise ParameterError(
                f"{path}: standardizer file beside {model_path}, which carries "
                "no standardizer; a fit now keeps its rescaling inside the "
                "model file, so refit, or remove the file if the model was "
                "fitted on unscaled features")


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    multiview = model.n_views > 1
    if args.detransform and multiview:
        raise ParameterError("--detransform applies to single-view adaptation models")
    maps = model.hidden_maps
    if len(args.features) != len(maps):
        raise ParameterError(f"{args.model}: {len(maps)} view(s), one feature CSV "
                             f"per view, got {len(args.features)} CSV(s)")
    if model.standardizers is None:
        _refuse_stale_standardizer(args.model, len(maps))
    datasets = [load_csv(p) for p in args.features]
    for v, (path, hidden_map, ds) in enumerate(zip(args.features, maps, datasets)):
        if ds.dim != hidden_map.n_features:
            view = f" (view {v})" if multiview else ""
            raise ShapeError(f"{path}{view}: the input has {ds.dim} features, "
                             f"the model's hidden map takes {hidden_map.n_features}")
    labels, scores = _predict(model, datasets, args.detransform)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_predictions(args.out_dir, "predicted", labels, scores)
    return 0


# ---------------------------------------------------------------------------
# bench / sweep
# ---------------------------------------------------------------------------


def _cmd_bench(args) -> int:
    config = _bench_config(args)
    report = run_benchmark(config)
    for path in emit_report(report, args.out_dir).values():
        print(path)
    return 0


def _cmd_sweep(args) -> int:
    config = _bench_config(args, methods=("eda",))  # run_sweep runs eda alone
    rows = run_sweep(config)
    print(emit_sweep(rows, config, args.out_dir))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _seed(raw: str) -> int:
    """A ``--seed`` value: numpy's seeding takes only integers >= 0."""
    try:
        seed = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _add_common(sub, seed=True, config=True, out_dir=True):
    if seed:
        sub.add_argument("--seed", type=_seed, default=None,
                         help="override the configured seed")
    if config:
        sub.add_argument("--config", default=None,
                         help="key = value config file")
    if out_dir:
        sub.add_argument("--out-dir", default=".",
                         help="directory for output files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edapt",
        description="semi-supervised cross-domain classification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic cross-domain bundle")
    _add_common(p)
    p.add_argument("--views", type=int, default=1,
                   help="write this many views (extras get noise features)")
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("fit", help="fit the adaptation model from a manifest")
    p.add_argument("manifest", help="bundle manifest (key = value file)")
    _add_common(p)
    p.add_argument("--prelabels", default="elm",
                   help="builtin (elm|laplacian|inverse|average), a CSV path, "
                        "or a comma list with one entry per view")
    p.add_argument("--detransform", action="store_true",
                   help="undo the learned class drift when scoring unlabeled data")
    p.add_argument("--views", type=int, default=None,
                   help="use only the first N views of a multi-view manifest")
    p.set_defaults(func=_cmd_fit)

    p = subs.add_parser("predict", help="score feature CSVs with a saved model")
    p.add_argument("model", help="model JSON file written by fit")
    p.add_argument("features", nargs="+",
                   help="feature CSVs, one per view (one row per sample)")
    _add_common(p, seed=False, config=False)
    p.add_argument("--detransform", action="store_true",
                   help="undo the learned class drift before scoring")
    p.set_defaults(func=_cmd_predict)

    p = subs.add_parser("bench", help="run the seeded benchmark")
    _add_common(p)
    p.set_defaults(func=_cmd_bench)

    p = subs.add_parser("sweep", help="sweep the loss-weight grid")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
