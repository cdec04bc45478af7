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

from .baselines import ElmModel, predict_scores
from .bench import (
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
    decode_labels,
    generate_shift,
    load_bundle,
    load_csv,
    load_multiview_bundles,
    read_keyvalues,
    save_bundle,
    save_csv,
    save_multiview_bundle,
    unlabeled_truth,
)
from .errors import ParameterError, ShapeError
from .features import (
    derive_view_seed,
    fit_standardizer,
    load_standardizer,
    new_hidden_map,
    save_standardizer,
    standardize_bundle,
)
from .modelio import load_model, save_model
from .multiview import MvEdaModel, fit_mveda, predict_mveda
from .preclassify import BUILTINS, builtin_prelabels, load_prelabels
from .single import EdaModel, fit_eda, predict_eda

__all__ = ["main"]

_ERRORS = (ParameterError, ValueError, RuntimeError, OSError)


def _bench_config(args):
    config = load_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        config = replace(config, seeds=(args.seed,))
    return config


def _write_labels(path: str, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


def _write_scores(path: str, scores: np.ndarray) -> None:
    # one row per sample, matching the feature CSV layout
    save_csv(Dataset(np.ascontiguousarray(scores.T)), path)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    config = load_config(args.config) if args.config else default_config()
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
    _write_labels(truth_path, truth)
    print(manifest)
    print(truth_path)
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _resolve_prelabels(spec: str, bundle, hidden_map, ridge: float) -> np.ndarray:
    if spec in BUILTINS:
        return builtin_prelabels(spec, bundle, hidden_map, ridge)
    return load_prelabels(spec)  # anything else is a CSV path


def _cmd_fit(args) -> int:
    config = load_config(args.config) if args.config else default_config()
    params = config.params
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    keys = read_keyvalues(args.manifest)
    multiview = any(k.startswith("view0_") for k in keys)
    os.makedirs(args.out_dir, exist_ok=True)
    specs = [tok.strip() for tok in args.prelabels.split(",") if tok.strip()]

    if multiview:
        bundles = load_multiview_bundles(args.manifest)
        if args.views is not None:
            if not 1 <= args.views <= len(bundles):
                raise ParameterError(
                    f"--views {args.views} out of range; manifest has {len(bundles)}"
                )
            bundles = bundles[: args.views]
        if config.standardize:
            # persist the rescaling so `predict` can apply it to raw CSVs
            sts = [fit_standardizer(b.source, b.target_labeled) for b in bundles]
            bundles = [standardize_bundle(b, st) for b, st in zip(bundles, sts)]
            for v, st in enumerate(sts):
                save_standardizer(
                    st, os.path.join(args.out_dir, f"standardizer_view{v}.txt")
                )
        if len(specs) == 1:
            specs = specs * len(bundles)
        if len(specs) != len(bundles):
            raise ParameterError(
                f"{len(specs)} prelabel specs for {len(bundles)} views"
            )
        maps = [
            new_hidden_map(params.n_hidden, b.target_dim, params.activation,
                           derive_view_seed(params.seed, v))
            for v, b in enumerate(bundles)
        ]
        phis = [
            _resolve_prelabels(s, b, m, config.pre_ridge)
            for s, b, m in zip(specs, bundles, maps)
        ]
        model = fit_mveda(bundles, phis, params, hidden_maps=maps)
        model_path = save_model(model, os.path.join(args.out_dir, "model"))
        unl = [b.target_unlabeled for b in bundles]
        have_unlabeled = all(d is not None for d in unl)
        if have_unlabeled:
            labels, scores, _ = predict_mveda(model, unl)
        print("view weights: " + " ".join(f"{a:.6f}" for a in model.alpha))
    else:
        if args.views not in (None, 1):
            raise ParameterError("--views only applies to multi-view manifests")
        bundle = load_bundle(args.manifest)
        if config.standardize:
            st = fit_standardizer(bundle.source, bundle.target_labeled)
            bundle = standardize_bundle(bundle, st)
            save_standardizer(st, os.path.join(args.out_dir, "standardizer.txt"))
        if len(specs) != 1:
            raise ParameterError("single-view fit takes exactly one prelabel spec")
        hidden_map = new_hidden_map(params.n_hidden, bundle.target_dim,
                                    params.activation, params.seed)
        phi = _resolve_prelabels(specs[0], bundle, hidden_map, config.pre_ridge)
        model = fit_eda(bundle, phi, params, hidden_map=hidden_map)
        model_path = save_model(model, os.path.join(args.out_dir, "model.json"))
        have_unlabeled = bundle.target_unlabeled is not None
        if have_unlabeled:
            labels, scores = predict_eda(model, bundle.target_unlabeled,
                                         detransform=args.detransform)

    history = model.objective_history
    print("objective: " + " ".join(repr(float(v)) for v in history))
    print(model_path)
    if have_unlabeled:
        lab_path = os.path.join(args.out_dir, "unlabeled_labels.csv")
        sc_path = os.path.join(args.out_dir, "unlabeled_scores.csv")
        _write_labels(lab_path, labels)
        _write_scores(sc_path, scores)
        print(lab_path)
        print(sc_path)
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def _apply_standardizers(model_path: str, datasets):
    """Rescale inputs with any standardizer files `fit` left beside the model."""
    base = os.path.dirname(os.path.abspath(model_path))
    single = os.path.join(base, "standardizer.txt")
    if len(datasets) == 1 and os.path.exists(single):
        return [_standardize(single, datasets[0])]
    out = []
    for v, ds in enumerate(datasets):
        per_view = os.path.join(base, f"standardizer_view{v}.txt")
        out.append(_standardize(per_view, ds) if os.path.exists(per_view) else ds)
    return out


def _standardize(path: str, data: Dataset) -> Dataset:
    st = load_standardizer(path)
    if st.mean.shape[0] != data.dim:
        raise ShapeError(
            f"{path}: standardizer has {st.mean.shape[0]} features, "
            f"the input has {data.dim}"
        )
    return st.apply(data)


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    datasets = [load_csv(p) for p in args.features]
    datasets = _apply_standardizers(args.model, datasets)
    if isinstance(model, MvEdaModel):
        if args.detransform:
            raise ParameterError(
                "--detransform applies to single-view adaptation models"
            )
        labels, scores, _ = predict_mveda(model, datasets)
    elif isinstance(model, EdaModel):
        if len(datasets) != 1:
            raise ParameterError("single-view models take exactly one feature CSV")
        labels, scores = predict_eda(model, datasets[0], detransform=args.detransform)
    elif isinstance(model, ElmModel):
        if args.detransform:
            raise ParameterError(
                "--detransform applies to single-view adaptation models"
            )
        if len(datasets) != 1:
            raise ParameterError("baseline models take exactly one feature CSV")
        scores = predict_scores(model, datasets[0])
        labels = decode_labels(scores)
    else:
        raise ParameterError(f"cannot predict with {type(model).__name__}")
    os.makedirs(args.out_dir, exist_ok=True)
    lab_path = os.path.join(args.out_dir, "predicted_labels.csv")
    sc_path = os.path.join(args.out_dir, "predicted_scores.csv")
    _write_labels(lab_path, labels)
    _write_scores(sc_path, scores)
    print(lab_path)
    print(sc_path)
    return 0


# ---------------------------------------------------------------------------
# bench / sweep
# ---------------------------------------------------------------------------


def _cmd_bench(args) -> int:
    config = _bench_config(args)
    report = run_benchmark(config)
    paths = emit_report(report, args.out_dir)
    for name in ("results", "per_seed", "convergence", "timing", "table", "config"):
        print(paths[name])
    return 0


def _cmd_sweep(args) -> int:
    config = _bench_config(args)
    rows = run_sweep(config)
    print(emit_sweep(rows, config, args.out_dir))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, seed=True, config=True, out_dir=True):
    if seed:
        sub.add_argument("--seed", type=int, default=None,
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
    p.add_argument("model", help="model file (or directory for multi-view)")
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
