"""Semi-supervised cross-domain classification with frozen random features.

A source domain with plentiful labels and a target domain with very few
(plus unlabeled target data) are fit jointly: one set of row-sparse
output weights serves both domains, a small square matrix absorbs the
class drift between them, pre-classifier scores anchor the unlabeled
samples, and a nearest-neighbor graph ties predictions to the target
manifold.  Every update in the alternating solver is closed form.

Entry points: :func:`fit_eda` / :func:`predict_eda` for a single feature
space, :func:`fit_mveda` / :func:`predict_mveda` for several views of
the same samples, :mod:`edapt.baselines` for the reference classifiers,
and the ``edapt`` command line for the full experiment loop.
"""

from .baselines import ElmModel, fit_elm, fit_sselm
from .bench import (
    BenchConfig,
    default_config,
    default_shift_spec,
    emit_report,
    emit_sweep,
    run_benchmark,
    run_sweep,
)
from .data import Dataset, DomainBundle, augment_noise_view, generate_shift
from .errors import (
    MetricError,
    NumericError,
    ParameterError,
    ParseError,
    ShapeError,
)
from .features import HiddenMap, derive_view_seed, new_hidden_map, standardize_bundle
from .graph import LaplacianGraph, build_knn_graph, quadratic_energy
from .metrics import accuracy, mean_average_precision
from .modelio import load_model, save_model
from .multiview import (
    MvEdaModel,
    fit_mveda,
    predict_mveda,
    update_beta_view,
    update_theta_view,
)
from .preclassify import preclassify_elm
from .single import (
    EdaModel,
    EdaParams,
    build_problem,
    fit_eda,
    l21_norm,
    predict_eda,
    update_beta,
    update_theta,
)

__version__ = "0.1.0"

# the documented surface (README, "Library"); everything else is
# imported from its module
__all__ = [
    "BenchConfig",
    "Dataset",
    "DomainBundle",
    "EdaModel",
    "EdaParams",
    "ElmModel",
    "HiddenMap",
    "LaplacianGraph",
    "MetricError",
    "MvEdaModel",
    "NumericError",
    "ParameterError",
    "ParseError",
    "ShapeError",
    "accuracy",
    "augment_noise_view",
    "build_knn_graph",
    "build_problem",
    "default_config",
    "default_shift_spec",
    "derive_view_seed",
    "emit_report",
    "emit_sweep",
    "fit_eda",
    "fit_elm",
    "fit_mveda",
    "fit_sselm",
    "generate_shift",
    "l21_norm",
    "load_model",
    "mean_average_precision",
    "new_hidden_map",
    "preclassify_elm",
    "predict_eda",
    "predict_mveda",
    "quadratic_energy",
    "run_benchmark",
    "run_sweep",
    "save_model",
    "standardize_bundle",
    "update_beta",
    "update_beta_view",
    "update_theta",
    "update_theta_view",
]
