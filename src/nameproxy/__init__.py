"""Race/ethnicity proxy modeling from names and geography.

The package bundles the standard Bayes predictors (BISG and BIFSG, plus
geography augmentation of any name-only model), a from-scratch
character-level bidirectional LSTM, an equal-weight ensemble, the table
construction machinery they all share, and an evaluation harness for
benchmarking prediction files against ground truth.
"""

from .core import (
    DEFAULT_RACES,
    People,
    RaceSet,
    argmax_race,
    is_prob_vector,
    renormalize,
)
from .bayes import BayesContext, bifsg, bisg, geo_augment
from .ensemble import EnsembleSpec, ensemble_predict
from .evaluation import (
    ClassReport,
    RocCurve,
    class_metrics,
    emit_report,
    intersect_covered,
    roc_curve,
)
from .lstm import (
    AdamState,
    NetworkParams,
    TrainConfig,
    adam_step,
    forward,
    init_params,
    load_params,
    loss_and_gradients,
    predict_proba,
    save_params,
    train,
)
from .names import encode_name, is_person_name, normalize
from .sampling import representative_sample_indices
from .tables import (
    GeoTable,
    NameTable,
    build_geo_table,
    build_name_table,
    merge_tables,
)

__all__ = [
    "DEFAULT_RACES",
    "People",
    "RaceSet",
    "argmax_race",
    "is_prob_vector",
    "renormalize",
    "BayesContext",
    "bisg",
    "bifsg",
    "geo_augment",
    "EnsembleSpec",
    "ensemble_predict",
    "ClassReport",
    "RocCurve",
    "class_metrics",
    "emit_report",
    "intersect_covered",
    "representative_sample_indices",
    "roc_curve",
    "AdamState",
    "NetworkParams",
    "TrainConfig",
    "adam_step",
    "forward",
    "init_params",
    "load_params",
    "loss_and_gradients",
    "predict_proba",
    "save_params",
    "train",
    "encode_name",
    "is_person_name",
    "normalize",
    "GeoTable",
    "NameTable",
    "build_geo_table",
    "build_name_table",
    "merge_tables",
]

__version__ = "0.1.0"
