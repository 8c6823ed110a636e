"""Leakage-guarded experiments for imbalanced binary classification.

The package ties together four pieces: tabular datasets that tag each
row with its provenance kind (original, duplicate or synthetic),
class-rebalancing samplers that tag every row they create,
a Newton-boosted tree classifier, and an experiment runner that makes the
placement of resampling relative to the train/test split explicit and
audits the outcome for evaluation contamination.
"""

from .boosting import GbdtModel, GbdtParams, predict_margin, predict_proba, train
from .dataset import (
    CREDITCARD_SCHEMA,
    RowProvenance,
    Split,
    SplitSpec,
    StandardizerParams,
    TabularDataset,
    apply_standardizer,
    class_distribution,
    engineer_time_features,
    fit_standardizer,
    generate_synthetic_imbalanced,
    load_csv,
    save_csv,
    stratified_split,
)
from .experiment import (
    LeakageReport,
    Placement,
    Preprocessing,
    ScenarioResult,
    ScenarioSpec,
    Verdict,
    compare_scenarios,
    detect_leakage,
    run_scenario,
)
from .metrics import ConfusionMatrix, MetricsReport, auc, compute_report, confusion
from .sampling import (
    SamplerKind,
    SamplerPipeline,
    SamplerSpec,
    apply_pipeline,
    gaussian_synthesize,
    random_oversample,
    random_undersample,
    resample,
    smote,
)

__version__ = "0.1.0"

__all__ = [
    "CREDITCARD_SCHEMA",
    "ConfusionMatrix",
    "GbdtModel",
    "GbdtParams",
    "LeakageReport",
    "MetricsReport",
    "Placement",
    "Preprocessing",
    "RowProvenance",
    "SamplerKind",
    "SamplerPipeline",
    "SamplerSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "Split",
    "SplitSpec",
    "StandardizerParams",
    "TabularDataset",
    "Verdict",
    "apply_pipeline",
    "apply_standardizer",
    "auc",
    "class_distribution",
    "compare_scenarios",
    "compute_report",
    "confusion",
    "detect_leakage",
    "engineer_time_features",
    "fit_standardizer",
    "gaussian_synthesize",
    "generate_synthetic_imbalanced",
    "load_csv",
    "predict_margin",
    "predict_proba",
    "random_oversample",
    "random_undersample",
    "resample",
    "run_scenario",
    "save_csv",
    "smote",
    "stratified_split",
    "train",
]
