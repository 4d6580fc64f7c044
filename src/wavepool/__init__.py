"""Cross-scale graph classification with wavelet convolutions and spectral pooling."""

from .graphs import (
    Graph,
    GraphDataset,
    SplitSpec,
    dataset_statistics,
    load_tu_dataset,
    split_dataset,
)
from .harness import (
    ExperimentPlan,
    majority_baseline,
    run_ablation,
    run_experiment,
    run_sensitivity,
)
from .model import (
    VARIANTS,
    CrossScaleModel,
    ModelConfig,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from .spectral import (
    MODE_CLOSED_FORM,
    MODE_FITTED_KERNEL,
    WaveletBasis,
    normalized_laplacian,
    pseudoinverse,
    wavelet_bases,
)
from .stability import (
    LipschitzReport,
    lipschitz_bound_gwc,
    lipschitz_bound_pool,
    perturbation_check,
    run_stability_suite,
)
from .synth import ClassSpec, MsgConfig, build_msg, export_tu, three_class_config
from .training import TrainConfig, evaluate_accuracy, train

__all__ = [
    "Graph",
    "GraphDataset",
    "SplitSpec",
    "dataset_statistics",
    "load_tu_dataset",
    "split_dataset",
    "ExperimentPlan",
    "majority_baseline",
    "run_ablation",
    "run_experiment",
    "run_sensitivity",
    "VARIANTS",
    "CrossScaleModel",
    "ModelConfig",
    "load_checkpoint",
    "model_from_checkpoint",
    "save_checkpoint",
    "MODE_CLOSED_FORM",
    "MODE_FITTED_KERNEL",
    "WaveletBasis",
    "normalized_laplacian",
    "pseudoinverse",
    "wavelet_bases",
    "LipschitzReport",
    "lipschitz_bound_gwc",
    "lipschitz_bound_pool",
    "perturbation_check",
    "run_stability_suite",
    "ClassSpec",
    "MsgConfig",
    "build_msg",
    "export_tu",
    "three_class_config",
    "TrainConfig",
    "evaluate_accuracy",
    "train",
]

__version__ = "0.1.0"
