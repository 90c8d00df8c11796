"""Low-confidence-sample contrastive domain adaptation on a synthetic
covariate-shift benchmark, with a from-scratch reverse-mode autodiff core.
"""

from .analysis import (
    SimilarityReport, project_2d, similarity_stats, topk_accumulation,
)
from .config import (
    ModelSection, OutputSection, RunConfig, apply_overrides, canonical_text,
    config_hash, default_run_config, load_config, parse_config_text,
)
from .data import (
    AugmentSpec, BenchmarkSpec, ShiftBenchmark, generate_shift_benchmark, save_dataset,
    strong_augment, weak_augment,
)
from .errors import (
    ConfigError, DatasetFormatError, DegenerateFeatureError, LrcoError,
    ShapeMismatchError, TrainingDivergedError,
)
from .gradcheck import run_gradient_suite
from .losses import draw_mix
from .membank import MemoryBank
from .model import ModelConfig, ModelState, clone_state, ema_update, init_model
from .numerics import SeededRng, sample_beta
from .trainer import (
    EvalMetrics, FitResult, TrainConfig, evaluate, fit,
    load_checkpoint, save_checkpoint,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentSpec", "BenchmarkSpec", "ConfigError", "DatasetFormatError",
    "DegenerateFeatureError", "EvalMetrics", "FitResult", "LrcoError",
    "MemoryBank", "ModelConfig", "ModelSection", "ModelState", "OutputSection",
    "RunConfig", "SeededRng", "ShapeMismatchError", "ShiftBenchmark",
    "SimilarityReport", "TrainConfig", "TrainingDivergedError",
    "apply_overrides", "canonical_text", "clone_state", "config_hash",
    "default_run_config", "draw_mix", "ema_update", "evaluate", "fit",
    "generate_shift_benchmark", "init_model", "load_checkpoint", "load_config",
    "parse_config_text", "project_2d", "run_gradient_suite", "sample_beta",
    "save_checkpoint", "save_dataset", "similarity_stats", "strong_augment",
    "topk_accumulation", "weak_augment",
]
