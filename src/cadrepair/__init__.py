"""Feasibility-guided latent diffusion over a miniature sketch-extrude CAD language."""

from .codec import (
    CONDITION_DIM,
    LATENT_DIM,
    condition_descriptor,
    decode,
    encode,
    read_latents,
    write_latents,
)
from .diffusion import (
    DiffusionSchedule,
    GuidanceConfig,
    build_schedule,
    classifier_guide,
    posterior_mean,
    regressor_guide,
    sample,
    sample_step,
)
from .geometry import (
    CommandSequence,
    EdgeKind,
    InvalidReason,
    PointCloud,
    SketchEdge,
    ValidityReport,
    discretize_profile,
    kernel_check,
    polygon_area,
    sample_point_cloud,
    self_intersects,
)
from .metrics import (
    MmdConfig,
    PcaProjection,
    SourceTag,
    VariantRow,
    median_heuristic_sigma,
    mmd,
    mmd_histogram,
    pca_2d,
)
from .nets import (
    ClassifierResult,
    LinearRegressor,
    Mlp,
    fit_linear_regressor,
    mlp_forward,
    mlp_grad_input,
    regressor_loss_grad,
    regressor_predict,
    train_classifier,
    train_denoiser,
    train_regressor,
)
from .pipeline import (
    RepairOutcome,
    RepairStage,
    TrainedModels,
    VariantId,
    build_gt_pairs,
    build_ssl_pairs,
    gen_dataset,
    gen_ground_truth,
    run_variants,
    self_repair,
)

__version__ = "0.1.0"
