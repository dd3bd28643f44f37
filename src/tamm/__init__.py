"""tamm: a desk-scale two-stage tri-modal pre-training sandbox.

Stage 1 fits a residual adapter that re-aligns domain-shifted image features
with text features; stage 2 trains a point-cloud encoder whose features are
split by two dual adapters into an image-aligned and a text-aligned
sub-space. Zero-shot, linear-probe, few-shot, and retrieval protocols sit on
top, and every differentiable piece is verifiable by finite differences.
"""

from .adapters import AdapterParams, CiaConfig, cia_forward, dual_forward, init_adapter
from .datagen import DatasetSpec, TripletSet, generate, read_triplets, write_triplets
from .encoders import (
    FrozenEncoderSpec,
    PointEncoderParams,
    encode_points,
    frozen_image_embed,
    frozen_text_embed,
    init_point_encoder,
)
from .losses import LossConfig, contrastive_accuracy, contrastive_loss, realign_loss, trimodal_loss
from .numkit import GradPair, finite_diff_check, gelu, l2_normalize, matmul, relu
from .train import (
    OptimState,
    TrainConfig,
    adamw_step,
    cosine_lr,
    load_checkpoint,
    save_checkpoint,
    train_onestage,
    train_stage1,
    train_stage2,
)

__all__ = [
    "AdapterParams",
    "CiaConfig",
    "DatasetSpec",
    "FrozenEncoderSpec",
    "GradPair",
    "LossConfig",
    "OptimState",
    "PointEncoderParams",
    "TrainConfig",
    "TripletSet",
    "adamw_step",
    "cia_forward",
    "contrastive_accuracy",
    "contrastive_loss",
    "cosine_lr",
    "dual_forward",
    "encode_points",
    "finite_diff_check",
    "frozen_image_embed",
    "frozen_text_embed",
    "gelu",
    "generate",
    "init_adapter",
    "init_point_encoder",
    "l2_normalize",
    "load_checkpoint",
    "matmul",
    "read_triplets",
    "realign_loss",
    "relu",
    "save_checkpoint",
    "train_onestage",
    "train_stage1",
    "train_stage2",
    "trimodal_loss",
    "write_triplets",
]

__version__ = "0.1.0"
