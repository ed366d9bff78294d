"""Unsupervised 3D deformable registration with an anti-folding penalty.

The library predicts per-voxel displacement fields u(x) so a source volume
resampled at x + u(x) aligns with a target. Training is unsupervised: a
cross-correlation image term plus a smoothness penalty on Du and a penalty on
negative determinants of the deformation Jacobian, which directly suppresses
physically impossible "foldings".
"""

from .jacobian import det_map, folding_count, r2_backward, r2_penalty
from .loss import LossBreakdown, global_cc, local_cc, loss_backward, r1_smoothness, total_loss
from .metrics import EvalResult, PairReport, dice, evaluate, mean_dice
from .model import (
    FaimConfig,
    ModelParams,
    build_faim,
    direct_field_model,
    faim_forward,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .optim import AdamState, DivergenceError, adam_init, adam_step
from .trainer import Dataset, TrainConfig, TrainingDiverged, make_pairs, synth_dataset, train
from .volume import (
    DisplacementField,
    FormatError,
    Volume,
    center_crop,
    load_field,
    load_volume,
    normalize_intensity,
    save_field,
    save_volume,
)
from .warp import trilinear_sample, warp_backward, warp_image, warp_labels

__version__ = "0.1.0"
