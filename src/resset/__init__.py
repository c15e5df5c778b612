"""Factorized spatial-spectral convolution schemes with rank audits,
a singular-value diversity regularizer, and a toy denoiser training loop."""

from .errors import (
    ConfigError,
    DegenerateKernel,
    InvalidKernel,
    NonFiniteLoss,
    NumericError,
    RessetError,
    ShapeError,
    WindowTooLarge,
)
from .hsdata import (
    HSCube,
    MetricsReport,
    NoiseKind,
    NoiseSpec,
    add_noise,
    cube_to_feature,
    feature_to_cube,
    metrics_report,
    mpsnr,
    mssim,
    sam,
    synth_cube,
)
from .network import Network
from .rank import (
    RankAudit,
    Spectrum,
    audit_kernel_rank,
    feature_spectrum,
    rank_upper_bound,
    tail_mass,
)
from .regularizer import (
    da_reg_grad,
    da_reg_value,
)
from .schemes import (
    KernelScheme,
    KernelSet,
    SchemeVariant,
    build_kernel_matrix,
    compression_param_count,
    conv_forward,
    kernel_matrices,
    param_count,
    parse_scheme_token,
    random_kernel_set,
    random_weights,
    valid_column_count,
    valid_columns,
    zero_kernel_set,
)
from .tensor import (
    FeatureMap,
    UnfoldedMatrix,
    fold_channels,
    matmul,
    numeric_rank,
    read_tensor,
    unfold_patches,
    write_tensor,
)
from .train import (
    AdamState,
    TrainConfig,
    TrainingData,
    TrainReport,
    adam_step,
    train_denoiser,
)

__version__ = "0.1.0"
