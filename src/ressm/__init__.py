"""State space sequence models with learned-interval resampling compression."""

from .autodiff import Tape, Tensor, grad_check
from .checkpoint import load_checkpoint, save_checkpoint
from .linearity import LeaveOneOutInstance, LinearityReport, linearity_sweep
from .network import BlockSpec, BranchSpec, NetworkSpec, ResampleNetwork
from .resample import ResampleConfig, ResamplePlan, compress, decompress
from .selective import ssm_scan
from .ssm import DiscreteStep, SsmParams, lti_scan, varying_scan, zoh_discretize
from .tasks import SparseSignalTask, gen_sparse_task
from .training import EvalMetrics, TrainConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Tape", "Tensor", "grad_check",
    "SsmParams", "DiscreteStep", "zoh_discretize", "lti_scan", "varying_scan",
    "ssm_scan",
    "ResampleConfig", "ResamplePlan", "compress", "decompress",
    "BranchSpec", "BlockSpec", "NetworkSpec", "ResampleNetwork",
    "save_checkpoint", "load_checkpoint",
    "LeaveOneOutInstance", "LinearityReport", "linearity_sweep",
    "SparseSignalTask", "gen_sparse_task",
    "TrainConfig", "train", "evaluate", "EvalMetrics",
    "__version__",
]
