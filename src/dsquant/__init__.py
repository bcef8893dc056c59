"""Dataset compression via per-sample symmetric quantization with
sensitivity-driven bit allocation."""

from .allocator import (
    AllocationConfig,
    AllocationPlan,
    allocate,
    compression_ratio,
)
from .dataset import (
    SampleShape,
    synth_blobs,
)
from .qds import (
    QdsFormatError,
    QdsHeader,
    StorageReport,
    storage_report,
    write_qds,
)
from .quantizer import (
    max_code,
    quantize_rows,
)
from .sensitivity import (
    LogisticModel,
    gradient_check,
    score_dataset,
    sensitivity_score,
)
from .trainer import (
    EvalReport,
    TrainConfig,
    compare,
    fit_scoring_model,
    stratified_split,
    train,
)

__version__ = "0.1.0"
