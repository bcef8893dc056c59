"""Dataset compression via per-sample symmetric quantization with
sensitivity-driven bit allocation."""

from .allocator import (
    AllocationConfig,
    AllocationPlan,
    allocate,
    compression_ratio,
    split_by_score,
)
from .dataset import (
    Dataset,
    SampleShape,
    synth_blobs,
)
from .qds import (
    QdsFormatError,
    QdsHeader,
    StorageReport,
    materialize_training_set,
    read_qds,
    storage_report,
    write_qds,
)
from .quantizer import (
    PackedCodes,
    QuantizedSample,
    max_code,
    pack_codes,
    quantize_rows,
    quantize_sample,
    unpack_codes,
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
