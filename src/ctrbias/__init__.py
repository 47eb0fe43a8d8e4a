"""Feature-level bias diagnosis and correction for CTR models.

Train FM/NFM click-through-rate models on sparse field data, trace how
group-wise positive-ratio imbalance ends up in the linear weights of one
designated bias field, and counteract it after training by scaling those
weights down or rebuilding them from unbiased ratio estimates.
"""

__version__ = "0.1.0"

from .analysis import (
    BiasChainReport,
    CorrelationResult,
    RegressionFit,
    bias_chain_report,
    ols_fit,
    pearson,
    spearman,
    variance_decomposition,
)
from .data import (
    Dataset,
    FeatureIndex,
    FieldSchema,
    ingest_csv,
)
from .debias import (
    DebiasConfig,
    GridSearchResult,
    fit_weight_residuals,
    grid_search_reconstruction,
    reconstruct_weights,
    reduce_weights,
)
from .errors import (
    CalibrationError,
    ConfigError,
    CsvParseError,
    CtrBiasError,
    DivergenceError,
    LabelError,
    MetricError,
    ModelFormatError,
    NumericalError,
    SchemaError,
    UndefinedCorrelationError,
)
from .evaluation import (
    EvalReport,
    UserBlocks,
    evaluate,
    group_stats,
    ndcg_at_k,
    reo_at_k,
    user_auc,
)
from .models import (
    ModelParams,
    init_params,
    load_model,
    loss_and_grads,
    model_digest,
    prediction_parts,
    predict,
    save_model,
    serialize,
    deserialize,
)
from .numeric import regularized_incomplete_beta, student_t_two_sided_p
from .synth import SynthConfig, SynthResult, generate
from .training import Adam, TrainConfig, TrainReport, train

__all__ = [name for name in dir() if not name.startswith("_")]
