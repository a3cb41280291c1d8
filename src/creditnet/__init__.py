"""From-scratch hybrid CNN+Transformer credit-default predictor on NumPy."""

from .errors import (
    ConfigError,
    CreditNetError,
    DataError,
    LeakageError,
    NumericError,
    SchemaError,
    ShapeError,
    StateError,
    UndefinedMetricError,
)
from .tensor_ops import (
    OpCache,
    Parameter,
    conv1d,
    conv1d_backward,
    elementwise,
    elementwise_backward,
    gradient_check,
    layer_norm,
    layer_norm_backward,
    maxpool1d,
    maxpool1d_backward,
    sigmoid,
    softmax_rows,
)
from .metrics import MetricsRecord, RocCurve, accuracy, auc, evaluate_scores, ks, roc_points
from .data import (
    ConstantFill,
    FeatureFrame,
    PreprocessStats,
    SchemaConfig,
    SplitSpec,
    Splits,
    SynthSpec,
    apply_preprocess,
    impute,
    load_csv,
    prepare_splits,
    split,
    standardize_apply,
    standardize_fit,
    synth_generate,
    synth_preset,
)
from .model import (
    AttnSpec,
    ConvSpec,
    Model,
    ModelConfig,
    ParamStore,
    attention,
    init_params,
    load_checkpoint,
    multi_head_attention,
    save_checkpoint,
    tokenize,
    transformer_block,
)
from .training import (
    AdamState,
    EarlyStop,
    RunReport,
    TrainConfig,
    ablate,
    adam_step,
    bce_loss,
    evaluate,
    predict_probs,
    sgd_step,
    sweep_lr,
    sweep_optimizer,
    train,
    train_baseline_logistic,
)
from .importance import ImportanceReport, permutation_importance

__version__ = "0.1.0"
