"""dnc-lab: a numerical laboratory for deep-network layer recursions.

The package evaluates hidden-state recursions N_{n+1} = act(W_{n+1} N_n +
b_{n+1}) — optionally with pooling or banded-Toeplitz (convolutional)
weights on growing widths — and verifies, on reproducible generated
families, that every computed quantity obeys its theoretical counterpart:
the a-priori state-norm bound, the three-term deviation bound between
depths, the limit bound with certified constants, and the convergence
conditions that govern them.

Determinism is load-bearing everywhere: reductions are sequential sums,
layer parameters come from per-index seeded streams, and each layer of the
recursion is evaluated once for a whole batch of samples, with every
sample's values the same bits as when it is evaluated alone, so studies
produce byte-identical reports on every run.
"""

from .activations import (
    ACTIVATION_NAMES,
    Activation,
    elu,
    identity,
    leaky_relu,
    make_activation,
    prelu,
    relu,
    selu,
    sigmoid,
    tanh,
)
from .analysis import (
    CONSTANT_PAD,
    ZERO_PAD,
    BoundContext,
    ConditionVerdict,
    Domain,
    LimitConstants,
    RateFit,
    SamplerSpec,
    Trajectory,
    check_condition,
    check_mask_conditions,
    cumulative_products,
    derive_limit_constants,
    fit_exponential_rate,
    state_deviation,
    tail_product_sums,
    weighted_tail_sums,
)
from .config import CONFIG_SCHEMA, ConfigError, Experiment, load_config, parse_config
from .corpus import Instance, control_instances, corpus_instances
from .generators import (
    GenSpec,
    MaskSpec,
    build,
    build_masks,
    rescale_to_norm,
)
from .linalg import (
    INF,
    ONE,
    TWO,
    EventuallyConstSeq,
    PNorm,
    apply_banded,
    as_matrix,
    as_vector,
    induced_norm,
    matvec,
    seq_sum,
    toeplitz_matrix,
    vector_norm,
)
from .network import (
    LayerSeq,
    MaskSeq,
    cnn_layer_seq,
    eval_extended_trajectory,
    eval_trajectory,
)
from .pooling import PoolingOp, average_pooling, max_pooling, no_pooling
from .report import (
    REPORT_SCHEMA,
    render_report,
    render_table,
    report_payload,
    strip_generated_at,
)
from .study import (
    DepthPlan,
    StateRow,
    StudyResult,
    StudyRow,
    convergence_study,
)

__version__ = "0.1.0"
