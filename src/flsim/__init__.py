"""Deterministic federated-learning simulator with pluggable optimizers."""

from .data import (
    LabeledDataset,
    PartitionPlan,
    gen_blobs,
    partition_dirichlet,
    partition_iid,
    split_train_test,
)
from .engine import (
    RoundMetrics,
    RunConfig,
    ServerState,
    derive_stream,
    init_client_states,
    init_server_state,
    run_round,
    run_training,
    sample_clients,
)
from .errors import (
    ConfigError,
    DivergenceError,
    FLSimError,
    NumericalOverflowError,
    ParseError,
    UnsupportedOperationError,
)
from .harness import (
    DataParams,
    ExperimentConfig,
    SummaryRow,
    SweepSpec,
    export_curves,
    parse_config,
    run_experiment,
    run_sweep,
    summarize,
)
from .methods import (
    METHOD_NAMES,
    SAM_FAMILY,
    ClientResult,
    HyperParams,
)
from .models import (
    ModelSpec,
    init_params,
    loss_and_grad,
    param_count,
    top1_accuracy,
)

__version__ = "0.1.0"
