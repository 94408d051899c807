"""Stochastic Polyak-step methods with loss trackers, their surrogate-
objective oracles, classic baselines, and a benchmark CLI."""

from .aux import (
    AuxEval,
    aux_value_motaps,
    aux_value_sp,
    aux_value_taps,
    growth_check,
    growth_ratio,
    inject_tau_gradient_fault,
    joint_projection_taps,
    kkt_projection,
    mean_grad_motaps,
    mean_grad_sp,
    mean_grad_taps,
    project_hyperplane,
    run_epochs_sgd_view,
    star_convexity_probe,
)
from .baselines import BASELINES, run_baseline, sgd_step, sgd_stepsize
from .config import (
    ConfigError,
    ExperimentConfig,
    dump_config,
    parse_config,
    resolve_dataset,
)
from .data import (
    CSRMatrix,
    Dataset,
    ParseError,
    load_libsvm,
    normalize_samples,
    parse_libsvm,
    serialize_libsvm,
    synth_dataset,
)
from .losses import (
    EmptyDatasetError,
    LossSpec,
    OptimumCertificate,
    UnsupportedFamilyError,
    batch_eval,
    full_grad,
    full_loss,
    loss_grad_i,
    optimum_oracle,
    smoothness_constants,
)
from .polyak import (
    METHODS,
    HyperParams,
    NumericError,
    StepOutcome,
    TrackerState,
    choose_lambda,
    decreasing_schedule,
    lambda_max,
    motaps_step,
    motaps_stepsizes,
    motaps_tau_coeff,
    rule_of_thumb,
    run_epochs,
    sp_step,
    taps_step,
)
from .traces import CSV_HEADER, TraceRecord, parse_trace_csv, trace_to_csv, trace_to_json
from .verify import SuiteReport, format_report, run_all

__version__ = "0.1.0"
