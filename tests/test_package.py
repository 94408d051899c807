"""The package's public names, one per line, so that adding or removing an
export shows as a one-line diff here."""

import inspect

import polyak_opt

PUBLIC_NAMES = [
    "AuxEval",
    "BASELINES",
    "CSRMatrix",
    "CSV_HEADER",
    "ConfigError",
    "Dataset",
    "DimensionMismatch",
    "EmptyDatasetError",
    "ExperimentConfig",
    "HyperParams",
    "LossSpec",
    "METHODS",
    "NumericError",
    "OptimumCertificate",
    "ParseError",
    "StepOutcome",
    "SuiteReport",
    "TraceRecord",
    "TrackerState",
    "UnsupportedFamilyError",
    "aux_value_motaps",
    "aux_value_sp",
    "aux_value_taps",
    "batch_eval",
    "choose_lambda",
    "decreasing_schedule",
    "dump_config",
    "format_report",
    "full_grad",
    "full_loss",
    "grad_i",
    "growth_check",
    "growth_ratio",
    "inject_tau_gradient_fault",
    "joint_projection_taps",
    "kkt_projection",
    "lambda_max",
    "load_config",
    "load_libsvm",
    "loss_grad_i",
    "loss_i",
    "mean_grad_motaps",
    "mean_grad_sp",
    "mean_grad_taps",
    "momentum_step",
    "motaps_step",
    "motaps_stepsizes",
    "motaps_tau_coeff",
    "normalize_samples",
    "optimum_oracle",
    "parse_config",
    "parse_libsvm",
    "parse_trace_csv",
    "project_hyperplane",
    "resolve_dataset",
    "rule_of_thumb",
    "run_all",
    "run_baseline",
    "run_epochs",
    "run_epochs_sgd_view",
    "serialize_libsvm",
    "sgd_step",
    "sgd_stepsize",
    "smoothness_constants",
    "sp_step",
    "star_convexity_probe",
    "synth_dataset",
    "taps_step",
    "trace_to_csv",
    "trace_to_json",
    "write_trace",
]


def test_public_names_pinned():
    exported = sorted(
        name for name, value in vars(polyak_opt).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert exported == PUBLIC_NAMES
