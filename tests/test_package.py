"""The package's public names, one per line, so that adding or removing an
export shows as a one-line diff here, and its modules' imports."""

import ast
import inspect
from pathlib import Path

import polyak_opt

PUBLIC_NAMES = [
    "AuxEval",
    "BASELINES",
    "CSRMatrix",
    "CSV_HEADER",
    "ConfigError",
    "Dataset",
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
    "growth_check",
    "growth_ratio",
    "inject_tau_gradient_fault",
    "joint_projection_taps",
    "kkt_projection",
    "lambda_max",
    "load_libsvm",
    "loss_grad_i",
    "mean_grad_motaps",
    "mean_grad_sp",
    "mean_grad_taps",
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
]


def test_public_names_pinned():
    exported = sorted(
        name for name, value in vars(polyak_opt).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert exported == PUBLIC_NAMES


def test_modules_use_every_imported_name():
    """No module imports a name it never uses. ``__init__`` is exempt, since
    its imports are the exports, and so is ``polyak``'s ``loss_grad_i``,
    which perfbench's tracer patches there."""
    exempt = {("polyak", "loss_grad_i")}
    unused = []
    for path in sorted(Path(polyak_opt.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)
                   if (path.stem, name) not in exempt]
    assert unused == []


def scopes_referring(match):
    """The dotted scope (module, then class and function names) of every
    ``ast`` node in ``src/`` that ``match`` accepts, in file order."""

    class Refs(ast.NodeVisitor):
        def __init__(self, module):
            self.scope, self.found = [module], []

        def generic_visit(self, node):
            if match(node):
                self.found.append(".".join(self.scope))
            super().generic_visit(node)

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    found = []
    for path in sorted(Path(polyak_opt.__file__).parent.glob("*.py")):
        refs = Refs(path.stem)
        refs.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += refs.found
    return found


def test_only_the_epoch_loop_draws_sample_indices():
    """Every driver takes its draws from ``polyak._epoch_loop``: no other
    function in ``src/`` names ``sample_indices``, so no second draw loop
    can grow beside it."""
    assert scopes_referring(
        lambda node: "sample_indices" in (getattr(node, "id", None), getattr(node, "attr", None))
    ) == ["polyak._epoch_loop"]


def test_phi_has_one_array_form():
    """phi and phi' of an array of margins go through libm in
    ``losses._phi_array``: no code in ``src/`` names ``np.logaddexp``, and
    only ``losses._expit`` (the Newton oracle's Hessian weights) names
    ``np.exp``, so no second vectorised phi can grow beside it."""

    def numpy_attr(name):
        return lambda node: (isinstance(node, ast.Attribute) and node.attr == name
                             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))

    assert scopes_referring(numpy_attr("logaddexp")) == []
    assert scopes_referring(numpy_attr("exp")) == ["losses._expit"]


def test_each_engine_steps_in_one_loop():
    """``_Kernel`` and ``_Batch`` each take an epoch's draws in one ``run``
    loop, with no per-step helper methods beside it, so the two engines'
    arithmetic can be read side by side."""
    tree = ast.parse(Path(polyak_opt.__file__).with_name("polyak.py").read_text(encoding="utf-8"))
    methods = {node.name: [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
               for node in tree.body if isinstance(node, ast.ClassDef)}
    assert methods["_Kernel"] == ["__init__", "fold", "run"]
    assert methods["_Batch"] == ["__init__", "_keep", "end_epoch", "run"]
