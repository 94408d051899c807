"""The package's public names, one per line, so that adding or removing an
export shows as a one-line diff here, its modules' imports, and how the
compiled step loop ships, builds and falls back."""

import ast
import inspect
import os
import re
import subprocess
import sys
import tomllib
import warnings
from pathlib import Path

import numpy as np
import pytest

import polyak_opt
from polyak_opt import _native
from polyak_opt.baselines import FlatDataError
from polyak_opt.config import ConfigError
from polyak_opt.data import InputError, ParseError
from polyak_opt.losses import UnsupportedFamilyError

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


def test_kernel_is_built_in_three_places():
    """A step kernel is built only by the two epoch drivers and by
    ``polyak._one_step``, which every single step calls, so a run and a
    single step start from one ``polyak._start`` and pass one set of
    checks. The compiled loop's self-check builds its own kernels too, to
    run the same draws through both loops."""
    assert scopes_referring(
        lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Kernel"
    ) == ["_native._self_check", "baselines.run_baseline", "polyak._one_step", "polyak.run_epochs"]


def test_phi_has_one_array_form():
    """phi and phi' of an array of margins go through libm in
    ``losses._phi_array``, and the Newton oracle's Hessian weights are
    taken from its phi': no code in ``src/`` names ``np.logaddexp`` or
    ``np.exp``, so no second vectorised phi, whose rounding would follow
    numpy's SIMD dispatch, can grow beside it."""

    def numpy_attr(name):
        return lambda node: (isinstance(node, ast.Attribute) and node.attr == name
                             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))

    assert scopes_referring(numpy_attr("logaddexp")) == []
    assert scopes_referring(numpy_attr("exp")) == []


def test_squared_optimum_is_one_svd():
    """The squared certificate is one SVD of X: only
    ``losses.optimum_oracle`` names ``svd``, and no code in ``src/`` names
    ``lstsq``, ``eigvalsh`` or ``gram``, so no normal-equation solve or
    second eigen-solve can grow beside it."""

    def named(*names):
        return lambda node: any(getattr(node, key, None) in names for key in ("id", "attr", "name"))

    assert scopes_referring(named("svd")) == ["losses.optimum_oracle"]
    assert scopes_referring(named("lstsq", "eigvalsh", "gram")) == []


def test_each_engine_steps_in_one_loop():
    """``_Kernel`` takes an epoch's draws in one ``run`` loop, with no
    per-step helper methods beside it, and it is the only step engine in
    ``polyak.py``; its compiled twin is the one exported function of
    ``_kernel.c``, ``pk_run``, so the two loops can be read side by side."""
    tree = ast.parse(Path(polyak_opt.__file__).with_name("polyak.py").read_text(encoding="utf-8"))
    methods = {node.name: [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
               for node in tree.body if isinstance(node, ast.ClassDef)}
    assert methods["_Kernel"] == ["__init__", "fold", "run"]
    assert [name for name in methods if name.startswith("_")] == ["_Kernel"]
    source = Path(polyak_opt.__file__).with_name("_kernel.c").read_text(encoding="utf-8")
    exported = re.findall(r"^(?!static)[a-z][\w ]*?\b(\w+)\(", source, flags=re.M)
    assert exported == ["pk_run"]


def test_lazy_scale_lives_in_the_kernel():
    """The lazy scale step w = s·v, whose scale folds once it leaves
    [1e-100, 1e100], is taken only in ``polyak._Kernel.run`` and its
    compiled twin: no other Python code in ``src/`` names either bound, and
    ``_kernel.c`` states each bound once, so no second copy of the step can
    grow beside them (``run_grid`` runs every cell through the kernel)."""

    def bound(node):
        return isinstance(node, ast.Constant) and node.value in (1e-100, 1e100)

    assert scopes_referring(bound) == ["polyak._Kernel.run"] * 2
    source = Path(polyak_opt.__file__).with_name("_kernel.c").read_text(encoding="utf-8")
    assert re.findall(r"\b1e-?100\b", source) == ["1e-100", "1e100"]


def handlers_catching(*names):
    """The dotted scope of every ``except`` clause in ``src/`` that names
    one of ``names``, in file order."""

    def catches(node):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            return False
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return any(getattr(t, "id", getattr(t, "attr", None)) in names for t in types)

    return scopes_referring(catches)


def test_bad_input_becomes_exit_2_in_one_place():
    """Every error for bad input is a ``data.InputError``, raised by the
    check where it runs: the only ``except`` clauses in ``src/`` that catch
    a ValueError read text (``--sizes``, a config value, a float list, a
    ``synth:`` spec's numbers and its generator's checks, a LIBSVM line's
    numbers), none catches an UnsupportedFamilyError or a FlatDataError to
    say it again as a ConfigError, and ``cli.main``, which reports it as
    exit 2, is the only handler of the base or any of its subclasses."""
    subclasses = (ConfigError, ParseError, UnsupportedFamilyError, FlatDataError)
    assert all(issubclass(cls, InputError) for cls in subclasses)
    assert handlers_catching("ValueError", "UnsupportedFamilyError", "FlatDataError") == [
        "cli.cmd_verify", "config._coerce", "config.parse_float_list",
        "config.resolve_dataset", "config.resolve_dataset",
        "data.parse_libsvm", "data.parse_libsvm", "data.parse_libsvm",
    ]
    assert handlers_catching("InputError", *(cls.__name__ for cls in subclasses)) == ["cli.main"]


def test_kernel_source_is_package_data():
    """An installed wheel carries ``_kernel.c``, so that it can build the
    compiled loop."""
    root = Path(polyak_opt.__file__).parents[2]
    with open(root / "pyproject.toml", "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    assert package_data == {"polyak_opt": ["_kernel.c"]}
    assert _native.SOURCE == Path(polyak_opt.__file__).with_name("_kernel.c") and _native.SOURCE.is_file()


def test_import_builds_nothing(tmp_path):
    """``import polyak_opt`` in a fresh interpreter imports neither
    ``subprocess`` nor ``hashlib``, loads no library and starts no compiler:
    a ``gcc`` first on PATH would leave a mark."""
    bin_dir, mark = tmp_path / "bin", tmp_path / "gcc-ran"
    bin_dir.mkdir()
    (bin_dir / "gcc").write_text(f"#!/bin/sh\ntouch {mark}\nexit 1\n", encoding="utf-8")
    (bin_dir / "gcc").chmod(0o755)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import polyak_opt; "
             "from polyak_opt import _native; "
             "print(sorted({'subprocess', 'hashlib'} & set(sys.modules)), _native._lib is _native._UNSET)")
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}", "HOME": str(tmp_path)}
    done = subprocess.run([sys.executable, "-c", probe, str(Path(polyak_opt.__file__).parents[1])],
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[] True\n"
    assert not mark.exists()


@pytest.mark.parametrize("cache", ["under_a_file", "shared", "not_owned", "no_gcc"])
def test_unusable_cache_or_compiler_falls_back_without_warning(tmp_path, monkeypatch, cache):
    """A cache directory that cannot be written or is not private to the
    user, or no ``gcc``, leaves ``load`` with None and runs on the Python
    loop, with no warning."""
    target = tmp_path / "cache"
    if cache == "under_a_file":
        (tmp_path / "file").write_text("", encoding="utf-8")
        target = tmp_path / "file" / "cache"
    elif cache == "shared":
        target.mkdir()
        target.chmod(0o777)
    elif cache == "not_owned":
        monkeypatch.setattr(os, "getuid", lambda: os.geteuid() + 1)
    else:
        monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setattr(_native, "_cache_dir", lambda: target)
    monkeypatch.setattr(_native, "_lib", _native._UNSET)
    data = polyak_opt.Dataset(np.eye(3) + 1.0, [1.0, -1.0, 1.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _native.load() is None
        records = polyak_opt.run_epochs("sp", polyak_opt.LossSpec(family="logistic"), data,
                                        polyak_opt.HyperParams(), 2, 0)
    assert caught == [] and len(records) == 2
    assert list(tmp_path.rglob("*.so")) == []
