"""The compiled step loop: ``_kernel.c``, the C twin of ``polyak._Kernel.run``.

``load`` builds the library at its first call, never at import: ``gcc``
compiles ``_kernel.c`` with ``FLAGS`` into a private cache directory
(``~/.cache/polyak-opt``, mode 0700 and owned by the user), under a name
keyed by the sha256 of the source, the flags and the path of numpy's
bundled OpenBLAS, and moves it into place with an atomic rename. The
library is then loaded with ctypes and must pass a self-check: short runs
through both loops that end in the same bytes. Where any of that fails (no
gcc, no bundled OpenBLAS, a cache that is not private or cannot be written,
a self-check that differs), ``load`` returns None and every run takes the
Python loop, with the same bytes and no warning.

``run`` takes one kernel's draws through ``pk_run``, which reads X's own
CSR arrays by pointer and writes the run's iterate, trackers and averaged
sequence in place.
"""

from __future__ import annotations

import ctypes
import math
import os
import stat
from pathlib import Path

import numpy as np

from .data import Dataset
from .losses import LossSpec
from .polyak import HyperParams, NumericError, TrackerState, _Kernel

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_ARRAYS = ("xval", "xind", "xptr", "labels", "sqnorms", "fi_stars", "offsets", "scales", "v", "z", "g", "buf", "alpha")


class _Args(ctypes.Structure):
    """``pk_kernel`` of ``_kernel.c``, field for field."""

    _fields_ = ([(name, ctypes.c_void_p) for name in ("ddot", *_ARRAYS)]
                + [(name, ctypes.c_int64) for name in ("n", "d", "family", "method", "lazy", "schedule", "switch_t")]
                + [(name, ctypes.c_double) for name in ("sigma", "power", "beta", "cap", "gamma", "gamma_tau",
                                                         "tau_coeff", "lam", "mu", "l_max", "s", "wsq", "abar", "tau", "c")]
                + [("index", ctypes.c_int64)])


# pk_run's error codes 1-4, as the Python loop words them; 5 is a bad index
_MESSAGES = (None, "non-finite aggregate update", "non-finite loss/gradient at sample {}",
             "gradient norm overflow at sample {}", "non-finite step coefficient at sample {}")
_UNSET = object()
_lib = _UNSET


def load():
    """The checked library, built and loaded at the first call, or None."""
    global _lib
    if _lib is _UNSET:
        _lib = _build()
    return _lib


def _cache_dir() -> Path:
    return Path.home() / ".cache" / "polyak-opt"


def _build():
    import hashlib  # deferred, with subprocess and tempfile: importing the package builds nothing
    import subprocess
    import tempfile

    blas = list((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        ddot = ctypes.cast(ctypes.CDLL(str(blas[0])).scipy_cblas_ddot64_, ctypes.c_void_p).value
        source, cache = SOURCE.read_bytes(), _cache_dir()
        key = hashlib.sha256(b"\0".join([source, " ".join(FLAGS).encode(), str(blas[0]).encode()])).hexdigest()
        if not cache.is_absolute():  # Python 3.11 leaves ~ as it is where no home directory is known
            return None
        os.makedirs(cache, mode=0o700, exist_ok=True)
        info = os.lstat(cache)
        if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o077:
            return None
        path = cache / f"kernel-{key[:32]}.so"
        if not path.exists():
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run(["gcc", *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"], input=source,
                               capture_output=True, check=True, timeout=300)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(path))
    # no bundled OpenBLAS, no ddot in it, no home directory (Python 3.12 and later), no usable
    # cache, no gcc or a failed build
    except (IndexError, AttributeError, RuntimeError, OSError, subprocess.SubprocessError):
        return None
    lib.pk_run.argtypes = [ctypes.POINTER(_Args), ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
    lib.pk_run.restype, lib.ddot = ctypes.c_int, ddot
    return lib if _self_check(lib) else None


def _args(kernel, ddot):
    """The kernel's ``_Args``, or None where an array is not the
    C-contiguous float64 (X's indices: intp) array of the size that
    ``pk_run`` reads."""
    data, spec, hyper, state = kernel.data, kernel.spec, kernel.hyper, kernel.state
    X, n, d = data.X, data.n, data.dim
    name, l_max = kernel.schedule
    buf = np.empty(max(d, 1))
    arrays = (X.data, X.indices, X.indptr, data.labels, data.row_sqnorms, kernel.fi_stars,
              data.labels if spec.offsets is None else spec.offsets, spec.scales, kernel.v, kernel.z,
              buf if kernel.lazy else kernel._g, buf, None if state is None else state.alpha)
    sizes = (X.nnz, X.nnz, n + 1, n, n, n, n, n, d, d, d, buf.size, n)
    if not all(a is None or (a.dtype == (np.intp if k in (1, 2) else np.float64) and a.flags.c_contiguous
                             and a.shape == (size,)) for k, (a, size) in enumerate(zip(arrays, sizes))):
        return None
    switch = 0
    if name == "motaps_decreasing":  # decreasing_schedule's switch point, as an int64
        switch = min(2 * (2 * n + 1) * math.ceil((1.0 - hyper.lam) / hyper.mu), 2**63 - 1)
    args = _Args(ddot, *(None if a is None else a.ctypes.data for a in arrays), n, d,
                 ("logistic", "squared", "monomial").index(spec.family),
                 ("sp", "taps", "motaps", "sgd").index(kernel.method.replace("spsmax", "sp")), kernel.lazy,
                 ("constant", "motaps_decreasing", "paper_literal", "inverse").index(name), switch,
                 spec.sigma, 2.0 * spec.power_r, hyper.beta, hyper.step_cap if kernel.method == "spsmax" else math.inf,
                 hyper.gamma, hyper.gamma_tau, kernel.tau_coeff, hyper.lam, hyper.mu, l_max)
    args.keep = arrays  # the arrays outlive their pointers
    return args


def run(lib, kernel, draws, t):
    """``kernel.run(draws, t)`` through ``pk_run``: the last step's
    coefficient, or None where the kernel's arrays are not ones it reads."""
    if kernel.native is None:
        kernel.native = _args(kernel, lib.ddot) or False
    args, state = kernel.native, kernel.state
    if not args:
        return None
    draws = np.ascontiguousarray(draws, dtype=np.int64)
    args.s, args.wsq = kernel.s, kernel.wsq
    if state is not None:
        args.abar, args.tau = state.alpha_bar, state.tau
    code = lib.pk_run(args, draws.ctypes.data, draws.size, t)
    kernel.s, kernel.wsq = args.s, args.wsq
    if state is not None:
        state.alpha_bar, state.tau = args.abar, args.tau
    if code == len(_MESSAGES):
        raise IndexError(f"sample index {args.index} out of range")
    if code:
        raise NumericError(_MESSAGES[code].format(args.index), sample_index=args.index)
    return args.c


def _self_check(lib) -> bool:
    """Whether kernels that reach the host's side of the step (numpy's ddot
    on gathered and full rows, libm's exp, log1p and pow, the scale's fold)
    end in the same bytes through ``pk_run`` as through the Python loop,
    which takes their draws one at a time."""
    rng = np.random.default_rng(20240)
    rows = np.where(rng.random((8, 30)) < 0.2, rng.standard_normal((8, 30)), 0.0)
    sparse, dense = Dataset(rows, np.sign(rows.sum(axis=1)) + 0.5), Dataset(rng.standard_normal((6, 40)), np.ones(6))
    cases = [(sparse, LossSpec("logistic", sigma=0.1), "sp", HyperParams()),
             (sparse, LossSpec("squared", sigma=3.0), "sp", HyperParams()),  # the scale folds
             (dense, LossSpec("logistic", sigma=0.01), "motaps", HyperParams(schedule="motaps_decreasing", mu=0.3)),
             (sparse, LossSpec("monomial", sigma=0.05, power_r=0.75), "taps", HyperParams(gamma=0.7, beta=0.5))]
    for data, spec, method, hyper in cases:
        draws, outcomes = rng.integers(0, data.n + (method != "sp"), 40), []
        for compiled in (False, True):
            w = np.linspace(-0.5, 0.5, data.dim)
            state = None if method == "sp" else TrackerState(w, np.linspace(0.0, 0.2, data.n), 0.1, 0.05)
            kernel = _Kernel(method, spec, data, w, hyper, state=state, fi_stars=np.linspace(0.0, 0.01, data.n))
            try:
                with np.errstate(all="ignore"):
                    c = run(lib, kernel, draws, 3) if compiled else [kernel.run([i], t) for t, i in
                                                                       enumerate(draws.tolist(), 3)][-1]
            except NumericError as err:
                c = (str(err), err.sample_index)
            outcomes.append(repr([c, kernel.s, kernel.wsq, w.tobytes(), kernel.z is None or kernel.z.tobytes(),
                                  state is None or (state.alpha.tobytes(), state.alpha_bar, state.tau)]))
        if outcomes[0] != outcomes[1]:
            return False
    return True
