"""Environment manifest recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes() -> dict[str, int]:
    """Sizes of cpu0's unified L2 and L3 caches."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified" and level in ("2", "3"):
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            sizes[f"l{level}_bytes"] = int(size.rstrip("KMG")) * scale
    return sizes


def _openblas() -> dict:
    """OpenBLAS version and thread count, read from the library numpy loaded."""
    info = {"blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(root: Path, workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **_cache_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **_openblas(),
        "git_commit": _git_commit(root),
    }
