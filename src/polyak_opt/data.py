"""Sparse datasets: LIBSVM-format I/O and seeded synthetic problem generators.

Row-sparse storage only; model vectors are plain dense numpy arrays. A
``Dataset`` also precomputes a dense copy of the feature matrix and the
per-row square norms, which the full-batch evaluation paths use. At the
scales this harness targets (tens of thousands of nonzeros) that trade
is always worth it.
"""

from __future__ import annotations

import gzip
import io
from typing import Iterable, Sequence

import numpy as np

GZIP_MAGIC = b"\x1f\x8b"


class ParseError(ValueError):
    """Malformed LIBSVM text. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DimensionMismatch(ValueError):
    """A sparse index addresses past the end of a dense vector."""


class SparseVector:
    """Immutable sparse row: strictly increasing indices, finite nonzero values.

    Explicit zeros are dropped at construction; duplicate or decreasing
    indices are rejected.
    """

    __slots__ = ("indices", "values")

    def __init__(self, indices, values):
        idx = np.asarray(indices, dtype=np.int64)
        val = np.asarray(values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be 1-D and the same length")
        if idx.size and idx[0] < 0:
            raise ValueError("negative feature index")
        if not np.all(np.isfinite(val)):
            raise ValueError("non-finite feature value")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("feature indices must be strictly increasing")
        keep = val != 0.0
        if not keep.all():
            idx = idx[keep]
            val = val[keep]
        idx.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    def __setattr__(self, name, value):
        raise AttributeError("SparseVector is immutable")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def sqnorm(self) -> float:
        return float(np.dot(self.values, self.values))

    def to_dense(self, dim: int) -> np.ndarray:
        out = np.zeros(dim)
        out[self.indices] = self.values
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SparseVector)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        pairs = " ".join(f"{i}:{v!r}" for i, v in zip(self.indices, self.values))
        return f"SparseVector({pairs})"


def dot(x: SparseVector, w: np.ndarray) -> float:
    """Inner product of a sparse row with a dense vector. Empty row -> 0."""
    if x.indices.size == 0:
        return 0.0
    if x.indices[-1] >= len(w):
        raise DimensionMismatch(
            f"index {int(x.indices[-1])} out of range for dense vector of length {len(w)}"
        )
    return float(np.dot(x.values, w[x.indices]))


class Dataset:
    """Immutable collection of sparse samples with real labels.

    ``dim`` defaults to max index + 1 across samples but may be overridden
    upward (a dataset may simply not touch its trailing features).
    """

    __slots__ = ("samples", "labels", "dim", "dense", "row_sqnorms")

    def __init__(self, samples: Sequence[SparseVector], labels, dim: int | None = None):
        samples = tuple(samples)
        labels_arr = np.asarray(labels, dtype=np.float64)
        if labels_arr.ndim != 1 or len(samples) != labels_arr.size:
            raise ValueError("samples and labels must have matching length")
        max_dim = 0
        for s in samples:
            if s.indices.size:
                max_dim = max(max_dim, int(s.indices[-1]) + 1)
        if dim is None:
            dim = max_dim
        elif dim < max_dim:
            raise ValueError(f"dim={dim} smaller than max feature index + 1 ({max_dim})")
        dense = np.zeros((len(samples), dim))
        for r, s in enumerate(samples):
            dense[r, s.indices] = s.values
        labels_arr.setflags(write=False)
        dense.setflags(write=False)
        sqn = np.einsum("ij,ij->i", dense, dense)
        sqn.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels_arr)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "dense", dense)
        object.__setattr__(self, "row_sqnorms", sqn)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def n(self) -> int:
        return len(self.samples)

    def __eq__(self, other):
        return (
            isinstance(other, Dataset)
            and self.dim == other.dim
            and np.array_equal(self.labels, other.labels)
            and self.samples == other.samples
        )

    def __repr__(self):
        return f"Dataset(n={self.n}, dim={self.dim})"


def parse_libsvm(text: str | Iterable[str], dim: int | None = None) -> Dataset:
    """Parse LIBSVM-format text: ``<label> <idx>:<val> ...`` with 1-based indices.

    Indices are shifted to 0-based. ``#`` starts a comment running to the end
    of the line. An empty stream yields an empty dataset (n=0, dim=0).
    """
    if isinstance(text, str):
        lines: Iterable[str] = text.splitlines()
    else:
        lines = text
    samples = []
    labels = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(line_no, f"bad label {tokens[0]!r}") from None
        if not np.isfinite(label):
            raise ParseError(line_no, f"non-finite label {tokens[0]!r}")
        indices = []
        values = []
        prev = 0  # 1-based; entries must strictly increase
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError(line_no, f"expected idx:val pair, got {tok!r}")
            try:
                idx = int(idx_s)
            except ValueError:
                raise ParseError(line_no, f"bad feature index {idx_s!r}") from None
            try:
                val = float(val_s)
            except ValueError:
                raise ParseError(line_no, f"bad feature value {val_s!r}") from None
            if idx < 1:
                raise ParseError(line_no, f"feature index {idx} not positive")
            if idx <= prev:
                raise ParseError(line_no, f"feature index {idx} not increasing")
            prev = idx
            indices.append(idx - 1)
            values.append(val)
        try:
            samples.append(SparseVector(indices, values))
        except ValueError as exc:  # non-finite values and the like
            raise ParseError(line_no, str(exc)) from None
        labels.append(label)
    return Dataset(samples, labels, dim=dim)


def serialize_libsvm(data: Dataset) -> str:
    """Inverse of parse_libsvm; floats printed with shortest round-trip repr."""
    out = []
    for s, y in zip(data.samples, data.labels):
        parts = [repr(float(y))]
        parts += [f"{int(i) + 1}:{float(v)!r}" for i, v in zip(s.indices, s.values)]
        out.append(" ".join(parts))
    return "\n".join(out) + ("\n" if out else "")


def load_libsvm(path, dim: int | None = None) -> Dataset:
    """Read a LIBSVM file; gzip input is detected by magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == GZIP_MAGIC:
            with gzip.open(fh, "rt", encoding="utf-8") as gz:
                return parse_libsvm(gz, dim=dim)
        return parse_libsvm(io.TextIOWrapper(fh, encoding="utf-8"), dim=dim)


def normalize_samples(data: Dataset) -> Dataset:
    """Scale every sample to unit L2 norm (empty rows kept as-is)."""
    normed = []
    for s in data.samples:
        nrm = np.sqrt(s.sqnorm())
        if nrm == 0.0:
            normed.append(s)
        else:
            normed.append(SparseVector(s.indices, s.values / nrm))
    return Dataset(normed, data.labels, dim=data.dim)


def _dense_row(vec: np.ndarray) -> SparseVector:
    idx = np.flatnonzero(vec)
    return SparseVector(idx, vec[idx])


def synth_dataset(
    seed: int, n: int, d: int, mode: str, noise: float = 0.0
) -> tuple[Dataset, np.ndarray | None]:
    """Deterministic synthetic problems.

    ``separable``: standard-normal features with labels sign(x·w_true) and
    margin |x·w_true| >= 0.1 enforced by per-row resampling (w_true is drawn
    unit-norm), so a perfect classifier exists. ``underparam``: n > d
    least-squares data y = x·w_true + noise·xi with standard-normal x and xi.

    Returns the planted vector only when it is verifiably the exact
    minimizer of the corresponding unregularized loss (noise-free
    least-squares); otherwise None.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    rng = np.random.default_rng(seed)
    if mode == "separable":
        w_true = rng.standard_normal(d)
        w_true /= np.linalg.norm(w_true)
        rows = []
        labels = []
        for _ in range(n):
            x = rng.standard_normal(d)
            m = float(np.dot(x, w_true))
            while abs(m) < 0.1:
                x = rng.standard_normal(d)
                m = float(np.dot(x, w_true))
            rows.append(_dense_row(x))
            labels.append(1.0 if m > 0 else -1.0)
        return Dataset(rows, labels, dim=d), None
    if mode == "underparam":
        if n <= d:
            raise ValueError("underparam mode requires n > d")
        X = rng.standard_normal((n, d))
        w_true = rng.standard_normal(d)
        y = X @ w_true
        if noise != 0.0:
            y = y + noise * rng.standard_normal(n)
        data = Dataset([_dense_row(X[i]) for i in range(n)], y, dim=d)
        if noise == 0.0:
            # planted vector is the exact minimizer iff the residual gradient
            # vanishes (least squares is convex, so zero gradient is global)
            grad = data.dense.T @ (data.dense @ w_true - data.labels) / n
            if float(np.linalg.norm(grad)) <= 1e-10:
                return data, w_true
        return data, None
    raise ValueError(f"unknown mode {mode!r} (expected 'separable' or 'underparam')")
