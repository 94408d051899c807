"""Sparse datasets: LIBSVM-format I/O and seeded synthetic problem generators.

A ``Dataset`` stores its features once, as a ``CSRMatrix`` (this module's
own compressed-sparse-row type, built on numpy alone), together with the
labels, the per-row square norms and per-row (indices, values) views into
the CSR arrays. A full-batch product costs O(nnz) and one sample is two
array views, so nothing is ever stored or scanned at n x d. Model vectors
are plain dense numpy arrays.
"""

from __future__ import annotations

import gzip
import io
import math
from typing import Iterable, NamedTuple, Sequence

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


class Row(NamedTuple):
    """One sample of a ``Dataset``: read-only views of its CSR slice."""

    indices: np.ndarray
    values: np.ndarray


def dot(x, w: np.ndarray) -> float:
    """Inner product of a sparse row (a ``SparseVector`` or a ``Row``) with a
    dense vector. Empty row -> 0."""
    if x.indices.size == 0:
        return 0.0
    if x.indices[-1] >= len(w):
        raise DimensionMismatch(
            f"index {int(x.indices[-1])} out of range for dense vector of length {len(w)}"
        )
    return float(np.dot(x.values, w[x.indices]))


def _spread(v, gather: np.ndarray, scatter: np.ndarray, data: np.ndarray, size_in: int,
            size_out: int) -> np.ndarray:
    """out[scatter[e]] += data[e] * v[gather[e]] over the stored entries e in
    order, into a zeroed float64 output of length ``size_out``."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (size_in,):
        raise ValueError(f"dimension mismatch: vector of shape {v.shape}, expected ({size_in},)")
    if not data.size:  # bincount of nothing is an integer array
        return np.zeros(size_out)
    terms = v.take(gather)
    terms *= data
    return np.bincount(scatter, weights=terms, minlength=size_out)


class CSRMatrix:
    """Read-only n x d matrix in compressed sparse row form.

    ``data`` (float64), ``indices`` and ``indptr`` (intp) are the CSR
    arrays, ``row_ids[e]`` is the row of stored entry e, and ``shape`` is
    (n, d). The caller hands over valid CSR arrays (indices within range
    and increasing along each row); they are made read-only.

    ``X @ w``, ``X.T @ u`` and ``gram()`` add each output's terms one at a
    time in storage order (rows in order for ``gram``), starting from 0.0,
    the order of a plain loop over the entries.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "nnz", "row_ids")

    def __init__(self, data, indices, indptr, shape):
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.shape = (int(shape[0]), int(shape[1]))
        self.nnz = int(self.data.size)
        self.row_ids = np.repeat(np.arange(self.shape[0], dtype=np.intp), np.diff(self.indptr))
        for arr in (self.data, self.indices, self.indptr, self.row_ids):
            arr.setflags(write=False)

    def __matmul__(self, w) -> np.ndarray:
        return _spread(w, self.indices, self.row_ids, self.data, self.shape[1], self.shape[0])

    @property
    def T(self) -> "_Transposed":
        return _Transposed(self)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row_ids, self.indices] = self.data
        return out

    def gram(self) -> np.ndarray:
        """Dense d x d X^T X: entry (j, k) sums X[r, j] * X[r, k] over the
        rows r in order. Rows go in chunks of about max(d^2, 2^18) products,
        each added onto the sums so far, so the temporaries stay bounded."""
        n, d = self.shape
        lens = np.diff(self.indptr)
        ends = np.cumsum(lens * lens)  # products up to the end of each row
        bound = max(d * d, 1 << 18)
        sums = np.zeros(d * d)
        r0 = 0
        while r0 < n:
            done = int(ends[r0 - 1]) if r0 else 0
            r1 = max(int(np.searchsorted(ends, done + bound, side="right")), r0 + 1)
            a, b = self.indptr[r0], self.indptr[r1]
            rows = self.row_ids[a:b]
            # stored entry (r, j) pairs with every entry (r, k) of its row
            counts = lens[rows]
            firsts = self.indptr[rows] - (np.cumsum(counts) - counts)
            partners = np.repeat(firsts, counts) + np.arange(int(counts.sum()))
            keys = np.repeat(self.indices[a:b] * d, counts) + self.indices[partners]
            np.add.at(sums, keys, np.repeat(self.data[a:b], counts) * self.data[partners])
            r0 = r1
        return sums.reshape(d, d)


class _Transposed:
    """``X.T`` of a ``CSRMatrix``, for its product with a vector."""

    __slots__ = ("X",)

    def __init__(self, X: CSRMatrix):
        self.X = X

    def __matmul__(self, u) -> np.ndarray:
        X = self.X
        return _spread(u, X.row_ids, X.indices, X.data, X.shape[0], X.shape[1])


class Dataset:
    """Immutable collection of sparse samples with real labels.

    ``samples`` is a sequence of ``SparseVector`` rows, a ``CSRMatrix``,
    or a scipy sparse matrix (any object with a ``tocsr`` method; its
    duplicate entries are summed). Explicit zeros in a matrix are dropped.
    ``dim`` defaults to max index + 1 for rows and to the column count for
    a matrix, and may be overridden upward (a dataset may simply not touch
    its trailing features).

    ``X`` is the n x dim ``CSRMatrix``, and ``rows[i]`` is sample i as a
    ``Row`` of views into it.
    """

    __slots__ = ("X", "labels", "dim", "row_sqnorms", "rows")

    def __init__(self, samples: Sequence[SparseVector] | CSRMatrix, labels,
                 dim: int | None = None):
        labels_arr = np.array(labels, dtype=np.float64)
        if hasattr(samples, "tocsr"):
            csr = samples.tocsr().astype(np.float64)  # a copy
            csr.sum_duplicates()
            samples = CSRMatrix(csr.data, csr.indices, csr.indptr, csr.shape)
        if isinstance(samples, CSRMatrix):
            keep = samples.data != 0.0
            values, indices = samples.data[keep], samples.indices[keep]
            indptr = np.concatenate(([0], np.cumsum(keep)))[samples.indptr]
            if not np.isfinite(values).all():
                raise ValueError("non-finite feature value")
            max_dim = samples.shape[1]
        else:
            samples = tuple(samples)
            indptr = np.zeros(len(samples) + 1, dtype=np.int64)
            np.cumsum([s.nnz for s in samples], out=indptr[1:])
            indices = np.concatenate([s.indices for s in samples] or [np.zeros(0, np.int64)])
            values = np.concatenate([s.values for s in samples] or [np.zeros(0)])
            max_dim = int(indices.max()) + 1 if indices.size else 0
        n = indptr.size - 1
        if labels_arr.ndim != 1 or n != labels_arr.size:
            raise ValueError("samples and labels must have matching length")
        if dim is None:
            dim = max_dim
        elif dim < max_dim:
            raise ValueError(f"dim={dim} smaller than max feature index + 1 ({max_dim})")
        X = CSRMatrix(values, indices, indptr, (n, int(dim)))
        bounds = X.indptr.tolist()
        rows = tuple(
            Row(X.indices[a:b], X.data[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
        )
        with np.errstate(over="ignore"):  # a huge row's square norm is inf
            sqn = np.array([float(np.dot(r.values, r.values)) for r in rows])
        for arr in (labels_arr, sqn):
            arr.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", labels_arr)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "row_sqnorms", sqn)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def n(self) -> int:
        return self.labels.size

    def __eq__(self, other):
        return (
            isinstance(other, Dataset)
            and self.dim == other.dim
            and np.array_equal(self.labels, other.labels)
            and all(
                np.array_equal(getattr(self.X, a), getattr(other.X, a))
                for a in ("indptr", "indices", "data")
            )
        )

    def __repr__(self):
        return f"Dataset(n={self.n}, dim={self.dim})"


def parse_libsvm(text: str | Iterable[str], dim: int | None = None) -> Dataset:
    """Parse LIBSVM-format text: ``<label> <idx>:<val> ...`` with 1-based indices.

    Indices are shifted to 0-based and explicit zeros dropped. ``#`` starts a
    comment running to the end of the line. An empty stream yields an empty
    dataset (n=0, dim=0).
    """
    if isinstance(text, str):
        lines: Iterable[str] = text.splitlines()
    else:
        lines = text
    indptr = [0]
    indices = []
    values = []
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
        if not math.isfinite(label):
            raise ParseError(line_no, f"non-finite label {tokens[0]!r}")
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
            if not math.isfinite(val):
                raise ParseError(line_no, "non-finite feature value")
            prev = idx
            if val != 0.0:
                indices.append(idx - 1)
                values.append(val)
        indptr.append(len(indices))
        labels.append(label)
    X = CSRMatrix(values, indices, indptr, (len(labels), max(indices, default=-1) + 1))
    return Dataset(X, labels, dim=dim)


def serialize_libsvm(data: Dataset) -> str:
    """Inverse of parse_libsvm; floats printed with shortest round-trip repr."""
    out = []
    for row, y in zip(data.rows, data.labels.tolist()):
        parts = [repr(y)]
        parts += [f"{i + 1}:{v!r}" for i, v in zip(row.indices.tolist(), row.values.tolist())]
        out.append(" ".join(parts))
    return "\n".join(out) + ("\n" if out else "")


def load_libsvm(path, dim: int | None = None) -> Dataset:
    """Read a LIBSVM file; gzip input is detected by magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        gz = head == GZIP_MAGIC
        with gzip.open(fh, "rt", encoding="utf-8") if gz else io.TextIOWrapper(fh, encoding="utf-8") as text:
            return parse_libsvm(text, dim=dim)


def normalize_samples(data: Dataset) -> Dataset:
    """Scale every sample to unit L2 norm (empty rows kept as-is)."""
    nrm = np.sqrt(data.row_sqnorms)
    nrm[nrm == 0.0] = 1.0
    X = data.X
    return Dataset(CSRMatrix(X.data / nrm[X.row_ids], X.indices, X.indptr, X.shape), data.labels)


def _dense_csr(a: np.ndarray) -> CSRMatrix:
    """The nonzeros of a dense 2-D array, row by row."""
    rows, cols = np.nonzero(a)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(a, axis=1))))
    return CSRMatrix(a[rows, cols], cols, indptr, a.shape)


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
        X = np.empty((n, d))
        labels = []
        for r in range(n):
            x = rng.standard_normal(d)
            m = float(np.dot(x, w_true))
            while abs(m) < 0.1:
                x = rng.standard_normal(d)
                m = float(np.dot(x, w_true))
            X[r] = x
            labels.append(1.0 if m > 0 else -1.0)
        return Dataset(_dense_csr(X), labels), None
    if mode == "underparam":
        if n <= d:
            raise ValueError("underparam mode requires n > d")
        X = rng.standard_normal((n, d))
        w_true = rng.standard_normal(d)
        y = X @ w_true
        if noise != 0.0:
            y = y + noise * rng.standard_normal(n)
        data = Dataset(_dense_csr(X), y)
        if noise == 0.0:
            # planted vector is the exact minimizer iff the residual gradient
            # vanishes (least squares is convex, so zero gradient is global)
            grad = data.X.T @ (data.X @ w_true - data.labels) / n
            if float(np.linalg.norm(grad)) <= 1e-10:
                return data, w_true
        return data, None
    raise ValueError(f"unknown mode {mode!r} (expected 'separable' or 'underparam')")
