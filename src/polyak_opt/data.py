"""Sparse datasets: LIBSVM-format I/O and seeded synthetic problem generators.

A ``Dataset`` is built from a ``CSRMatrix`` (this module's own
compressed-sparse-row type, built on numpy alone) or from a dense 2-D
array, and stores its features as one ``CSRMatrix``, together with the
labels, the per-row square norms and per-row (indices, values) views into
the CSR arrays. A full-batch product costs O(nnz) and one sample is two
array views, so nothing is ever stored or scanned at n x d beyond the
nonzeros. A matrix whose rows are all full also keeps a d x n copy of its
values (8 bytes per nonzero), so that its products are row reductions
rather than scatter-adds (see ``CSRMatrix``). Model vectors are plain
dense numpy arrays.
"""

from __future__ import annotations

import gzip
import io
import math
from typing import Iterable, NamedTuple

import numpy as np

GZIP_MAGIC = b"\x1f\x8b"


class ParseError(ValueError):
    """Malformed LIBSVM text. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Row(NamedTuple):
    """One sample of a ``Dataset``: read-only views of its CSR slice."""

    indices: np.ndarray
    values: np.ndarray


def _vector(v, size: int) -> np.ndarray:
    """v as a float64 vector of length ``size``, or ValueError."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (size,):
        raise ValueError(f"dimension mismatch: vector of shape {v.shape}, expected ({size},)")
    return v


def _spread(v, gather: np.ndarray, scatter: np.ndarray, data: np.ndarray, size_in: int,
            size_out: int) -> np.ndarray:
    """out[scatter[e]] += data[e] * v[gather[e]] over the stored entries e in
    order, into a zeroed float64 output of length ``size_out``."""
    v = _vector(v, size_in)
    if not data.size:  # bincount of nothing is an integer array
        return np.zeros(size_out)
    terms = v.take(gather)
    terms *= data
    return np.bincount(scatter, weights=terms, minlength=size_out)


class CSRMatrix:
    """Read-only n x d matrix in compressed sparse row form.

    ``data`` (float64), ``indices`` and ``indptr`` (intp) are the CSR
    arrays, ``row_ids[e]`` is the row of stored entry e, and ``shape`` is
    (n, d). The arrays are checked and made read-only: ``indptr`` must be
    n+1 non-decreasing offsets from 0 to nnz, and the indices must lie in
    [0, d) and strictly increase along each row, or ValueError. ``data``
    may hold zeros and non-finite values.

    ``X @ w`` and ``X.T @ u`` add each output's terms one at a time in
    storage order, starting from 0.0, the order of a plain loop over the
    entries and of scipy.sparse, so the products are scipy's bit for bit.
    The one exception is a sum where NaNs of both signs meet: IEEE 754
    leaves open which NaN it keeps, and scipy keeps the later one where
    ``np.bincount`` and numpy's add keep the earlier, so such an output is
    NaN in both but its sign may differ.

    ``dense`` is True when every row is full (nnz = n·d). Such a matrix,
    unless it has a single row or column, also keeps ``columns``, a
    C-contiguous d x n copy of ``data`` (8 bytes per nonzero), and its
    products are row reductions: ``X @ w`` is
    ``np.add.reduce(columns * w[:, None], axis=0, initial=0.0)`` and
    ``X.T @ u`` the same over ``data`` seen as n x d. numpy reduces along
    axis 0 of a C-contiguous array one row at a time into the output, so
    each output is the same sequential sum, in storage order, as the
    scatter-add's. Three cases would break that:

    * a reduced array with one column is summed pairwise, not in order,
      so a matrix with one row (for ``X @ w``) or one column (for
      ``X.T @ u``) keeps the scatter-add for both products;
    * the sum must start from +0.0: ``initial=0.0`` pins it, so that a
      column of -0.0 terms (w = 0 against negative entries) sums to +0.0;
    * where two NaNs of different bits meet, numpy's vector and scalar
      loops of the reduction may keep different ones, so a product with a
      NaN output is computed again by the scatter-add.

    Every other matrix scatter-adds its products with ``np.bincount``.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "nnz", "row_ids", "dense", "columns")

    def __init__(self, data, indices, indptr, shape):
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.indptr = np.asarray(indptr, dtype=np.intp)
        n, d = self.shape = (int(shape[0]), int(shape[1]))
        self.nnz = int(self.data.size)
        ptr, idx = self.indptr, self.indices
        if self.data.ndim != 1 or idx.shape != self.data.shape:
            raise ValueError("data and indices must be 1-D and the same length")
        if ptr.shape != (n + 1,) or ptr[0] != 0 or ptr[-1] != self.nnz or (ptr[1:] < ptr[:-1]).any():
            raise ValueError(f"indptr must be {n + 1} non-decreasing offsets from 0 to nnz={self.nnz}")
        self.row_ids = np.repeat(np.arange(n, dtype=np.intp), np.diff(ptr))
        if self.nnz and (idx.min() < 0 or idx.max() >= d):
            raise ValueError(f"feature index out of range [0, {d})")
        if ((idx[1:] <= idx[:-1]) & (self.row_ids[1:] == self.row_ids[:-1])).any():
            raise ValueError("feature indices must strictly increase along a row")
        self.dense = self.nnz == n * d
        self.columns = None
        if self.dense and n > 1 and d > 1:
            self.columns = np.ascontiguousarray(self.data.reshape(n, d).T)
            self.columns.setflags(write=False)
        for arr in (self.data, self.indices, self.indptr, self.row_ids):
            arr.setflags(write=False)

    def __matmul__(self, w) -> np.ndarray:
        n, d = self.shape
        if self.columns is not None:
            out = np.add.reduce(self.columns * _vector(w, d)[:, None], axis=0, initial=0.0)
            if not np.isnan(out).any():
                return out
        return _spread(w, self.indices, self.row_ids, self.data, d, n)

    @property
    def T(self) -> "_Transposed":
        return _Transposed(self)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row_ids, self.indices] = self.data
        return out


class _Transposed:
    """``X.T`` of a ``CSRMatrix``, for its product with a vector."""

    __slots__ = ("X",)

    def __init__(self, X: CSRMatrix):
        self.X = X

    def __matmul__(self, u) -> np.ndarray:
        X = self.X
        n, d = X.shape
        if X.columns is not None:
            out = np.add.reduce(X.data.reshape(n, d) * _vector(u, n)[:, None], axis=0, initial=0.0)
            if not np.isnan(out).any():
                return out
        return _spread(u, X.row_ids, X.indices, X.data, n, d)


class Dataset:
    """Immutable collection of sparse samples with real labels.

    ``X`` is a ``CSRMatrix`` (which has checked its arrays) or a dense 2-D
    array, whose nonzeros become the stored entries. Explicit zeros are
    dropped, and a non-finite feature value or label is a ValueError. ``dim``
    defaults to the column count of ``X`` and may be overridden upward (a
    dataset may simply not touch its trailing features).

    ``X`` is then the n x dim ``CSRMatrix``, and ``rows[i]`` is sample i as
    a ``Row`` of views into it.
    """

    __slots__ = ("X", "labels", "dim", "row_sqnorms", "rows")

    def __init__(self, X: CSRMatrix | np.ndarray, labels, dim: int | None = None):
        labels_arr = np.array(labels, dtype=np.float64)
        if isinstance(X, CSRMatrix):
            keep = X.data != 0.0
            values, indices = X.data[keep], X.indices[keep]
            indptr = np.concatenate(([0], np.cumsum(keep)))[X.indptr]
        else:
            X = np.asarray(X, dtype=np.float64)
            if X.ndim != 2:
                raise ValueError(f"a dense feature array must be 2-D, got shape {X.shape}")
            nonzero = np.nonzero(X)
            values, indices = X[nonzero], nonzero[1]
            indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(X, axis=1))))
        for what, arr in (("feature value", values), ("label", labels_arr)):
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite {what}")
        n, max_dim = X.shape
        if labels_arr.ndim != 1 or n != labels_arr.size:
            raise ValueError("samples and labels must have matching length")
        if dim is None:
            dim = max_dim
        elif dim < max_dim:
            raise ValueError(f"dim={dim} smaller than the {max_dim} columns of the features")
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


def _odd_token(line_no: int, line: str) -> ParseError:
    """The error for a LIBSVM line that holds "_" or a non-ASCII character,
    which ``int`` and ``float`` would read as a digit separator, a digit or
    a space: "bad label", "bad feature index" or "bad feature value" with
    the first part that holds one. The line is split at spaces and tabs
    only, so that a non-ASCII space stays inside its token."""
    label, *pairs = line.replace("\t", " ").split(" ")
    parts = [("label", label)] + [
        part for tok in pairs for part in zip(("feature index", "feature value"), tok.split(":", 1))]
    what, bad = next((what, s) for what, s in parts if "_" in s or not s.isascii())
    return ParseError(line_no, f"bad {what} {bad!r}")


def parse_libsvm(text: str | Iterable[str], dim: int | None = None) -> Dataset:
    """Parse LIBSVM-format text: ``<label> <idx>:<val> ...`` with 1-based indices.

    Indices are shifted to 0-based and explicit zeros dropped. ``#`` starts a
    comment running to the end of the line. Numbers are ASCII without "_":
    a line that holds "_" or a non-ASCII character outside its comment is a
    ``ParseError``. An empty stream yields an empty dataset (n=0, dim=0).
    """
    lines: Iterable[str] = text.splitlines() if isinstance(text, str) else text
    indptr, indices, values, labels = [0], [], [], []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "_" in line or not line.isascii():
            raise _odd_token(line_no, line)
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


def synth_dataset(
    seed: int, n: int, d: int, mode: str, noise: float = 0.0
) -> tuple[Dataset, np.ndarray | None]:
    """Deterministic synthetic problems.

    ``separable``: standard-normal features with labels sign(x·w_true) and
    margin |x·w_true| >= 0.1 enforced by per-row resampling (w_true is drawn
    unit-norm), so a perfect classifier exists; a nonzero ``noise`` is a
    ValueError there. ``underparam``: n > d least-squares data
    y = x·w_true + noise·xi with standard-normal x and xi.

    Returns the planted vector only when it is verifiably the exact
    minimizer of the corresponding unregularized loss (noise-free
    least-squares); otherwise None.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    rng = np.random.default_rng(seed)
    if mode == "separable":
        if noise != 0.0:
            raise ValueError(f"noise={noise} applies to underparam mode only")
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
        return Dataset(X, labels), None
    if mode == "underparam":
        if n <= d:
            raise ValueError("underparam mode requires n > d")
        X = rng.standard_normal((n, d))
        w_true = rng.standard_normal(d)
        y = X @ w_true
        if noise != 0.0:
            with np.errstate(over="ignore"):  # Dataset rejects a label that overflows
                y = y + noise * rng.standard_normal(n)
        data = Dataset(X, y)
        if noise == 0.0:
            # planted vector is the exact minimizer iff the residual gradient
            # vanishes (least squares is convex, so zero gradient is global)
            grad = data.X.T @ (data.X @ w_true - data.labels) / n
            if float(np.linalg.norm(grad)) <= 1e-10:
                return data, w_true
        return data, None
    raise ValueError(f"unknown mode {mode!r} (expected 'separable' or 'underparam')")
