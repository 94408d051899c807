"""Sparse rows, LIBSVM round-trips, and synthetic problem generators."""

import gzip

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from polyak_opt.data import (
    Dataset,
    DimensionMismatch,
    ParseError,
    SparseVector,
    dot,
    load_libsvm,
    normalize_samples,
    parse_libsvm,
    serialize_libsvm,
    synth_dataset,
)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def draw_sparse_dense(draws) -> np.ndarray:
    """A dense n x dim array of a random sparse matrix: n in 0..6, empty
    rows, unused trailing columns, any finite nonzero entries."""
    n = draws.draw(st.integers(0, 6), label="n")
    used = draws.draw(st.integers(0, 8), label="used features")
    dim = used + draws.draw(st.integers(0, 3), label="trailing features")
    dense = np.zeros((n, dim))
    for r in range(n):
        cols = draws.draw(st.lists(st.integers(0, max(used - 1, 0)), unique=True,
                                  max_size=used), label=f"row {r}")
        for c in cols:
            dense[r, c] = draws.draw(FINITE.filter(lambda v: v != 0.0))
    return dense


class TestSparseVector:
    def test_basic_construction(self):
        v = SparseVector([0, 2], [0.5, 2.0])
        assert v.nnz == 2
        assert v.sqnorm() == 0.25 + 4.0
        assert_allclose(v.to_dense(3), [0.5, 0.0, 2.0])

    def test_explicit_zeros_dropped(self):
        v = SparseVector([0, 1, 2], [1.0, 0.0, 3.0])
        assert v.nnz == 2
        assert list(v.indices) == [0, 2]

    def test_rejects_decreasing_indices(self):
        with pytest.raises(ValueError):
            SparseVector([2, 1], [1.0, 2.0])

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            SparseVector([1, 1], [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SparseVector([0], [np.inf])

    def test_dense_dot_matches(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = int(rng.integers(1, 12))
            dense = rng.standard_normal(d)
            mask = rng.random(d) < 0.6
            dense[mask] = 0.0
            idx = np.flatnonzero(dense)
            v = SparseVector(idx, dense[idx])
            w = rng.standard_normal(d)
            assert_allclose(dot(v, w), float(dense @ w), rtol=1e-12)

    def test_dot_dimension_guard(self):
        v = SparseVector([4], [1.0])
        with pytest.raises(DimensionMismatch):
            dot(v, np.zeros(3))


class TestParseLibsvm:
    def test_worked_example(self):
        data = parse_libsvm("+1 1:0.5 3:2.0")
        assert data.n == 1 and data.dim == 3
        assert data.labels[0] == 1.0
        assert list(data.rows[0].indices) == [0, 2]
        assert_allclose(data.rows[0].values, [0.5, 2.0])

    def test_comments_and_blanks(self):
        text = "# leading comment\n\n-1 2:1.5  # trailing\n"
        data = parse_libsvm(text)
        assert data.n == 1
        assert data.labels[0] == -1.0
        assert data.dim == 2

    def test_bad_pair_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("+1 1:0.5\n+1 oops\n")
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_nonfinite_label_reports_line(self, label):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(f"+1 1:0.5\n{label} 1:1.0\n")
        assert exc.value.line_no == 2

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 0:1.0")

    def test_unsorted_indices_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 3:1.0 1:2.0")

    def test_empty_stream(self):
        data = parse_libsvm("")
        assert data.n == 0 and data.dim == 0

    def test_dim_override(self):
        data = parse_libsvm("+1 1:1.0", dim=10)
        assert data.dim == 10
        with pytest.raises(ValueError):
            parse_libsvm("+1 5:1.0", dim=2)


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        rng = np.random.default_rng(11)
        rows = []
        for _ in range(20):
            d = 8
            dense = rng.standard_normal(d)
            dense[rng.random(d) < 0.5] = 0.0
            idx = np.flatnonzero(dense)
            rows.append(SparseVector(idx, dense[idx]))
        data = Dataset(rows, rng.standard_normal(20), dim=8)
        again = parse_libsvm(serialize_libsvm(data), dim=8)
        assert again == data

    @given(st.data())
    def test_random_csr_round_trips(self, draws):
        # empty rows, unused trailing features, and any finite float
        # (subnormals, extremes, long reprs) in values and labels
        dense = draw_sparse_dense(draws)
        n, dim = dense.shape
        labels = draws.draw(st.lists(FINITE, min_size=n, max_size=n), label="labels")
        ds = Dataset(sp.csr_array(dense), labels, dim=dim)
        again = parse_libsvm(serialize_libsvm(ds), dim=ds.dim)
        assert again == ds
        assert again.n == n and again.X.nnz == np.count_nonzero(dense)

    def test_serializer_has_no_numpy_reprs(self):
        data, _ = synth_dataset(5, 4, 3, "underparam", noise=0.2)
        text = serialize_libsvm(data)
        assert "np." not in text

    def test_gzip_loading(self, tmp_path):
        data, _ = synth_dataset(1, 6, 3, "separable")
        plain = tmp_path / "d.libsvm"
        plain.write_text(serialize_libsvm(data))
        zipped = tmp_path / "d.libsvm.gz"
        zipped.write_bytes(gzip.compress(serialize_libsvm(data).encode()))
        assert load_libsvm(plain) == load_libsvm(zipped) == data


def assert_same_bits(ours, ref):
    assert ours.dtype == ref.dtype == np.float64 and ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()


class TestCSRMatrix:
    """The products of ``Dataset.X`` are scipy.sparse's, bit for bit."""

    @given(st.data())
    def test_products_match_scipy(self, draws):
        # any float in the vectors: +-0.0, subnormals, inf and nan
        dense = draw_sparse_dense(draws)
        n, d = dense.shape
        ref = sp.csr_array(dense)
        X = Dataset(ref, np.zeros(n), dim=d).X
        w = np.array(draws.draw(st.lists(st.floats(), min_size=d, max_size=d), label="w"))
        u = np.array(draws.draw(st.lists(st.floats(), min_size=n, max_size=n), label="u"))
        with np.errstate(all="ignore"):  # huge entries overflow, inf - inf is nan
            assert_same_bits(X @ w, ref @ w)
            assert_same_bits(X.T @ u, ref.T @ u)
            assert_same_bits(X.gram(), (ref.T @ ref).toarray())
        assert_same_bits(X.toarray(), dense)

    def test_zero_vector_gives_positive_zeros(self):
        # 0 * -3 is -0.0, and every sum starts from +0.0
        dense = np.array([[-3.0, 0.0, -1.0], [0.0, -2.0, 0.0], [0.0, 0.0, 0.0]])
        X = Dataset(sp.csr_array(dense), np.zeros(3)).X
        for out in (X @ np.zeros(3), X.T @ np.zeros(3), X @ -np.zeros(3)):
            assert_same_bits(out, np.zeros(3))

    def test_empty_matrices(self):
        for n, d in [(0, 0), (0, 3), (2, 0), (2, 3)]:
            X = Dataset(sp.csr_array((n, d)), np.zeros(n), dim=d).X
            assert_same_bits(X @ np.ones(d), np.zeros(n))
            assert_same_bits(X.T @ np.ones(n), np.zeros(d))
            assert_same_bits(X.gram(), np.zeros((d, d)))

    def test_long_rows_match_scipy(self):
        # 600 full rows of 40: sums longer than a pairwise summation's
        # blocks, and 960 000 Gram products, several chunks' worth; each
        # output must still be one running sum in storage order
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((600, 40)) * 10.0 ** rng.integers(-8, 8, (600, 40))
        ref = sp.csr_array(dense)
        X = Dataset(ref, np.zeros(600)).X
        w, u = rng.standard_normal(40), rng.standard_normal(600)
        assert_same_bits(X @ w, ref @ w)
        assert_same_bits(X.T @ u, ref.T @ u)
        assert_same_bits(X.gram(), (ref.T @ ref).toarray())

    def test_dimension_mismatch(self):
        X = Dataset(sp.csr_array(np.ones((2, 3))), np.zeros(2)).X
        with pytest.raises(ValueError, match="dimension mismatch"):
            X @ np.ones(2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            X.T @ np.ones(3)


class TestNormalize:
    def test_unit_rows(self):
        data, _ = synth_dataset(2, 10, 4, "separable")
        normed = normalize_samples(data)
        assert_allclose(normed.row_sqnorms, np.ones(10), rtol=1e-12)
        assert_allclose(normed.labels, data.labels)

    def test_zero_row_kept(self):
        data = Dataset([SparseVector([], [])], [1.0], dim=2)
        normed = normalize_samples(data)
        assert normed.rows[0].indices.size == 0


class TestSynthDataset:
    def test_separable_margin(self):
        # The generator draws a unit-norm direction first, then resamples
        # rows until |x . w| >= 0.1; mirror that draw to recover the
        # direction and confirm every row clears the margin.
        data, returned = synth_dataset(0, 100, 20, "separable")
        assert returned is None
        rng = np.random.default_rng(0)
        w_true = rng.standard_normal(20)
        w_true /= np.linalg.norm(w_true)
        margins = data.labels * (data.X @ w_true)
        assert margins.min() >= 0.1 - 1e-12
        assert set(np.unique(data.labels)) == {-1.0, 1.0}

    def test_underparam_noiseless_interpolates(self):
        data, w_true = synth_dataset(4, 30, 6, "underparam", noise=0.0)
        assert w_true is not None
        assert_allclose(data.X @ w_true, data.labels, atol=1e-10)

    def test_underparam_noisy_withholds_w(self):
        data, w_true = synth_dataset(4, 30, 6, "underparam", noise=0.3)
        assert w_true is None
        assert data.n == 30

    def test_deterministic(self):
        a, _ = synth_dataset(9, 15, 5, "separable")
        b, _ = synth_dataset(9, 15, 5, "separable")
        assert a == b

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            synth_dataset(0, 5, 2, "bogus")
