"""Dataset construction, LIBSVM round-trips, CSR products, and synthetic problem
generators."""

import gzip

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from polyak_opt.data import (
    CSRMatrix,
    Dataset,
    ParseError,
    load_libsvm,
    normalize_samples,
    parse_libsvm,
    serialize_libsvm,
    _spread,
    synth_dataset,
)
from polyak_opt.losses import LossSpec, loss_grad_i


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def draw_full(draws) -> np.ndarray:
    """An n x d array with every entry nonzero: n and d in 1..40, and any
    finite nonzero floats, some drawn entry by entry and the rest one
    drawn fill value (drawing all 1600 one by one is slow)."""
    n = draws.draw(st.integers(1, 40), label="n")
    d = draws.draw(st.integers(1, 40), label="d")
    nonzero = FINITE.filter(lambda v: v != 0.0)
    return draws.draw(arrays(np.float64, (n, d), elements=nonzero, fill=nonzero), label="entries")


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


class TestDataset:
    def test_basic_construction(self):
        dense = np.array([[0.5, 0.0, 2.0]])
        data = Dataset(dense, [1.0])
        assert data.n == 1 and data.dim == 3 and data.X.nnz == 2
        assert list(data.rows[0].indices) == [0, 2]
        assert data.row_sqnorms[0] == 0.25 + 4.0
        assert_same_bits(data.X.toarray(), dense)

    def test_explicit_zeros_dropped(self):
        # from a CSRMatrix that stores them, and from a dense array
        stored = CSRMatrix([1.0, 0.0, -0.0, 3.0], [0, 1, 2, 3], [0, 4], (1, 4))
        for X in (stored, [[1.0, 0.0, -0.0, 3.0]]):
            data = Dataset(X, [1.0])
            assert data.X.nnz == 2 and data.dim == 4
            assert list(data.rows[0].indices) == [0, 3]
            assert list(data.rows[0].values) == [1.0, 3.0]

    def test_dense_array_equals_its_csr(self):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((6, 4))
        dense[rng.random((6, 4)) < 0.5] = 0.0
        ref = sp.csr_array(dense)
        labels = rng.standard_normal(6)
        from_csr = Dataset(CSRMatrix(ref.data, ref.indices, ref.indptr, ref.shape), labels)
        assert Dataset(dense, labels) == from_csr
        assert Dataset(dense, labels, dim=9) == Dataset(from_csr.X, labels, dim=9)

    def test_rejects_nonfinite(self):
        for bad in (np.inf, -np.inf, np.nan):
            for X in ([[0.0, bad]], CSRMatrix([bad], [1], [0, 1], (1, 2))):
                with pytest.raises(ValueError, match="non-finite feature value"):
                    Dataset(X, [1.0])
            with pytest.raises(ValueError, match="non-finite label"):
                Dataset([[0.0, 1.0]], [bad])

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 3), ()], ids=["1-D", "3-D", "0-D"])
    def test_rejects_a_dense_array_that_is_not_2d(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(np.ones(shape), [1.0])

    def test_rejects_decreasing_indices(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Dataset(CSRMatrix([1.0, 2.0], [2, 1], [0, 2], (1, 3)), [1.0])

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Dataset(CSRMatrix([1.0, 2.0], [1, 1], [0, 2], (1, 3)), [1.0])

    def test_indices_may_restart_at_a_row_boundary(self):
        data = Dataset(CSRMatrix([1.0, 2.0, 3.0], [1, 2, 0], [0, 2, 2, 3], (3, 3)), [1.0, 2.0, 3.0])
        assert [list(r.indices) for r in data.rows] == [[1, 2], [], [0]]

    @pytest.mark.parametrize("indices", [[0, 3], [-1, 1]], ids=["past-d", "negative"])
    def test_rejects_indices_out_of_range(self, indices):
        with pytest.raises(ValueError, match="out of range"):
            Dataset(CSRMatrix([1.0, 2.0], indices, [0, 2], (1, 3)), [1.0])

    @pytest.mark.parametrize("n, indptr", [(2, [1, 2, 2]), (2, [0, 1, 1]), (3, [0, 2, 1, 2]), (3, [0, 2])],
                             ids=["not-from-0", "not-to-nnz", "decreasing", "not-n+1-long"])
    def test_rejects_bad_indptr(self, n, indptr):
        with pytest.raises(ValueError, match="indptr"):
            Dataset(CSRMatrix([1.0, 2.0], [0, 1], indptr, (n, 2)), np.zeros(n))

    @pytest.mark.parametrize("labels", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]], ids=["short", "long", "2-D"])
    def test_rejects_labels_of_another_length(self, labels):
        for X in ([[1.0, 0.0], [0.0, 2.0]], CSRMatrix([1.0, 2.0], [0, 1], [0, 1, 2], (2, 2))):
            with pytest.raises(ValueError, match="^samples and labels must have matching length$"):
                Dataset(X, labels)

    def test_rejects_data_and_indices_of_different_lengths(self):
        with pytest.raises(ValueError, match="same length"):
            Dataset(CSRMatrix([1.0], [0, 1], [0, 2], (1, 2)), [1.0])

    def test_immutable_with_short_repr(self):
        data = Dataset([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]], [1.0, -1.0])
        for name in ("labels", "dim", "extra"):
            with pytest.raises(AttributeError, match="^Dataset is immutable$"):
                setattr(data, name, None)
        assert data.dim == 3 and not hasattr(data, "extra")
        assert repr(data) == "Dataset(n=2, dim=3)"


class TestDot:
    """The margin x_i·w that ``loss_grad_i`` takes from a row's views."""

    def test_dense_dot_matches(self):
        rng = np.random.default_rng(3)
        spec = LossSpec(family="squared")  # label 0: f = t²/2 and ∇f = t·x at margin t
        for _ in range(25):
            d = int(rng.integers(1, 12))
            dense = rng.standard_normal(d)
            mask = rng.random(d) < 0.6
            dense[mask] = 0.0
            data = Dataset(dense[None, :], [0.0])
            w = rng.standard_normal(d)
            t = float(dense @ w)
            val, g = loss_grad_i(spec, data, w, 0)
            assert_allclose(val, 0.5 * t * t, rtol=1e-12)
            assert_allclose(g, t * dense, rtol=1e-12)

    def test_dot_dimension_guard(self):
        data = parse_libsvm("1 4:1.0")
        spec = LossSpec(family="squared")
        for size in (3, 5):
            with pytest.raises(ValueError, match="dimension mismatch"):
                loss_grad_i(spec, data, np.zeros(size), 0)


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

    @pytest.mark.parametrize("line, message", [
        ("one 1:0.5", "bad label 'one'"),
        ("+1 x:0.5", "bad feature index 'x'"),
        ("+1 1.5:0.5", "bad feature index '1.5'"),
        ("+1 1:abc", "bad feature value 'abc'"),
        ("+1 1:inf", "non-finite feature value"),
        ("+1 2:0.5 3:nan", "non-finite feature value"),
        # int and float read "_" as a digit separator and take non-ASCII
        # digits and spaces
        ("+1 1:0_5", "bad feature value '0_5'"),
        ("1_0 1:1", "bad label '1_0'"),
        ("+1 1_0:0.5", "bad feature index '1_0'"),
        ("+1 1:\uff15", "bad feature value '\uff15'"),
        ("\u0661 1:0.5", "bad label '\u0661'"),
        ("+1 \u0662:0.5", "bad feature index '\u0662'"),
        ("+1\u00a01:0.5", "bad label '+1\\xa01:0.5'"),
        ("+1 1:abc # a comment may hold _ and \u00fc", "bad feature value 'abc'"),
    ])
    def test_bad_token_reports_line_and_message(self, line, message):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(f"+1 1:0.5\n\n{line}\n-1 2:1.0\n")
        assert exc.value.line_no == 3
        assert str(exc.value) == f"line 3: {message}"

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
        dense = np.zeros((20, 8))
        for row in dense:
            row[:] = rng.standard_normal(8)
            row[rng.random(8) < 0.5] = 0.0
        data = Dataset(dense, rng.standard_normal(20))
        again = parse_libsvm(serialize_libsvm(data), dim=8)
        assert again == data

    @given(st.data())
    def test_random_csr_round_trips(self, draws):
        # empty rows, unused trailing features, and any finite float
        # (subnormals, extremes, long reprs) in values and labels
        dense = draw_sparse_dense(draws)
        n, dim = dense.shape
        labels = draws.draw(st.lists(FINITE, min_size=n, max_size=n), label="labels")
        ds = Dataset(dense, labels)
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


def assert_same_bits_but_nans(ours, ref):
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(ours), nan)
    assert_same_bits(np.where(nan, 0.0, ours), np.where(nan, 0.0, ref))


class TestCSRMatrix:
    """The products of ``Dataset.X`` are scipy.sparse's, bit for bit."""

    @given(st.data())
    def test_products_match_scipy(self, draws):
        # any float in the vectors: +-0.0, subnormals, inf and nan
        dense = draw_sparse_dense(draws)
        n, d = dense.shape
        ref = sp.csr_array(dense)
        X = CSRMatrix(ref.data, ref.indices, ref.indptr, ref.shape)
        w = np.array(draws.draw(st.lists(st.floats(), min_size=d, max_size=d), label="w"))
        u = np.array(draws.draw(st.lists(st.floats(), min_size=n, max_size=n), label="u"))
        with np.errstate(all="ignore"):  # huge entries overflow, inf - inf is nan
            # NaNs of both signs in w or u can meet in one sum, where the
            # NaN kept is left open (see the full-matrix test): NaNs match
            # as NaNs, every other output bit for bit
            assert_same_bits_but_nans(X @ w, ref @ w)
            assert_same_bits_but_nans(X.T @ u, ref.T @ u)
        assert_same_bits(X.toarray(), dense)

    @given(st.data())
    def test_full_matrix_products_match_scipy(self, draws):
        # every row full: the row-reduction products, and the one-row and
        # one-column matrices that fall back to the scatter-add
        dense = draw_full(draws)
        n, d = dense.shape
        ref = sp.csr_array(dense)
        X = Dataset(dense, np.zeros(n)).X
        assert X.dense
        w = draws.draw(arrays(np.float64, d, elements=st.floats()), label="w")
        u = draws.draw(arrays(np.float64, n, elements=st.floats()), label="u")
        with np.errstate(all="ignore"):
            xw, xtu = X @ w, X.T @ u
            # Where two NaNs meet, IEEE 754 leaves open which one the sum
            # keeps: scipy's X.T @ u keeps the later one on x86, numpy's add
            # and bincount the earlier. So NaNs match scipy's as NaNs, and
            # the scatter-add's bit for bit.
            assert_same_bits_but_nans(xw, ref @ w)
            assert_same_bits_but_nans(xtu, ref.T @ u)
            assert_same_bits(xw, _spread(w, X.indices, X.row_ids, X.data, d, n))
            assert_same_bits(xtu, _spread(u, X.row_ids, X.indices, X.data, n, d))

    def test_mixed_sign_nans_match_as_nans(self):
        # scipy keeps the later NaN of a sum and numpy's sums the earlier,
        # so X.T @ u differs from scipy's here in the NaN's sign bit alone
        ref = sp.csr_array(np.ones((6, 12)))
        X = Dataset(np.ones((6, 12)), np.zeros(6)).X
        u = np.array([np.nan, -np.nan] * 3)
        w = np.array([np.nan, -np.nan] * 6)
        assert_same_bits_but_nans(X.T @ u, ref.T @ u)
        assert_same_bits_but_nans(X @ w, ref @ w)

    def test_one_row_full_matrix_matches_scipy(self):
        # X @ w over one row would reduce a single column, which numpy sums
        # pairwise; 1e16 and then 39 ones sum to 1e16 in order (each +1 is
        # half an ulp and rounds back to even) but not pairwise
        row = np.ones((1, 40))
        row[0, 0] = 1e16
        ref = sp.csr_array(row)
        X = Dataset(row, np.zeros(1)).X
        assert X.dense
        assert_same_bits(X @ np.ones(40), ref @ np.ones(40))
        assert_same_bits(X.T @ np.array([0.7]), ref.T @ np.array([0.7]))

    def test_one_column_full_matrix_matches_scipy(self):
        # the same for X.T @ u over a single column
        col = np.ones((40, 1))
        col[0, 0] = 1e16
        ref = sp.csr_array(col)
        X = Dataset(col, np.zeros(40)).X
        assert X.dense
        assert_same_bits(X.T @ np.ones(40), ref.T @ np.ones(40))
        assert_same_bits(X @ np.array([0.7]), ref @ np.array([0.7]))

    def test_full_matrix_zero_vector_gives_positive_zeros(self):
        # negative entries times +0.0 are -0.0 terms (times -0.0, +0.0):
        # each sum must still start from +0.0
        dense = -np.arange(1.0, 13.0).reshape(3, 4)
        X = Dataset(dense, np.zeros(3)).X
        assert X.columns is not None
        for out in (X @ np.zeros(4), X @ -np.zeros(4)):
            assert_same_bits(out, np.zeros(3))
        for out in (X.T @ np.zeros(3), X.T @ -np.zeros(3)):
            assert_same_bits(out, np.zeros(4))

    def test_zero_vector_gives_positive_zeros(self):
        # 0 * -3 is -0.0, and every sum starts from +0.0
        dense = np.array([[-3.0, 0.0, -1.0], [0.0, -2.0, 0.0], [0.0, 0.0, 0.0]])
        X = Dataset(dense, np.zeros(3)).X
        for out in (X @ np.zeros(3), X.T @ np.zeros(3), X @ -np.zeros(3)):
            assert_same_bits(out, np.zeros(3))

    def test_nan_payloads_match_the_scatter_add(self):
        # two NaNs that differ in payload meet in every sum of X.T @ u;
        # numpy's vector and scalar loops of the row reduction keep
        # different ones, so such an output comes from the scatter-add
        X = Dataset(np.ones((2, 9)), np.zeros(2)).X
        nans = np.array([0x7FF8000000000001, 0x7FF8000000000000], dtype=np.uint64).view(np.float64)
        for u in (nans, nans[::-1].copy()):
            assert_same_bits(X.T @ u, _spread(u, X.row_ids, X.indices, X.data, 2, 9))
        w = np.repeat(nans, [1, 8])
        assert_same_bits(X @ w, _spread(w, X.indices, X.row_ids, X.data, 9, 2))

    def test_empty_matrices(self):
        for n, d in [(0, 0), (0, 3), (2, 0), (2, 3)]:
            X = Dataset(np.zeros((n, d)), np.zeros(n)).X
            assert_same_bits(X @ np.ones(d), np.zeros(n))
            assert_same_bits(X.T @ np.ones(n), np.zeros(d))

    def test_long_rows_match_scipy(self):
        # 600 full rows of 40: sums longer than a pairwise summation's
        # blocks; each output must still be one running sum in storage order
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((600, 40)) * 10.0 ** rng.integers(-8, 8, (600, 40))
        ref = sp.csr_array(dense)
        X = CSRMatrix(ref.data, ref.indices, ref.indptr, ref.shape)
        w, u = rng.standard_normal(40), rng.standard_normal(600)
        assert_same_bits(X @ w, ref @ w)
        assert_same_bits(X.T @ u, ref.T @ u)

    def test_dimension_mismatch(self):
        X = Dataset(np.ones((2, 3)), np.zeros(2)).X
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
        data = Dataset([[0.0, 0.0]], [1.0])
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

    @pytest.mark.parametrize("n", [3, 4])
    def test_underparam_needs_more_samples_than_features(self, n):
        with pytest.raises(ValueError, match="^underparam mode requires n > d$"):
            synth_dataset(0, n, 4, "underparam")

    def test_separable_rejects_noise(self):
        # separable labels are sign(x . w_true): a noise setting would be dropped
        for noise in (0.7, -0.1, float("nan")):
            with pytest.raises(ValueError, match=f"^noise={noise} applies to underparam mode only$"):
                synth_dataset(0, 5, 3, "separable", noise=noise)
        assert synth_dataset(0, 5, 3, "separable", noise=0.0)[0] == synth_dataset(0, 5, 3, "separable")[0]
