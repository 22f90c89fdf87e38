import numpy as np
import pytest

from optics_cp import (
    ConfigError,
    DomainError,
    LengthError,
    ScoreModel,
    ScoreSeries,
    ShapeError,
    TimeSeries,
    transform,
)


def vech(mat):
    """Column-stacked lower triangle of a square matrix, diagonal included."""
    return np.concatenate([mat[j:, j] for j in range(mat.shape[0])])


def unvech(v):
    """The symmetric matrix whose vech is ``v``: the inverse of ``vech``."""
    d = int((np.sqrt(8 * len(v) + 1) - 1) / 2)
    mat = np.zeros((d, d))
    mat[np.triu_indices(d)] = v  # row-major upper triangle = column-major lower triangle
    return mat + np.triu(mat, 1).T


def test_mean_transform_is_identity():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((10, 3))
    out = transform(TimeSeries(data), ScoreModel("mean"))
    assert np.array_equal(out.data, data)


def test_variance_transform_of_e():
    ts = TimeSeries(np.full(4, np.e))
    out = transform(ts, ScoreModel("variance"))
    assert out.d_p == 1
    assert np.allclose(out.data, 2.0, atol=1e-12)


def test_variance_transform_even_in_sign():
    rng = np.random.default_rng(1)
    data = rng.standard_normal(20)
    a = transform(TimeSeries(data), ScoreModel("variance"))
    b = transform(TimeSeries(-data), ScoreModel("variance"))
    assert np.array_equal(a.data, b.data)


def test_variance_transform_rejects_zero():
    with pytest.raises(DomainError):
        transform(TimeSeries(np.array([1.0, 0.0, 2.0, 3.0])), ScoreModel("variance"))


@pytest.mark.parametrize("family,data,covariates", [
    ("variance", [1.0, 1e200, 2.0], None),
    ("regression", [1.0, 1e200, 2.0], [[1.0], [1e200], [1.0]]),
    ("covariance", [[1.0, 2.0], [1e200, 3.0], [1.0, 1.0]], None),
])
def test_overflowing_products_are_domain_errors(family, data, covariates):
    with pytest.raises(DomainError, match=f"{family} scores overflow"):
        transform(TimeSeries(np.array(data)), ScoreModel(family), covariates)
    # non-finite input is not an overflow, and keeps its own error
    bad = np.array(data)
    bad.flat[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        transform(TimeSeries(bad), ScoreModel(family), covariates)


def test_regression_transform_example():
    ts = TimeSeries(np.array([2.0, 0.0]))
    x = np.array([[1.0, -1.0], [0.0, 0.0]])
    out = transform(ts, ScoreModel("regression"), covariates=x)
    assert out.data[0].tolist() == [2.0, 2.0, -2.0]


def test_regression_requires_matching_covariates():
    ts = TimeSeries(np.arange(4.0))
    with pytest.raises(ShapeError):
        transform(ts, ScoreModel("regression"))
    with pytest.raises(ShapeError):
        transform(ts, ScoreModel("regression"), covariates=np.zeros((3, 2)))


def test_regression_refuses_a_covariate_matrix_with_no_columns():
    # its scores would be the responses alone: silently the mean model
    with pytest.raises(ShapeError, match="at least one covariate column, got 0"):
        transform(TimeSeries(np.arange(4.0)), ScoreModel("regression"), covariates=np.zeros((4, 0)))


@pytest.mark.parametrize("family", ["mean", "variance", "covariance", "network"])
def test_families_without_covariates_refuse_them(family):
    ts = TimeSeries(np.arange(1.0, 17.0).reshape(4, 4))
    with pytest.raises(ShapeError, match=f"the {family} family takes no covariates"):
        transform(ts, ScoreModel(family), covariates=np.ones((4, 1)))


def test_covariance_transform_example():
    ts = TimeSeries(np.array([[1.0, 2.0], [1.0, 2.0]]))
    out = transform(ts, ScoreModel("covariance"))
    assert out.data[0].tolist() == [1.0, 2.0, 4.0]


def test_covariance_transform_equals_outer_product_vech():
    rng = np.random.default_rng(11)
    for n, d in ((7, 2), (50, 5), (33, 12)):
        z = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        want = np.array([vech(np.outer(row, row)) for row in z])
        out = transform(TimeSeries(z), ScoreModel("covariance"))
        assert np.array_equal(out.data, want)


def test_covariance_transform_skips_outer_products():
    import tracemalloc

    n, d = 2000, 40
    ts = TimeSeries(np.random.default_rng(12).standard_normal((n, d)))
    tracemalloc.start()
    try:
        transform(ts, ScoreModel("covariance"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (n, d, d) outer products alone take n d^2 8 bytes (25.6 MB); the
    # scores take n d (d + 1) / 2 8 bytes (13.1 MB) plus their finiteness mask
    assert peak < n * d * d * 8


def test_network_transform_vechs_flattened_matrix():
    mat = np.array([[0.0, 1.0], [1.0, 0.5]])
    data = np.tile(mat.ravel(), (3, 1))
    out = transform(TimeSeries(data), ScoreModel("network"))
    assert out.data[0].tolist() == [0.0, 1.0, 0.5]


def test_network_transform_equals_vech_of_each_matrix():
    rng = np.random.default_rng(13)
    for d in range(2, 7):
        mats = rng.standard_normal((9, d, d))
        mats = mats + np.transpose(mats, (0, 2, 1))
        out = transform(TimeSeries(mats.reshape(9, d * d)), ScoreModel("network"))
        assert np.array_equal(out.data, np.array([vech(m) for m in mats]))


def test_network_rejects_asymmetric():
    mat = np.array([[0.0, 1.0], [0.3, 0.5]])
    data = np.tile(mat.ravel(), (3, 1))
    with pytest.raises(ShapeError):
        transform(TimeSeries(data), ScoreModel("network"))


def test_vech_unvech_round_trip():
    rng = np.random.default_rng(2)
    for d in range(1, 7):
        sym = rng.standard_normal((d, d))
        sym = sym + sym.T
        assert np.allclose(unvech(vech(sym)), sym, atol=1e-12)


def test_vech_column_stacked_order():
    mat = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    assert vech(mat).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_score_dimensions_by_family():
    rng = np.random.default_rng(3)
    for d in range(1, 7):
        data = rng.standard_normal((8, d))
        assert transform(TimeSeries(data), ScoreModel("mean")).d_p == d
        assert transform(TimeSeries(data), ScoreModel("variance")).d_p == 1
        y = TimeSeries(rng.standard_normal(8))
        assert transform(y, ScoreModel("regression"), covariates=data).d_p == d + 1
        if d >= 2:
            assert transform(TimeSeries(data), ScoreModel("covariance")).d_p == d * (d + 1) // 2
            mats = rng.standard_normal((8, d, d))
            mats = mats + np.transpose(mats, (0, 2, 1))
            net = TimeSeries(mats.reshape(8, d * d))
            assert transform(net, ScoreModel("network")).d_p == d * (d + 1) // 2


@pytest.mark.parametrize("data,error", [
    (np.zeros((1, 2)), LengthError),
    (np.zeros((3, 0)), ShapeError),
    (np.array([1.0, np.nan, 2.0]), ConfigError),
])
def test_score_series_refuses_what_a_time_series_refuses_and_non_finite_values(data, error):
    with pytest.raises(error):
        ScoreSeries(data)


@pytest.mark.parametrize("family", ["mean", "variance", "covariance"])
def test_transform_output_is_a_time_series(family):
    out = transform(TimeSeries(np.arange(1.0, 9.0).reshape(4, 2)), ScoreModel(family))
    assert isinstance(out, ScoreSeries) and isinstance(out, TimeSeries)
    assert out.d_p == out.d and len(out) == out.n == 4
    assert not out.data.flags.writeable


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        ScoreModel("quantile")
