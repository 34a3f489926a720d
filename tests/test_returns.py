import math
import statistics
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novas import DataError, ReturnSeries, sample_kurtosis
from novas.returns import read_returns_csv, variance_path


def write_csv(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_prices(path, column="close"):
    return read_returns_csv(path, "return", column)


def read_returns(path, column="return"):
    return read_returns_csv(path, column, "close")


def price_returns(directory, prices):
    """The returns the reader makes of ``prices``, written with ``repr``."""
    text = "close\n" + "".join(f"{float(v)!r}\n" for v in prices)
    return read_prices(write_csv(Path(directory), text))


class TestLoadPriceCsv:
    def test_two_rows(self, tmp_path):
        path = write_csv(tmp_path, "date,close\n2020-01-01,100.0\n2020-01-02,105.0\n")
        series = read_prices(path)
        assert len(series) == 1
        assert series.values[0] == pytest.approx(100.0 * math.log(105.0 / 100.0), rel=1e-15)

    def test_negative_price_names_row(self, tmp_path):
        path = write_csv(tmp_path, "close\n100.0\n-1.0\n102.0\n")
        with pytest.raises(DataError, match="row 3"):
            read_prices(path)

    def test_non_numeric_names_row(self, tmp_path):
        path = write_csv(tmp_path, "close\n100.0\noops\n")
        with pytest.raises(DataError, match="row 3"):
            read_prices(path)

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path, "close\n")
        with pytest.raises(DataError, match="fewer than 2 prices"):
            read_prices(path)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "open\n1.0\n2.0\n")
        with pytest.raises(DataError, match="'close' not found"):
            read_prices(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            read_prices(tmp_path / "nope.csv")

    def test_custom_column(self, tmp_path):
        path = write_csv(tmp_path, "px,close\n7.0,1.0\n8.0,1.0\n")
        series = read_prices(path, column="px")
        assert len(series) == 1
        assert series.values[0] == pytest.approx(100.0 * math.log(8.0 / 7.0), rel=1e-15)

    def test_returns_column_wins(self, tmp_path):
        path = write_csv(tmp_path, "close,return\n100.0,0.5\n105.0,-1.25\n")
        assert read_returns_csv(path, "return", "close").values.tolist() == [0.5, -1.25]

    def test_neither_column_names_both(self, tmp_path):
        path = write_csv(tmp_path, "open\n1.0\n2.0\n")
        with pytest.raises(DataError, match=r"column 'ret' or 'px' not found.*\['open'\]"):
            read_returns_csv(path, "ret", "px")


class TestLoadReturnsCsv:
    def test_quoted_header(self, tmp_path):
        # R's write.csv quotes its column names
        path = write_csv(tmp_path, '"index","return"\n"1",0.5\n"2",-1.25\n', "r.csv")
        assert read_returns(path).values.tolist() == [0.5, -1.25]

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_names_row(self, tmp_path, raw):
        # the row is named by its line in the file, blank lines included
        path = write_csv(tmp_path, f"return\n0.5\n\n0.1\n{raw}\n", "r.csv")
        with pytest.raises(DataError, match=f"row 5: return '{raw}' is not finite"):
            read_returns(path)

    def test_empty_value_names_row(self, tmp_path):
        path = write_csv(tmp_path, "return,x\n0.5,1\n,2\n", "r.csv")
        with pytest.raises(DataError, match="row 3: return '' is not numeric"):
            read_returns(path)

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="no returns"):
            read_returns(write_csv(tmp_path, "return\n", "r.csv"))

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "open\n1.0\n", "r.csv")
        with pytest.raises(DataError, match="'return' or 'close' not found"):
            read_returns(path)


class TestToLogReturns:
    def test_known_value(self, tmp_path):
        # oracle: 100 * ln(1.05) evaluated independently
        expected = 100.0 * math.log(105.0 / 100.0)
        series = price_returns(tmp_path, [100.0, 105.0])
        assert series.values[0] == pytest.approx(expected, rel=1e-15)
        assert series.values[0] == pytest.approx(4.879016416943205, rel=1e-12)

    def test_constant_prices(self, tmp_path):
        series = price_returns(tmp_path, [3.5, 3.5, 3.5])
        assert series.values.tolist() == [0.0, 0.0]

    def test_length_contract(self, tmp_path):
        assert len(price_returns(tmp_path, np.linspace(50.0, 60.0, 500))) == 499

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(min_value=0.5, max_value=1e4), min_size=2, max_size=40),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_roundtrip_up_to_scale(self, prices, scale):
        # a fresh directory per example: hypothesis rejects function-scoped
        # fixtures such as tmp_path
        with tempfile.TemporaryDirectory() as directory:
            returns = price_returns(directory, prices)
            scaled = price_returns(directory, scale * np.array(prices))
        rebuilt = prices[0] * np.exp(np.cumsum(returns.values) / 100.0)
        np.testing.assert_allclose(rebuilt, prices[1:], rtol=1e-10)
        np.testing.assert_allclose(scaled.values, returns.values, atol=1e-9)


class TestRunningVariance:
    def test_symmetric_pair(self):
        y = ReturnSeries(np.array([-1.0, 1.0]))
        assert y.variance_path[2] == pytest.approx(1.0, abs=1e-15)

    def test_constant_series(self):
        y = ReturnSeries(np.full(6, 2.5))
        assert y.variance_path[5] == 0.0
        for c in (0.0, 0.1, 2.5, -1e3):
            assert not np.any(variance_path(np.full(50, c)))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=10)
        y = ReturnSeries(values)
        oracle = statistics.pvariance(values.tolist())
        assert y.variance_path[10] == pytest.approx(oracle, rel=1e-12)

    @settings(max_examples=60)
    @given(
        st.lists(
            st.floats(min_value=-20, max_value=20), min_size=2, max_size=30
        ),
        st.floats(min_value=-10, max_value=10),
    )
    def test_permutation_and_translation(self, values, shift):
        y = ReturnSeries(np.array(values))
        base = y.variance_path[-1]
        permuted = ReturnSeries(np.array(values[::-1]))
        assert permuted.variance_path[-1] == pytest.approx(base, abs=1e-12)
        shifted = ReturnSeries(np.array(values) + shift)
        assert shifted.variance_path[-1] == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("shift", [0.0, 1e3, -1e3])
    def test_variance_path_matches_per_prefix_var(self, scale, shift):
        # oracle: numpy's two-pass variance of every prefix
        rng = np.random.default_rng(17)
        for base in (rng.normal(size=250), rng.standard_t(3, size=250)):
            values = scale * base + shift
            path = variance_path(values)
            want = np.array([np.var(values[:t]) for t in range(2, 251)])
            assert path[:2].tolist() == [0.0, 0.0]
            np.testing.assert_allclose(path[2:], want, rtol=1e-14, atol=0.0)

    def test_variance_path_matches_pointwise(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=25)
        # the cached path of a series is the module function's
        assert np.array_equal(ReturnSeries(values).variance_path, variance_path(values))


class TestSampleKurtosis:
    def test_two_point_symmetric(self):
        assert sample_kurtosis([-1.0, 1.0, -1.0, 1.0]) == pytest.approx(1.0)

    def test_gaussian_monte_carlo(self):
        # oracle: kurtosis of N(0,1) is 3; at n=1e6 the estimator's sd ~ 0.005
        draws = np.random.default_rng(123).standard_normal(10**6)
        assert sample_kurtosis(draws) == pytest.approx(3.0, abs=0.05)

    def test_constant_fails(self):
        with pytest.raises(DataError, match="constant"):
            sample_kurtosis(np.full(10, 3.0))

    def test_too_short(self):
        with pytest.raises(DataError):
            sample_kurtosis([1.0, 2.0, 3.0])

    @settings(max_examples=60)
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100), min_size=4, max_size=50
        ).filter(lambda v: np.var(v) > 1e-12),
        st.floats(min_value=0.01, max_value=1000.0),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_scale_invariance(self, values, c, sign):
        base = sample_kurtosis(values)
        scaled = sample_kurtosis(sign * c * np.array(values))
        assert scaled == pytest.approx(base, rel=1e-10)


class TestSeriesTypes:
    def test_prices_must_be_positive(self, tmp_path):
        path = write_csv(tmp_path, "close\n1.0\n-2.0\n")
        with pytest.raises(DataError, match="row 3: price '-2.0' is not strictly positive"):
            read_prices(path)

    def test_prices_need_two(self, tmp_path):
        with pytest.raises(DataError, match="fewer than 2 prices"):
            read_prices(write_csv(tmp_path, "close\n1.0\n"))

    def test_returns_reject_nan(self):
        with pytest.raises(DataError):
            ReturnSeries(np.array([1.0, np.nan]))

    # each used to escape as a bare ValueError
    @pytest.mark.parametrize("values", [["a", "b"], [[1.0, 2.0], [3.0]], [1.0, None, "x"]],
                             ids=["strings", "ragged", "mixed"])
    def test_returns_must_be_numbers(self, values):
        with pytest.raises(DataError, match="values must be a sequence of numbers"):
            ReturnSeries(values)
        for accepted in ([1, 2.5], np.array([1.0, 2.5]), (np.float32(1.0), np.int64(2))):
            assert ReturnSeries(accepted).values.dtype == float

    def test_returns_are_an_immutable_copy(self):
        source = np.array([0.5, -1.0, 2.0])
        y = ReturnSeries(source)
        with pytest.raises(ValueError):
            y.values[0] = 9.0
        assert source.flags.writeable
        source[0] = 9.0
        assert y.values.tolist() == [0.5, -1.0, 2.0]
