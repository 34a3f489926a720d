import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, norm

from novas import (
    DataError,
    InnovationSource,
    Seed,
    SourceKind,
    substream,
)
from novas.innovations import _rejection_normal, resample_indices

from oracles import oracle_rejection_normal


def trimmed_normal(bound, count, seed):
    """``count`` trimmed-normal draws from the stream of ``seed``."""
    source = InnovationSource(SourceKind.TRIMMED_NORMAL, bound=bound)
    return source.draw(substream(seed), (count,))


def empirical(pool, count, seed):
    """``count`` draws from ``pool`` from the stream of ``seed``."""
    source = InnovationSource(SourceKind.EMPIRICAL, residual_pool=pool)
    return source.draw(substream(seed), (count,))


class TestSeed:
    def test_accepts_ints(self):
        assert Seed.of(7).value == 7
        assert Seed.of(Seed(9)).value == 9

    def test_range_checked(self):
        with pytest.raises(DataError):
            Seed(-1)
        with pytest.raises(DataError):
            Seed(2**64)
        # a seed is an integer, not a number that truncates to one
        for value in (2.9, "3"):
            with pytest.raises(DataError, match="seed must be an integer"):
                Seed(value)
            with pytest.raises(DataError, match="seed must be an integer"):
                Seed.of(value)


class TestTrimmedNormal:
    def test_support(self):
        draws = trimmed_normal(3.0, 10**5, Seed(0))
        assert draws.size == 10**5
        assert np.abs(draws).max() <= 3.0

    def test_unbounded_moments(self):
        # oracle: N(0,1) mean 0 (se ~ 0.001), variance 1 (se ~ 0.0014)
        draws = trimmed_normal(math.inf, 10**6, Seed(1))
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01

    def test_seed_determinism(self):
        a = trimmed_normal(3.0, 5000, Seed(42))
        b = trimmed_normal(3.0, 5000, Seed(42))
        np.testing.assert_array_equal(a, b)
        c = trimmed_normal(3.0, 5000, Seed(43))
        assert not np.array_equal(a, c)

    def test_acceptance_rate_matches_normal_mass(self):
        # oracle: P(|Z| <= 3) = Phi(3) - Phi(-3)
        expected = norm.cdf(3.0) - norm.cdf(-3.0)
        accepted, attempts = _rejection_normal(substream(Seed(7)), 3.0, 10**6)
        assert accepted.size == 10**6
        assert attempts >= 10**6
        rate = 10**6 / attempts
        assert rate == pytest.approx(expected, abs=0.002)

    def test_invalid_args(self):
        with pytest.raises(DataError):
            trimmed_normal(-1.0, 10, Seed(0))

    def test_bound_below_three_refused(self):
        # as for every InnovationSource: a tiny bound would reject nearly
        # every raw draw and never fill the sample
        with pytest.raises(DataError, match="< 3"):
            trimmed_normal(2.5, 10, Seed(0))

    @pytest.mark.parametrize("bound", [3.0, 4.5, math.inf])
    def test_same_bytes_as_the_rejection_stream(self, bound):
        draws = trimmed_normal(bound, 1000, Seed(5))
        want, _ = _rejection_normal(substream(Seed(5)), bound, 1000)
        assert draws.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bound", [3.0, 3.01, 4.5, math.inf])
    @pytest.mark.parametrize("count", [0, 1, 127, 128, 129, 1000, 150_000])
    def test_matches_the_one_buffer_reference(self, count, bound):
        # below 128 the one chunk holds surplus draws; at 1000 the second
        # chunk does, and its accepted values join the first chunk's
        got, attempts = _rejection_normal(substream(Seed(5)), bound, count)
        want, want_attempts = oracle_rejection_normal(substream(Seed(5)), bound, count)
        assert got.shape == (count,)
        assert got.tobytes() == want.tobytes()
        assert attempts == want_attempts

    def test_draw_holds_two_blocks(self):
        # no output buffer is held beside the first raw chunk: that chunk and
        # its accepted values, and later those values and their joined copy,
        # are the only full blocks alive together
        count = 150_000
        _rejection_normal(substream(Seed(5)), 3.0, count)
        tracemalloc.start()
        try:
            _rejection_normal(substream(Seed(5)), 3.0, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = count * 8
        assert peak < 2.3 * block, f"peak {peak / block:.2f} blocks of {count} draws"


class TestEmpirical:
    def test_support(self):
        pool = np.array([-2.0, 0.5, 1.5])
        draws = empirical(pool, 1000, Seed(3))
        assert set(np.unique(draws)) <= set(pool)

    def test_single_element_pool(self):
        draws = empirical([4.2], 100, Seed(0))
        assert np.all(draws == 4.2)

    def test_frequencies(self):
        # oracle: Binomial(1e6, 1/2) frequency, se = 0.0005
        draws = empirical([-1.0, 1.0], 10**6, Seed(11))
        share = np.mean(draws == 1.0)
        assert share == pytest.approx(0.5, abs=0.005)

    def test_empty_pool(self):
        with pytest.raises(DataError):
            empirical([], 10, Seed(0))

    def test_seed_determinism(self):
        a = empirical([1.0, 2.0, 3.0], 500, Seed(5))
        b = empirical([1.0, 2.0, 3.0], 500, Seed(5))
        np.testing.assert_array_equal(a, b)

    def test_same_bytes_as_the_choice_stream(self):
        pool = [0.1, -0.3, 2.5, 7.0]
        draws = empirical(pool, 1000, Seed(6))
        want = substream(Seed(6)).choice(np.array(pool), size=1000, replace=True)
        assert draws.tobytes() == want.tobytes()


class FixedUniforms:
    """A generator stand-in whose every uniform is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


class TestResampleIndices:
    """A backtest window's bootstraps resample their pools through one block
    ``U`` of uniforms, at the indices ``floor(U * len(pool))``."""

    @pytest.mark.parametrize("size", [2, 7, 243, 250])
    def test_uniform_over_the_pool(self, size):
        # criterion 04's tolerance on 10**6 entries: every index's share
        # within 0.005 of 1 / size, and a chi-square test of uniformity
        indices = resample_indices(substream(Seed(size)), 1000, 1000, size)
        assert indices.shape == (1000, 1000) and indices.dtype == np.int32
        assert indices.min() >= 0 and indices.max() < size
        counts = np.bincount(indices.ravel(), minlength=size)
        assert np.abs(counts / indices.size - 1 / size).max() < 0.005
        assert chisquare(counts).pvalue > 1e-6

    @pytest.mark.parametrize("size", [
        1, 2, 3, 4, 243, 249, 250, 256, 2**20, 2**20 + 1, 2**30, 10**9 + 7, 2**31 - 1,
    ])
    def test_no_index_reaches_the_size(self, size):
        # the largest double below 1 maps to the last entry, also where the
        # size is a power of two; 0 maps to the first
        top = np.nextafter(1.0, 0.0)
        indices = resample_indices(FixedUniforms(top), 1000, 1000, size)
        assert indices.size == 10**6 and (indices == size - 1).all()
        assert (resample_indices(FixedUniforms(0.0), 100, 1, size) == 0).all()

    def test_no_index_reaches_any_small_size(self):
        top = FixedUniforms(np.nextafter(1.0, 0.0))
        assert all(resample_indices(top, 1, 1, size)[0, 0] == size - 1
                   for size in range(1, 5000))

    @pytest.mark.parametrize("size", [0, -1, 2**31])
    def test_size_outside_int32_refused(self, size):
        with pytest.raises(DataError, match="cannot be indexed by int32"):
            resample_indices(substream(Seed(0)), 100, 1, size)

    def test_equal_length_pools_share_one_block(self):
        def block(size):
            return resample_indices(substream(Seed(3), 4, 17), 1000, 1000, size)

        assert block(243).tobytes() == block(243).tobytes()
        # one U for every size: doubling a size doubles each product exactly
        np.testing.assert_array_equal(block(250) // 2, block(125))


class TestSubstreams:
    def test_distinct_keys_distinct_streams(self):
        base = Seed(0)
        a = substream(base, 1, 2, 3).standard_normal(8)
        b = substream(base, 1, 2, 4).standard_normal(8)
        c = substream(base, 1, 2, 3).standard_normal(8)
        np.testing.assert_array_equal(a, c)
        assert not np.array_equal(a, b)

    def test_no_collisions_over_sampled_indices(self):
        indices = list(range(256)) + [2**20, 2**31 - 1, 2**32 - 1]
        fingerprints = {
            tuple(substream(Seed(9), i).integers(0, 2**63, 4).tolist())
            for i in indices
        }
        assert len(fingerprints) == len(indices)

    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_index_pairs_independent(self, i, j):
        a = substream(Seed(1), i).integers(0, 2**63, 2)
        b = substream(Seed(1), j).integers(0, 2**63, 2)
        if i == j:
            np.testing.assert_array_equal(a, b)
        else:
            assert not np.array_equal(a, b)


class TestInnovationSource:
    def test_empirical_needs_pool(self):
        with pytest.raises(DataError):
            InnovationSource(SourceKind.EMPIRICAL, residual_pool=np.array([]))

    def test_kind_name_normalized(self):
        # a kind given by name draws from its pool, not standard normals
        src = InnovationSource("EMPIRICAL", residual_pool=[5.0])
        assert src.kind is SourceKind.EMPIRICAL
        assert set(src.draw(substream(Seed(2)), (3, 4)).ravel()) == {5.0}

    def test_unknown_kind_refused(self):
        with pytest.raises(DataError, match="unknown innovation source kind 'BOGUS'"):
            InnovationSource("BOGUS")

    @pytest.mark.parametrize(
        "pool",
        [None, 0.5, [[1.0, -1.0]], [1.0, np.nan], [np.inf, -1.0]],
        ids=["none", "scalar", "2d", "nan", "inf"],
    )
    def test_empirical_pool_must_be_finite_and_1d(self, pool):
        with pytest.raises(DataError, match="nonempty 1-D pool of finite residuals"):
            InnovationSource(SourceKind.EMPIRICAL, residual_pool=pool)

    def test_trimmed_bound_admissibility(self):
        with pytest.raises(DataError, match="< 3"):
            InnovationSource(SourceKind.TRIMMED_NORMAL, bound=2.5)
        InnovationSource(SourceKind.TRIMMED_NORMAL, bound=3.0)
        InnovationSource(SourceKind.TRIMMED_NORMAL, bound=math.inf)

    def test_draw_shapes(self):
        src = InnovationSource(SourceKind.TRIMMED_NORMAL, bound=4.0)
        out = src.draw(substream(Seed(2)), (7, 5))
        assert out.shape == (7, 5)
        assert np.abs(out).max() <= 4.0
        pool_src = InnovationSource(
            SourceKind.EMPIRICAL, residual_pool=np.array([1.0, -1.0])
        )
        out2 = pool_src.draw(substream(Seed(2)), (3, 4))
        assert out2.shape == (3, 4)
        assert set(np.unique(out2)) <= {1.0, -1.0}
