import math
import platform
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import truncnorm

from novas import (
    CalibratedTransform,
    DataError,
    ForecastRequest,
    InfeasibleWeightsError,
    InnovationSource,
    NovasVariant,
    Risk,
    Seed,
    SourceKind,
    Statistic,
    TrimBoundError,
    build_weights,
    calibrate,
    forecast_json,
    generate,
    innovation_source,
    inverse_step,
    predict,
    simulate_paths,
)
import novas.predictor
from novas.garch import fit_garch11_mle
from novas.innovations import SharedNormals, resample_indices, substream
from novas.predictor import _median, aggregated_squared, ensemble_points, simulate_squares
from novas.returns import variance_path, welford_update
from novas.simulate import ModelSpec

from test_imports import last_line_printed
from oracles import (
    oracle_block_simulate_paths,
    oracle_garch_bootstrap_paths,
    oracle_running_means,
    oracle_simulate_path,
    oracle_welford_variance_path,
)


@pytest.fixture(scope="module")
def fitted():
    y = generate(ModelSpec(model="M3", n=300, seed=Seed(17)))
    return {
        "GE": calibrate(NovasVariant.GE, 0.5, y),
        "GE_NO_A0": calibrate(NovasVariant.GE_NO_A0, 0.5, y),
        "GA": calibrate(NovasVariant.GA, 0.6, y),
        "GA_NO_A0": calibrate(NovasVariant.GA_NO_A0, 0.5, y),
    }


# every ensemble runs its variance live; the cases keep the "live" id they
# had beside the removed frozen-variance mode, so their names stay stable
LIVE = pytest.mark.parametrize("variance", ["live"])


def one_path(ct, innovations):
    """The one path of the ensemble of a single innovation vector: column 0
    of the step-major result."""
    return simulate_paths(ct, np.reshape(innovations, (-1, 1)))[:, 0]


class TestSimulatePath:
    """One path: column 0 of the ensemble of a single innovation vector."""

    def test_single_step_equals_inverse_step(self, fitted):
        ct = fitted["GE"]
        w = ct.weights
        history = ct.history.values
        lagged = history[-w.order :][::-1] ** 2
        for innovation in (-1.2, 0.4, 2.0):
            expected = inverse_step(innovation, lagged, ct.s2_n, w)
            got = one_path(ct, [innovation])
            assert abs(got[0]) == pytest.approx(expected, rel=1e-12)
            assert math.copysign(1, got[0]) == math.copysign(1, innovation)

    def test_zero_innovations_propagate_zero(self, fitted):
        path = one_path(fitted["GA_NO_A0"], np.zeros(12))
        assert np.all(path == 0.0)

    def test_purity(self, fitted):
        innovations = np.linspace(-1.5, 1.5, 10)
        a = one_path(fitted["GA"], innovations)
        b = one_path(fitted["GA"], innovations)
        np.testing.assert_array_equal(a, b)

    def test_batch_matches_single(self, fitted):
        ct = fitted["GE_NO_A0"]
        rng = np.random.default_rng(3)
        draws = rng.normal(size=(8, 6))
        batch = simulate_paths(ct, draws)
        for m in range(6):
            np.testing.assert_allclose(
                one_path(ct, draws[:, m]), batch[:, m], rtol=1e-12
            )

    def test_variance_recursion_matches_welford_oracle(self, fitted):
        # re-derive the running variance of history + pseudo path and push
        # it through scalar inverse steps; the engine must agree
        ct = fitted["GE"]
        w = ct.weights
        history = ct.history.values.tolist()
        innovations = [0.5, -1.1, 0.9, 1.4, -0.2]
        path = one_path(ct, innovations)
        combined = history + path.tolist()
        s2_seq = [ct.s2_n] + oracle_welford_variance_path(history, path[:-1])
        for k, innovation in enumerate(innovations):
            hist_k = combined[: len(history) + k]
            lagged = np.array(hist_k[-w.order :][::-1]) ** 2
            expected = inverse_step(innovation, lagged, s2_seq[k], w)
            assert abs(path[k]) == pytest.approx(expected, rel=1e-9)

    @LIVE
    def test_layout_and_input_untouched(self, fitted, variance):
        # the steps write their signed roots into a C-ordered copy of the
        # step-major innovations: a C-ordered input must not be that copy,
        # and both memory layouts must give the same bytes
        ct = fitted["GA"]
        source = innovation_source(ct, SourceKind.TRIMMED_NORMAL)
        draws = source.draw(substream(Seed(8)), (9, 40))
        fortran = np.asfortranarray(draws)
        before = draws.tobytes()
        a = simulate_paths(ct, draws)
        b = simulate_paths(ct, fortran)
        assert a.flags.c_contiguous and a.shape == (9, 40)
        assert a.tobytes() == b.tobytes()
        assert draws.tobytes() == before
        assert fortran.tobytes() == before

    @LIVE
    def test_variance_advances_through_welford_update(
        self, fitted, monkeypatch, variance
    ):
        # one call per simulated step but the last, whose variance nothing
        # reads: the ensemble's variance has no second copy of the recursion
        made = []

        def counting(*args):
            made.append(args[0])
            return welford_update(*args)

        ct = fitted["GE_NO_A0"]
        draws = np.random.default_rng(5).normal(size=(7, 30))
        want = simulate_paths(ct, draws)
        monkeypatch.setattr(novas.predictor, "welford_update", counting)
        got = simulate_paths(ct, draws)
        # step k folds in the (n + k)-th value of history plus path
        n = len(ct.history)
        assert made == [n + k for k in range(1, 7)]
        assert got.tobytes() == want.tobytes()


class TestAggregatedSquared:
    """The one reduction of every ensemble, pinned bit for bit against a
    plain left-to-right loop."""

    @pytest.fixture(scope="class")
    def ensembles(self, fitted):
        ct = fitted["GA"]
        pool = innovation_source(ct, SourceKind.EMPIRICAL).residual_pool
        step_major = simulate_paths(
            ct, pool[resample_indices(substream(Seed(2)), 120, 12, pool.size)])
        fit = fit_garch11_mle(ct.history)
        indices = resample_indices(substream(Seed(3)), 120, 12, fit.sigma2_path.size)
        path_major = np.array(
            oracle_garch_bootstrap_paths(fit.sigma2_path, indices, substream(Seed(2)))
        )
        assert step_major.flags.c_contiguous
        return {"simulate_paths": step_major.T, "garch_bootstrap_paths": path_major}

    @pytest.mark.parametrize("horizons", [[12], [1, 5, 12], list(range(1, 13)), [3]])
    @pytest.mark.parametrize("name", ["simulate_paths", "garch_bootstrap_paths"])
    def test_matches_plain_loop(self, ensembles, name, horizons):
        paths = ensembles[name]
        want = np.array([oracle_running_means(path) for path in paths])
        for squares in (np.square(paths.T, order="C"), np.square(paths.T)):
            before = squares.copy()
            got = aggregated_squared(squares, horizons)
            assert got.shape == (len(horizons), paths.shape[0])
            for row, h in zip(got, horizons):
                assert row.tobytes() == want[:, h - 1].tobytes(), (name, h)
            assert squares.tobytes() == before.tobytes()


def weights_of_order(variant, order):
    """The first weight set :func:`build_weights` admits at ``order`` on a
    small scan of alphas and shapes."""
    if variant.exponential_family:
        shapes = [(c,) for c in (0.0, 0.1, 0.5)]
    else:
        shapes = [(a1, b1) for a1 in (0.02, 0.05, 0.08) for b1 in (0.3, 0.6, 0.9)]
    for alpha in (0.5, 0.7, 0.8, 0.85):
        for shape in shapes:
            try:
                return build_weights(variant, alpha, shape, order)
            except InfeasibleWeightsError:
                pass
    raise AssertionError(f"no {variant.value} weight set of order {order}")


class TestSimulateOracle:
    # h = 12 steps: order 1 drops each step's predecessor, order 5 drops
    # history and then path values, order 30 drops history values only
    @LIVE
    @pytest.mark.parametrize("order", [1, 5, 30])
    @pytest.mark.parametrize("variant", list(NovasVariant), ids=lambda v: v.value)
    def test_matches_plain_loop(self, variant, order, variance):
        y = generate(ModelSpec(model="M3", n=300, seed=Seed(17)))
        w = weights_of_order(variant, order)
        ct = CalibratedTransform(w, y)
        bound = 0.8 * w.trim_bound
        draws = np.clip(np.random.default_rng(order).normal(size=(12, 4)), -bound, bound)
        paths = simulate_paths(ct, draws)
        for m in range(4):
            expected = oracle_simulate_path(
                y.values, draws[:, m], w.alpha, w.y2_self_coef, w.lags
            )
            np.testing.assert_allclose(paths[:, m], expected, rtol=1e-12, atol=0)

    # the y^2 ring keeps min(p, h - 1 - p) rows: none at h <= p + 1, fewer
    # than p below h = 2p + 1, p from there on
    @pytest.mark.parametrize("h", [1, 2, 5, 12, 30, 31, 61])
    @pytest.mark.parametrize("order", [1, 2, 5, 14, 15, 16, 29, 30])
    @pytest.mark.parametrize("variant", list(NovasVariant), ids=lambda v: v.value)
    def test_ring_matches_the_block_reference(self, variant, order, h):
        y = generate(ModelSpec(model="M3", n=300, seed=Seed(17)))
        w = weights_of_order(variant, order)
        ct = CalibratedTransform(w, y)
        bound = 0.8 * w.trim_bound
        draws = np.clip(np.random.default_rng(h).normal(size=(h, 40)), -bound, bound)
        got = simulate_paths(ct, draws)
        assert got.tobytes() == oracle_block_simulate_paths(ct, draws).tobytes()

    def test_untrimmed_innovation_names_its_step(self, fitted):
        ct = fitted["GA"]
        bound = ct.weights.trim_bound
        draws = np.full((6, 5), 0.5)
        draws[3, 1] = 1.2 * bound
        draws[3, 2] = -1.5 * bound
        draws[5, 0] = 2.0 * bound
        worst = float(draws[3, 2])
        with pytest.raises(TrimBoundError, match=re.escape(f"at step 4; innovation {worst!r} ")):
            simulate_paths(ct, draws)


def same_bits(got, want) -> bool:
    """Equal bit for bit, except that any NaN matches any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return (
        got.shape == want.shape
        and np.array_equal(np.isnan(got), nan)
        and got[~nan].tobytes() == want[~nan].tobytes()
    )


# a few repeated values so that ties are common; adding 0.0 turns -0.0 into
# 0.0, since a median of signed zeros may pick either sign
TIED = st.sampled_from([0.0, 1.0, 1.0, 2.5, -3.0])
SPECIAL = st.sampled_from([np.inf, -np.inf, np.nan])
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64).map(lambda v: v + 0.0)


class TestExactMedian:
    @settings(max_examples=200)
    @given(arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 64)),
                  elements=st.one_of(FINITE, TIED)))
    def test_matches_np_median(self, x):
        want = np.median(x, axis=1)
        assert same_bits(_median(x.copy()), want)
        for row, value in zip(x, want):
            assert same_bits(_median(row.copy()), value)

    @settings(max_examples=200)
    @given(arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 30)),
                  elements=st.one_of(FINITE, TIED, SPECIAL)))
    def test_infinities_and_nan(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.median(x, axis=1)
            assert same_bits(_median(x), want)
            for row, value in zip(x, want):
                assert same_bits(_median(row), value)
        assert np.isnan(want[np.isnan(x).any(axis=1)]).all()  # NaN gives NaN

    @pytest.mark.parametrize("m", [1000, 1001, 5000, 5001])
    def test_ensemble_sizes(self, m):
        rng = np.random.default_rng(m)
        x = np.round(rng.standard_normal((30, m)) ** 2, 2)  # squares with ties
        assert same_bits(_median(x), np.median(x, axis=1))
        assert same_bits(_median(x[7]), np.median(x[7]))
        x[3, 11] = np.nan
        assert np.isnan(_median(x[3]))
        assert same_bits(_median(x), np.median(x, axis=1))


class TestEnsemblePoints:
    """The one reduction of every ensemble's per-path statistics: means bit
    for bit as ``np.mean`` of each untouched row, medians as ``np.median``."""

    @staticmethod
    def check(rows):
        before = rows.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            means, medians = ensemble_points(rows)
            want_means = [np.mean(row) for row in before]
            want_medians = np.median(before, axis=1)
        assert all(type(v) is float for v in means + medians)
        assert same_bits(means, want_means)
        assert same_bits(medians, want_medians)

    # A 6 x 400 float array takes Hypothesis up to about 0.2 s to draw on a
    # loaded machine, which trips its timer on input generation alone; the
    # examples and every assertion on them stay as they are.
    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    @given(arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 400)),
                  elements=st.one_of(FINITE, TIED)))
    def test_matches_numpy(self, rows):
        self.check(rows)

    @pytest.mark.parametrize("m", [1000, 1001, 5000, 5001])
    def test_ensemble_sizes(self, m):
        rng = np.random.default_rng(m)
        self.check(np.round(rng.standard_normal((3, m)) ** 2, 2))

    def test_means_alone_leave_rows_unpartitioned(self):
        rows = np.random.default_rng(4).standard_normal((3, 1001)) ** 2
        before = rows.copy()
        means, medians = ensemble_points(rows, medians=False)
        assert medians is None
        assert rows.tobytes() == before.tobytes()
        assert same_bits(means, [np.mean(row) for row in before])


def ensemble(ct, req):
    """The path-major ``(M, h)`` paths that ``predict`` simulates for
    ``req``, rebuilt from the request's stream: the pool gathered at
    ``floor(U * len(pool))`` for a step-major block ``U`` of uniforms, or a
    step-major block of standard normals whose entries beyond a finite bound
    are replaced, in step-major order, by the source's next draws."""
    gen = substream(req.seed)
    shape = (req.horizon, req.paths)
    if req.source.kind is SourceKind.EMPIRICAL:
        pool = req.source.residual_pool
        innovations = pool[np.floor(gen.random(shape) * pool.size).astype(int)]
    else:
        innovations = gen.standard_normal(shape)
        beyond = np.abs(innovations) > req.source.bound
        innovations[beyond] = req.source.draw(gen, (int(beyond.sum()),))
    return simulate_paths(ct, innovations).T


class TestPredict:
    def test_degenerate_pool_collapses_ensemble(self, fitted):
        ct = fitted["GE_NO_A0"]
        src = InnovationSource(SourceKind.EMPIRICAL, residual_pool=np.array([0.7]))
        req = ForecastRequest(horizon=3, source=src, paths=200, seed=Seed(0))
        result = predict(ct, req)
        assert result.ensemble_mean == pytest.approx(result.ensemble_median, rel=1e-12)
        assert result.point == result.ensemble_mean
        single = one_path(ct, np.full(3, 0.7))
        assert result.point == pytest.approx(float(np.mean(single**2)), rel=1e-12)

    def test_l2_aggregate_equals_mean_of_step_predictors(self, fitted):
        # linearity: mean over paths of per-path aggregates == average of
        # the h per-step L2 predictors on the same innovation tensor
        ct = fitted["GA"]
        req = ForecastRequest(
            horizon=5,
            source=innovation_source(ct, SourceKind.TRIMMED_NORMAL),
            paths=500,
            risk=Risk.L2,
            seed=Seed(4),
        )
        result, paths = predict(ct, req), ensemble(ct, req)
        step_l2 = np.mean(paths**2, axis=0)
        assert result.point == pytest.approx(float(step_l2.mean()), rel=1e-12)

    def test_l1_uses_median(self, fitted):
        ct = fitted["GE"]
        req = ForecastRequest(
            horizon=2,
            source=innovation_source(ct, SourceKind.EMPIRICAL),
            paths=301,
            risk=Risk.L1,
            seed=Seed(9),
        )
        result, paths = predict(ct, req), ensemble(ct, req)
        stats = np.mean(paths**2, axis=1)
        assert result.point == float(np.median(stats))
        assert result.ensemble_median == result.point
        assert result.stepwise_l1_aggregate == float(
            np.mean(np.median(paths**2, axis=0))
        )

    def test_seed_reproducibility(self, fitted):
        ct = fitted["GA_NO_A0"]
        req = ForecastRequest(
            horizon=7,
            source=innovation_source(ct, SourceKind.TRIMMED_NORMAL),
            paths=400,
            seed=Seed(123),
        )
        a = predict(ct, req)
        b = predict(ct, req)
        assert a == b

    def test_nonnegative_and_inside_envelope(self, fitted):
        for name, ct in fitted.items():
            for kind in (SourceKind.TRIMMED_NORMAL, SourceKind.EMPIRICAL):
                req = ForecastRequest(
                    horizon=10,
                    source=innovation_source(ct, kind),
                    paths=300,
                    seed=Seed(5),
                )
                result, paths = predict(ct, req), ensemble(ct, req)
                stats = np.mean(paths**2, axis=1)
                assert result.point >= 0.0
                assert stats.min() <= result.ensemble_median <= stats.max()
                assert stats.min() <= result.ensemble_mean <= stats.max()

    @pytest.mark.parametrize(
        "statistic", [Statistic.SQUARED_STEP, "SQUARED_STEP"], ids=["member", "name"]
    )
    def test_squared_step_statistic(self, fitted, statistic):
        ct = fitted["GE"]
        req = ForecastRequest(
            horizon=4,
            source=innovation_source(ct, SourceKind.TRIMMED_NORMAL),
            paths=250,
            statistic=statistic,
            seed=Seed(2),
        )
        result, paths = predict(ct, req), ensemble(ct, req)
        assert result.point == pytest.approx(float(np.mean(paths[:, -1] ** 2)), rel=1e-12)
        assert result.stepwise_l1_aggregate is None
        assert result.statistic == "SQUARED_STEP"

    def test_unknown_statistic_name(self, fitted):
        with pytest.raises(DataError, match="unknown statistic"):
            ForecastRequest(
                horizon=1,
                source=innovation_source(fitted["GE"], SourceKind.TRIMMED_NORMAL),
                statistic="LAST_STEP",
            )

    def test_callable_statistic_refused(self, fitted):
        # a statistic is a Statistic member or its name, never a function
        with pytest.raises(DataError, match="unknown statistic"):
            ForecastRequest(
                horizon=1,
                source=innovation_source(fitted["GE"], SourceKind.TRIMMED_NORMAL),
                statistic=lambda paths: np.abs(paths[:, -1]),
            )

    def test_int_seed_normalized(self, fitted):
        # an int seed gives the result its Seed, so it equals the Seed(5)
        # result and serializes
        source = innovation_source(fitted["GE"], SourceKind.TRIMMED_NORMAL)
        by_int = predict(fitted["GE"], ForecastRequest(2, source, paths=150, seed=5))
        by_seed = predict(fitted["GE"], ForecastRequest(2, source, paths=150, seed=Seed(5)))
        assert by_int.seed == Seed(5)
        assert by_int == by_seed
        assert forecast_json(by_int, "GE/mc", "GE", 0.5)["seed"] == 5

    def test_risk_normalized_and_unknown_refused(self, fitted):
        source = innovation_source(fitted["GE"], SourceKind.TRIMMED_NORMAL)
        req = ForecastRequest(horizon=1, source=source, paths=150, risk="L1")
        assert req.risk is Risk.L1
        # refused when the request is made, before any ensemble is simulated
        with pytest.raises(DataError, match="unknown risk 'L3'"):
            ForecastRequest(horizon=1, source=source, risk="L3")

    def test_min_paths_enforced(self, fitted):
        with pytest.raises(DataError, match="minimum"):
            ForecastRequest(
                horizon=1,
                source=innovation_source(fitted["GE"], SourceKind.TRIMMED_NORMAL),
                paths=50,
            )

    # a float count used to pass and fail later inside numpy
    @pytest.mark.parametrize("field, value", [
        ("horizon", 5.0), ("horizon", "5"), ("paths", 1000.0), ("paths", None),
    ])
    def test_non_integer_count_refused(self, fitted, field, value):
        source = innovation_source(fitted["GE"], SourceKind.TRIMMED_NORMAL)
        with pytest.raises(DataError, match=f"{field} must be an integer"):
            ForecastRequest(**{"horizon": 5, "source": source, field: value})
        req = ForecastRequest(horizon=np.int64(5), source=source, paths=np.int32(500))
        assert type(req.horizon) is int and type(req.paths) is int

    def test_no_a0_paths_bounded_by_stability_envelope(self, fitted):
        # with a0 = 0 and bootstrapped innovations every pseudo value obeys
        # |Y*| <= max|W| * sqrt(alpha * max s2 + sum(lags) * max Y^2) where
        # the maxima run over the whole simulation; re-derive both maxima
        for name in ("GE_NO_A0", "GA_NO_A0"):
            ct = fitted[name]
            w = ct.weights
            req = ForecastRequest(
                horizon=30,
                source=innovation_source(ct, SourceKind.EMPIRICAL),
                paths=300,
                seed=Seed(8),
            )
            result, paths = predict(ct, req), ensemble(ct, req)
            assert np.all(np.isfinite(paths))
            w_max = float(np.abs(ct.residuals).max())
            for m in range(0, 300, 50):
                combined = np.concatenate([ct.history.values, paths[m]])
                s2_max = max(
                    ct.s2_n,
                    max(oracle_welford_variance_path(ct.history.values, paths[m])),
                )
                y2_max = float((combined**2).max())
                envelope = w_max * math.sqrt(
                    w.alpha * s2_max + float(w.lags.sum()) * y2_max
                )
                assert np.abs(paths[m]).max() <= envelope * (1 + 1e-9)

    def test_forecast_json_keys(self, fitted):
        ct = fitted["GE"]
        req = ForecastRequest(
            horizon=2,
            source=innovation_source(ct, SourceKind.TRIMMED_NORMAL),
            paths=150,
            seed=Seed(1),
        )
        payload = forecast_json(predict(ct, req), "GE/mc", "GE", 0.5)
        assert set(payload) >= {
            "method", "variant", "alpha", "horizon", "risk", "statistic",
            "point", "ensemble_mean", "ensemble_median", "M", "seed",
        }
        assert payload["M"] == 150
        assert payload["seed"] == 1


class TestSharedNormals:
    """With a window's shared normals, ``simulate_squares`` hands
    ``simulate_paths`` the block with only the entries beyond the source's
    bound replaced by that source's own draws, and puts them back after."""

    @staticmethod
    def block_simulated(monkeypatch, normals, source, gen, fail=False):
        """The step-major innovations ``simulate_squares`` passes on."""
        seen = []

        def recording(ct, innovations):
            seen.append(np.array(innovations))
            if fail:
                raise TrimBoundError("denominator below the guard")
            return np.zeros(innovations.shape)

        monkeypatch.setattr(novas.predictor, "simulate_paths", recording)
        simulate_squares(None, source, gen, normals)
        return seen[0]

    def test_bounded_source_sees_its_truncated_normal(self, monkeypatch):
        # criterion 04's checks on 10**6 patched entries at bound 3: the
        # support, and TN(3)'s mean 0 and variance 0.9733 (se ~ 0.001 each)
        normals = SharedNormals(substream(Seed(0)), 10_000, 100)
        raw = normals.block.copy()
        source = InnovationSource(SourceKind.TRIMMED_NORMAL, bound=3.0)
        patched = self.block_simulated(monkeypatch, normals, source, substream(Seed(1)))
        assert np.abs(patched).max() <= 3.0
        assert abs(patched.mean()) < 0.005
        assert abs(patched.var() - truncnorm(-3.0, 3.0).var()) < 0.01
        # exactly the entries beyond the bound were replaced, in step-major
        # order from the source's own stream, and are put back after
        beyond = np.abs(raw) > 3.0
        np.testing.assert_array_equal(patched != raw, beyond)
        want = source.draw(substream(Seed(1)), (int(beyond.sum()),))
        assert patched[beyond].tobytes() == want.tobytes()
        assert normals.block.tobytes() == raw.tobytes()

    def test_unbounded_source_sees_the_block_as_it_is(self, monkeypatch):
        normals = SharedNormals(substream(Seed(2)), 500, 30)
        raw = normals.block.copy()
        gen = substream(Seed(3))
        state = gen.bit_generator.state
        source = InnovationSource(SourceKind.TRIMMED_NORMAL, bound=math.inf)
        patched = self.block_simulated(monkeypatch, normals, source, gen)
        assert patched.tobytes() == raw.tobytes()
        assert gen.bit_generator.state == state

    def test_block_put_back_when_the_ensemble_fails(self, monkeypatch):
        normals = SharedNormals(substream(Seed(4)), 2000, 30)
        raw = normals.block.copy()
        source = InnovationSource(SourceKind.TRIMMED_NORMAL, bound=3.0)
        with pytest.raises(TrimBoundError):
            self.block_simulated(monkeypatch, normals, source, substream(Seed(5)),
                                 fail=True)
        assert normals.block.tobytes() == raw.tobytes()

    def test_infinite_bound_scans_nothing(self):
        # an a0-free ensemble finds nothing beyond its bound without the
        # block's scan for entries beyond MIN_BOUND, and reads no generator
        gen = substream(Seed(12))
        normals = SharedNormals(gen, 100, 3)
        state = gen.bit_generator.state
        assert normals.beyond(math.inf).size == 0
        assert "tails" not in vars(normals)
        assert gen.bit_generator.state == state
        # a finite bound scans once, on its first ask
        beyond = normals.beyond(3.0)
        assert "tails" in vars(normals)
        np.testing.assert_array_equal(beyond, np.flatnonzero(np.abs(normals.block) > 3.0))

    def test_bootstrap_source_refused(self, fitted):
        normals = SharedNormals(substream(Seed(6)), 100, 2)
        source = innovation_source(fitted["GE"], SourceKind.EMPIRICAL)
        with pytest.raises(DataError, match="only a trimmed-normal source"):
            simulate_squares(fitted["GE"], source, substream(Seed(7)), normals)


class TestSharedIndices:
    """With a window's index block, ``simulate_squares`` hands
    ``simulate_paths`` a bootstrap source's pool gathered at those indices,
    and reads nothing from a generator."""

    def test_bootstrap_source_sees_its_pool_at_the_indices(self, monkeypatch, fitted):
        seen = []

        def recording(ct, innovations):
            seen.append(np.array(innovations))
            return np.zeros(innovations.shape)

        monkeypatch.setattr(novas.predictor, "simulate_paths", recording)
        source = innovation_source(fitted["GE"], SourceKind.EMPIRICAL)
        pool = source.residual_pool
        indices = resample_indices(substream(Seed(8)), 300, 7, pool.size)
        simulate_squares(fitted["GE"], source, None, indices)
        assert seen[0].tobytes() == pool[indices.astype(np.intp)].tobytes()

    def test_trimmed_normal_source_refused(self, fitted):
        source = innovation_source(fitted["GE"], SourceKind.TRIMMED_NORMAL)
        indices = resample_indices(substream(Seed(9)), 100, 2, 50)
        with pytest.raises(DataError, match="only a bootstrap source"):
            simulate_squares(fitted["GE"], source, None, indices)

    def test_unbounded_normals_need_no_generator(self, fitted):
        ct = fitted["GE_NO_A0"]
        source = innovation_source(ct, SourceKind.TRIMMED_NORMAL)
        assert math.isinf(source.bound)
        normals = SharedNormals(substream(Seed(10)), 100, 3)
        got = simulate_squares(ct, source, None, normals)
        want = simulate_squares(ct, source, substream(Seed(11)), normals)
        assert got.tobytes() == want.tobytes()


def innovation_block(source, gen, paths, h):
    """The block ``predict`` builds its innovations from: indices into a
    bootstrap's pool, or standard normals."""
    if source.kind is SourceKind.EMPIRICAL:
        return resample_indices(gen, paths, h, source.residual_pool.size)
    return SharedNormals(gen, paths, h)


class TestWorkingSet:
    # An ensemble adds at most two (h, M) blocks to the caller's block: a
    # bootstrap's gather and its intp cast of the index block, then the
    # gather and the step-major copy that simulate_paths simulates in, the
    # gather being freed once copied, and then the copy, which the steps
    # overwrite with their signed roots, and a y^2 ring of at most
    # (h + 1) / 2 rows. predict holds the block too: a block of normals and
    # the copy and ring, or an eighth of a block of uint8 indices beside the
    # gather and its copy.
    BLOCK = 30 * 5000 * 8

    @staticmethod
    def traced_peak(call) -> int:
        call()  # builds whatever is cached, so only the ensemble is traced
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", list(SourceKind), ids=lambda k: k.value)
    def test_simulate_squares_holds_two_blocks(self, fitted, kind):
        ct = fitted["GE"]
        source = innovation_source(ct, kind)
        block = innovation_block(source, substream(Seed(0)), 5000, 30)
        peak = self.traced_peak(
            lambda: simulate_squares(ct, source, substream(Seed(1)), block))
        assert peak < 2.5 * self.BLOCK, f"peak {peak / self.BLOCK:.2f} (30, 5000) blocks"

    def test_predict_holds_two_blocks(self, fitted):
        ct = fitted["GE"]
        for kind in SourceKind:
            req = ForecastRequest(horizon=30, paths=5000, seed=Seed(1),
                                  source=innovation_source(ct, kind))
            peak = self.traced_peak(lambda: predict(ct, req))
            assert peak < 2.5 * self.BLOCK, (
                f"{kind.value}: peak {peak / self.BLOCK:.2f} (30, 5000) blocks")


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="reads glibc's mmap threshold"
)
def test_predict_reuses_its_memory():
    # a fresh process that runs no GA-sized calibration first: predict's
    # (h, M) arrays must come from the heap, not from mappings faulted in on
    # every call. A MALLOC_MMAP_THRESHOLD_ set in the environment turns
    # glibc's dynamic threshold off and this test with it (about 1,200
    # faults per call); that is the user's choice of allocator settings
    script = """
import resource
from novas import (ForecastRequest, NovasVariant, Seed, SourceKind, calibrate, generate,
                   innovation_source, predict)
from novas.simulate import ModelSpec

y = generate(ModelSpec(model="M1", n=250, seed=Seed(3)))
ct = calibrate(NovasVariant.GA_NO_A0, 0.5, y)
req = ForecastRequest(horizon=30, source=innovation_source(ct, SourceKind.TRIMMED_NORMAL),
                      paths=5000, seed=Seed(1))
for _ in range(3):
    predict(ct, req)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    predict(ct, req)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""
    assert float(last_line_printed(script)) < 50
