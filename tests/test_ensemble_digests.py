"""Byte digests of the calibration and ensemble outputs.

Pins the exact bits of :func:`calibrate_many` (every variant over the fixture
alphas, both grids), of :func:`simulate_paths` (every variant, both
innovation kinds), of every :class:`ForecastResult` field of :func:`predict`
(both statistics, both risks), and of the predictions of a short rolling
backtest. A rewrite of the calibrate, draw, simulate or reduce path that
changes any bit of any of them fails here; a change that is meant to alter
outputs must update these digests and say why.
"""

import hashlib

import numpy as np
import pytest

from novas import (
    BacktestConfig,
    ForecastRequest,
    NovasVariant,
    ReturnSeries,
    Risk,
    Seed,
    SourceKind,
    Statistic,
    calibrate,
    calibrate_many,
    feasible_alphas,
    generate,
    innovation_source,
    predict,
    run_rolling_poos,
    simulate_paths,
    substream,
)
from novas.simulate import ModelSpec
from novas.weights import CalibrationGrid

ALPHAS = {
    NovasVariant.GE: 0.5,
    NovasVariant.GE_NO_A0: 0.5,
    NovasVariant.GA: 0.6,
    NovasVariant.GA_NO_A0: 0.5,
}
KINDS = (SourceKind.TRIMMED_NORMAL, SourceKind.EMPIRICAL)
M, H = 500, 30


def digest(*parts) -> str:
    """First 16 hex digits of the SHA-256 of arrays' C-order bytes and of
    other values' ``repr`` (exact for floats)."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()[:16]


@pytest.fixture(scope="module")
def model3_series():
    return generate(ModelSpec(model="M3", n=300, seed=Seed(17)))


@pytest.fixture(scope="module")
def transforms(model3_series):
    return {v: calibrate(v, alpha, model3_series) for v, alpha in ALPHAS.items()}


FIXTURE_ALPHAS = tuple(k / 10 for k in range(1, 9))
GRIDS = {"ga_step=0.05": CalibrationGrid(ga_step=0.05), "default": CalibrationGrid()}
CALIBRATE = {
    ("M1", "ga_step=0.05"): "8ad025e8a9254913",
    ("M1", "default"): "e29c2e5c4a1e17f2",
    ("M3", "ga_step=0.05"): "a90df645dc3ebfec",
    ("M3", "default"): "683f135d3e7184a4",
}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("model", ["M1", "M3"])
def test_calibrate_many_digest(model3_series, model, grid):
    if model == "M1":
        # returns 0-249 of the M1 series the calibration tests use
        y = ReturnSeries(generate(ModelSpec(model="M1", n=500, seed=Seed(3))).values[:250])
    else:
        y = model3_series
    parts = []
    for variant in NovasVariant:
        alphas = feasible_alphas(variant, FIXTURE_ALPHAS, len(y), GRIDS[grid])
        for alpha, ct in calibrate_many(variant, alphas, y, GRIDS[grid]).items():
            parts += [alpha, ct.weights.to_dict(), ct.objective, ct.residuals]
    assert digest(*parts) == CALIBRATE[model, grid]


# every ensemble runs its variance live; the cases keep the "live" id they
# had beside the removed frozen-variance mode, so their names stay stable
LIVE = pytest.mark.parametrize("variance", ["live"])

SIMULATE = {
    ("GE", "TRIMMED_NORMAL"): "70e75be4080d7bff",
    ("GE", "EMPIRICAL"): "eb621e1c01232f4a",
    ("GE_NO_A0", "TRIMMED_NORMAL"): "7946bd4e1e249a3c",
    ("GE_NO_A0", "EMPIRICAL"): "59c6132c0d58e89f",
    ("GA", "TRIMMED_NORMAL"): "e25232963c7bd7f8",
    ("GA", "EMPIRICAL"): "530b1352db61138e",
    ("GA_NO_A0", "TRIMMED_NORMAL"): "a6b9eeba31a541e8",
    ("GA_NO_A0", "EMPIRICAL"): "b97df828fa7a01be",
}


@LIVE
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("variant", list(NovasVariant), ids=lambda v: v.value)
def test_simulate_paths_digest(transforms, variant, kind, variance):
    ct = transforms[variant]
    gen = substream(Seed(3), list(NovasVariant).index(variant), KINDS.index(kind))
    draws = innovation_source(ct, kind).draw(gen, (M, H))
    paths = simulate_paths(ct, draws)
    assert paths.shape == (M, H)
    assert digest(paths) == SIMULATE[variant.value, kind.value]


PREDICT = {
    ("GE", "TRIMMED_NORMAL"): "80ff99d3d3cfe035",
    ("GE", "EMPIRICAL"): "7af20d66e530fd63",
    ("GE_NO_A0", "TRIMMED_NORMAL"): "d63ffb413162814a",
    ("GE_NO_A0", "EMPIRICAL"): "e8c50d29abcd8e13",
    ("GA", "TRIMMED_NORMAL"): "eab35875dd9d001c",
    ("GA", "EMPIRICAL"): "91cb29b4fd85ade5",
    ("GA_NO_A0", "TRIMMED_NORMAL"): "c13471861a1c9585",
    ("GA_NO_A0", "EMPIRICAL"): "6bbb6c796e766e23",
}


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("variant", list(NovasVariant), ids=lambda v: v.value)
def test_predict_digest(transforms, variant, kind):
    ct = transforms[variant]
    results = [
        predict(
            ct,
            ForecastRequest(
                horizon=H,
                source=innovation_source(ct, kind),
                paths=M,
                risk=risk,
                statistic=statistic,
                seed=Seed(5),
            ),
        )
        for statistic in Statistic
        for risk in Risk
    ]
    assert digest(*results) == PREDICT[variant.value, kind.value]


BACKTEST = "c3d578bd2015259e"


def test_backtest_predictions_digest():
    y = generate(ModelSpec(model="M1", n=256, seed=Seed(3)))
    cfg = BacktestConfig(
        window=250,
        horizons=(1, 5),
        paths=200,
        seed=Seed(3),
        grid=CalibrationGrid(ga_step=0.05),
        threads=1,
    )
    report = run_rolling_poos(y, cfg)
    parts = []
    for key in sorted(report.predictions, key=lambda k: k.label()):
        for h, values in sorted(report.predictions[key].items()):
            parts += [key.label(), h, values]
    assert digest(*parts) == BACKTEST
