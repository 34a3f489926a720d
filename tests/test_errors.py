import pickle

import pytest

from novas import (
    BacktestConfig,
    CalibrationGrid,
    DataError,
    ForecastRequest,
    InfeasibleWeightsError,
    InnovationSource,
    ModelSpec,
    NovasError,
    Seed,
    SourceKind,
)


def _error_classes(cls=NovasError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def _instance(cls):
    if issubclass(cls, InfeasibleWeightsError):
        return cls("negative_a0", "solved a0 is negative")
    return cls("window is degenerate")


@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda c: c.__name__)
def test_every_error_survives_pickling(cls):
    # errors raised in a backtest worker process reach the caller pickled
    exc = _instance(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.category == exc.category
    assert getattr(back, "reason", None) == getattr(exc, "reason", None)



# operator.index(True) is 1, so each of these would build with the count 1
@pytest.mark.parametrize("build, name", [
    (lambda: BacktestConfig(window=250, threads=True), "threads"),
    (lambda: ModelSpec(model="M3", n=True), "n"),
    (lambda: CalibrationGrid(ge_c_count=True), "ge_c_count"),
    (lambda: Seed(True), "seed"),
    (lambda: ForecastRequest(
        horizon=True, source=InnovationSource(SourceKind.TRIMMED_NORMAL, bound=3.0)),
     "horizon"),
], ids=["BacktestConfig", "ModelSpec", "CalibrationGrid", "Seed", "ForecastRequest"])
def test_bool_count_refused(build, name):
    with pytest.raises(DataError, match=f"{name} must be an? (integer|number)"):
        build()
