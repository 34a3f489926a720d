import pickle

import pytest

from novas import InfeasibleWeightsError, NovasError


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

