"""In-memory spans around the calls into each novas layer.

The benchmark wraps public functions from the outside; the library itself is
not instrumented. Each wrapped function is replaced in every loaded
``novas.*`` module namespace that holds it, so a call that a refactor
re-routes through another module (``backtest`` calling ``predict``, say) is
still traced. Self time is a span's duration minus the time its direct child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np


def _draw_name(args, kwargs) -> str:
    kind = getattr(args[0], "kind", None)
    label = {"TRIMMED_NORMAL": "trimmed_normal", "EMPIRICAL": "empirical"}
    return "innovations.draw." + label.get(getattr(kind, "value", kind), str(kind))


def _lag_elems(args, kwargs) -> int:
    """M * h * order of one ``simulate_paths`` call: the lag-window work."""
    ct = args[0] if args else kwargs["ct"]
    innovations = args[1] if len(args) > 1 else kwargs["innovations"]
    m, h = np.atleast_2d(np.asarray(innovations)).shape
    return m * h * ct.weights.order


# (defining module, attribute or Class.method, span name or namer, work counter)
TARGETS = (
    ("novas.returns", "variance_path", "returns.variance_path", None),
    ("novas.transform", "calibrate_many", "transform.calibrate_many", None),
    ("novas.transform", "calibrate", "transform.calibrate", None),
    ("novas.transform", "forward_transform", "transform.forward_transform", None),
    ("novas.innovations", "InnovationSource.draw", _draw_name, None),
    ("novas.predictor", "simulate_paths", "predictor.simulate_paths", _lag_elems),
    ("novas.predictor", "predict", "predictor.predict", None),
    ("novas.garch", "fit_garch11_mle", "garch.fit_garch11_mle", None),
    ("novas.garch", "garch_direct_forecast", "garch.garch_direct_forecast", None),
    ("novas.backtest", "run_rolling_poos", "backtest.run_rolling_poos", None),
)


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    errors: Counter = field(default_factory=Counter)


class Tracer:
    """Collects spans ``(id, parent, trace, name, start, end, error)``.

    ``trace_id`` is set by the caller before each request, so that the spans
    of one request share it.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self.missing: list[str] = []
        self.trace_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, fn, name, work):
        namer = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]  # id, time covered by direct children
            stack.append(frame)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = getattr(exc, "category", type(exc).__name__)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                busy = end - start
                if stack:
                    stack[-1][1] += busy
                span_name = namer(args, kwargs)
                amount = work(args, kwargs) if work is not None else 0
                with self._lock:
                    st = self.stats[span_name]
                    st.calls += 1
                    st.busy_s += busy
                    st.self_s += busy - frame[1]
                    st.work += amount
                    if error is not None:
                        st.errors[error] += 1
                    self.spans.append(
                        (span_id, parent, self.trace_id, span_name, start, end, error)
                    )

        return wrapper

    def __enter__(self):
        """Wrap every target; spans are recorded until ``__exit__``."""
        self._undo = undo = []
        self.missing = []
        for module_name, attr, name, work in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, "__dict__", {}).get(meth)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(cls, meth, self._wrap(original, name, work))
                undo.append((cls, meth, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, work)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "novas" or mod_name.startswith("novas.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
