"""Modules of the package use only each other's public names, every public
name, every defaulted parameter and every defaulted field of a public
dataclass has a caller outside the tests, none of them needs scipy or
numpy.ma, and importing the package loads no process-pool module."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "novas").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    private = [
        f"line {node.lineno}: from .{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not private, private


def test_garch_is_a_leaf():
    # the GARCH baselines need only the error types and the return series;
    # a bare ``from . import x`` shows up as None
    tree = ast.parse((SRC / "novas" / "garch.py").read_text())
    imported = {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    assert imported <= {"errors", "returns"}, imported


# build_weights is the one judge of a grid point's admissibility; the
# package __init__ only re-exports the bound
@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name not in ("weights.py", "__init__.py")],
    ids=lambda p: p.name,
)
def test_admissibility_bound_stays_in_weights(path):
    names = [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == "A0_MAX")
        or (isinstance(node, ast.alias) and node.name == "A0_MAX")
        or (isinstance(node, ast.Attribute) and node.attr == "A0_MAX")
    ]
    assert not names, names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    imports = [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "scipy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "scipy")
    ]
    assert not imports, imports


def last_line_printed(script: str) -> str:
    """The last line ``script`` prints in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def test_fit_and_backtest_load_no_scipy():
    # nor numpy.ma, which no program path needs and np.unique would import
    script = """
import sys
from novas import (BacktestConfig, ForecastRequest, NovasVariant, ReturnSeries, Seed,
                   calibrate, fit_garch11_mle, generate, innovation_source, predict,
                   run_rolling_poos)
from novas.innovations import SourceKind
from novas.simulate import ModelSpec

y = generate(ModelSpec(model="M1", n=252, seed=Seed(3)))
window = ReturnSeries(y.values[:250])
fit_garch11_mle(window)
ct = calibrate(NovasVariant.GA, 0.5, window)
for kind in SourceKind:
    req = ForecastRequest(horizon=5, source=innovation_source(ct, kind), paths=100,
                          risk="L1")
    predict(ct, req)
report = run_rolling_poos(
    y, BacktestConfig(window=250, horizons=(1,), paths=100, seed=Seed(3), threads=2)
)
assert report.counts == {1: 2}
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]))
"""
    assert last_line_printed(script) == "[]"


def test_import_leaves_out_the_pool_modules():
    # only a pooled backtest needs them, and it imports them itself
    script = """
import sys
import novas
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""
    assert last_line_printed(script) == "[]"


# every median is the exact one-pass selection in predictor._median; a numpy
# median or quantile elsewhere would be a second, several times slower path
ORDER_STATISTICS = {"median", "percentile", "quantile", "nanmedian", "nanpercentile",
                    "nanquantile"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_median_path(path):
    tree = ast.parse(path.read_text())
    helper = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_median"
    ]
    inside = {id(n) for fn in helper for n in ast.walk(fn)}
    calls = [
        f"line {node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ORDER_STATISTICS
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        and id(node) not in inside
    ] + [
        f"line {node.lineno}: from numpy import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module or "").split(".")[0] == "numpy"
        for alias in node.names if alias.name in ORDER_STATISTICS
    ]
    assert not calls, calls


# every ensemble is drawn and simulated in predictor.simulate_squares; a
# draw or simulate_paths call anywhere else would be a second ensemble path
ENSEMBLE_STEPS = {"simulate_paths", "draw"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_ensemble_path(path):
    tree = ast.parse(path.read_text())
    helper = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "simulate_squares"
    ]
    inside = {id(n) for fn in helper for n in ast.walk(fn)}
    calls = [
        f"line {node.lineno}: {ast.unparse(node.func)}("
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside
        and (getattr(node.func, "id", None) == "simulate_paths"
             or getattr(node.func, "attr", None) in ENSEMBLE_STEPS)
    ]
    assert not calls, calls


# a public function or class that no code of the program names is an entry
# point that only tests reach, and a defaulted parameter that no call of the
# program passes is a knob that only tests turn; each allowed one says why it
# stays
TEST_ONLY = {
    # the scalar inverse step: the reference the tests compare simulate_paths
    # against, step by step
    "inverse_step",
    # the console entry point's argument list, which it reads from sys.argv
    "main.argv",
}
CALLERS = [
    *(p for p in SOURCES if p.name != "__init__.py"),
    *sorted((SRC.parent / "scripts").glob("*.py")),
    *sorted((SRC.parent / "perfbench").glob("*.py")),
]


def _names_used(tree) -> set[str]:
    """Every name, attribute and imported name in a module's code."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def test_every_public_name_has_a_caller():
    used = set().union(*(_names_used(ast.parse(p.read_text())) for p in CALLERS))
    public = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    unused = [name for name in public if name.split(".")[1] not in used | TEST_ONLY]
    assert not unused, unused


def _passed(call: ast.Call) -> tuple[float, set]:
    """How many leading positional parameters a call passes, every one when
    it unpacks a ``*`` argument, and the names it passes by keyword, where
    ``None`` stands for a ``**`` unpacking that may pass any."""
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return math.inf if starred else len(call.args), {kw.arg for kw in call.keywords}


def _defaulted(args: ast.arguments) -> list[tuple[float, str]]:
    """The position and name of each parameter that has a default; a
    keyword-only one has no position a call can reach."""
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    return [(i, a.arg) for i, a in enumerate(positional) if i >= first] + [
        (math.inf, a.arg)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _in_init(stmt: ast.AnnAssign) -> bool:
    """Whether a dataclass field is a parameter of its ``__init__``: every
    field but one declared with ``field(init=False)``."""
    value = stmt.value
    return not (
        isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
        and any(kw.arg == "init" and getattr(kw.value, "value", None) is False
                for kw in value.keywords)
    )


def _defaulted_fields(node: ast.ClassDef) -> list[tuple[int, str]]:
    """The position and name of each defaulted field of a dataclass: its
    fields that ``__init__`` takes are its parameters, in the order
    declared."""
    fields = [stmt for stmt in node.body
              if isinstance(stmt, ast.AnnAssign) and _in_init(stmt)]
    return [(i, f.target.id) for i, f in enumerate(fields) if f.value is not None]


def _public_defaults(tree) -> list[tuple[str, list[tuple[float, str]]]]:
    """Each public function and public dataclass of a module, with the
    position and name of each of its defaulted parameters; a dataclass's
    are the defaulted fields that its ``__init__`` takes."""
    out = []
    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node.name, _defaulted(node.args)))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out.append((node.name, _defaulted_fields(node)))
    return out


def test_every_defaulted_parameter_is_passed():
    calls = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(_passed(node))
    unpassed = [
        f"{path.stem}.{name}.{param}"
        for path in SOURCES
        for name, defaulted in _public_defaults(ast.parse(path.read_text()))
        for position, param in defaulted
        if f"{name}.{param}" not in TEST_ONLY
        and not any(
            position < count or param in names or None in names
            for count, names in calls.get(name, [])
        )
    ]
    assert not unpassed, unpassed
