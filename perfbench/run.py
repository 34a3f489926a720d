#!/usr/bin/env python3
"""Benchmark of the novas engine: rolling-backtest throughput on the
acceptance-fixture and paper-default configs, single-forecast latency, and a
traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload fixture --seed 3 --seconds 20 --trace 0

Workloads and metrics are described in ``perfbench/README.md``. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it restate each
metric with its unit, the run context and every failed check. The exit code
is non-zero when an output check fails or the program's sources are absent.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, so every run uses one BLAS thread: the backtest's
# own worker pool is the only concurrency the benchmark measures.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import LayerStats, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

WINDOW = 250
HORIZONS = (1, 5, 30)
ALPHAS = tuple(k / 10 for k in range(1, 9))
BACKTESTS = {
    # 30 windows, the fewest that reach h=30; calibration dominates
    "fixture": {"n": WINDOW + 30, "paths": 1000, "ga_step": 0.05, "threads": 2},
    # 40 windows, 11 of them simulate h=30 with M=5000
    "paper": {"n": WINDOW + 40, "paths": 5000, "ga_step": None, "threads": 1},
}
FORECAST = {"n": WINDOW + 1000, "alpha": 0.5, "horizon": 30, "paths": 5000}
FORECAST_VARIANTS = ("GE", "GE_NO_A0", "GA", "GA_NO_A0")
FORECAST_KINDS = ("TRIMMED_NORMAL", "EMPIRICAL")
MIN_REQUESTS = 100  # so that p90 has ten samples beyond it
ORACLE_SAMPLES = 8  # one per (variant, kind) pair
SETUP_PROBES = 3
WARMUP_REQUESTS = 8  # first requests run slower; untimed, but checked
# short series for the 1- vs 2-worker comparison: 5 windows, one at h=5
SCHEDULE_CHECK = {"n": WINDOW + 5, "horizons": (1, 5)}

# layer -> workloads on which the layer must record calls
EXPECTED_CALLS = {
    "returns.variance_path": {"fixture", "paper", "forecast"},
    "transform.calibrate_many": {"fixture", "paper", "forecast"},
    "transform.calibrate": {"forecast"},
    "transform.forward_transform": {"fixture", "paper", "forecast"},
    "innovations.draw.trimmed_normal": {"fixture", "paper", "forecast"},
    "innovations.draw.empirical": {"fixture", "paper", "forecast"},
    "predictor.simulate_paths": {"fixture", "paper", "forecast"},
    "predictor.predict": {"forecast"},
    "garch.fit_garch11_mle": {"fixture", "paper"},
    "garch.garch_direct_forecast": {"fixture", "paper"},
    "backtest.run_rolling_poos": {"fixture", "paper"},
}


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_novas():
    """Import the program from ``src/`` of this checkout, never from elsewhere."""
    if not (SRC / "novas" / "__init__.py").is_file():
        fail_setup(f"no novas sources under {SRC}; run from a full checkout")
    if not (TESTS / "oracles.py").is_file():
        fail_setup(f"no reference oracles at {TESTS / 'oracles.py'}")
    sys.path[:0] = [str(SRC), str(TESTS)]
    import novas

    if Path(novas.__file__).resolve().parent != SRC / "novas":
        fail_setup(f"imported novas from {novas.__file__}, not from {SRC}")
    return novas


def build_inputs(nv, workload: str, seed: int) -> dict:
    """Everything a workload needs before its first timed operation."""
    if workload == "forecast":
        y = nv.generate(nv.ModelSpec(model="M1", n=FORECAST["n"], seed=nv.Seed(seed)))
        return {"y": y}
    spec = BACKTESTS[workload]
    y = nv.generate(nv.ModelSpec(model="M1", n=spec["n"], seed=nv.Seed(seed)))
    grid = (
        nv.CalibrationGrid(ga_step=spec["ga_step"])
        if spec["ga_step"] is not None
        else nv.CalibrationGrid()
    )
    cfg = backtest_config(nv, seed, spec["paths"], grid, spec["threads"])
    return {"y": y, "cfg": cfg}


def backtest_config(nv, seed, paths, grid, threads, horizons=HORIZONS):
    return nv.BacktestConfig(
        window=WINDOW,
        horizons=horizons,
        alpha_grid=ALPHAS,
        paths=paths,
        seed=nv.Seed(seed),
        grid=grid,
        threads=threads,
    )


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: set up, announce readiness, exit."""
    build_inputs(load_novas(), workload, seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its inputs being built."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup probe exited with {code} before it was ready")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# backtests


def report_digest(report) -> str:
    """SHA-256 over every method's per-horizon prediction array."""
    h = hashlib.sha256()
    for key in sorted(report.predictions, key=lambda m: m.label()):
        h.update(key.label().encode())
        for horizon in report.horizons:
            h.update(report.predictions[key][horizon].tobytes())
    return h.hexdigest()


def check_report(nv, report, n: int, cfg) -> list[str]:
    problems = []
    for h in cfg.horizons:
        want = n - cfg.window - h + 1
        if report.counts[h] != want:
            problems.append(f"counts[{h}] = {report.counts[h]}, expected {want}")
        ratio = report.score_for(nv.MethodKey("GARCH_DIRECT"), h).ratio
        if ratio != 1.0:
            problems.append(f"GARCH_DIRECT ratio at h={h} is {ratio!r}, not 1.0")
    bad = [f"{s.method.label()}@{s.horizon}" for s in report.scores
           if not (math.isfinite(s.score) and math.isfinite(s.ratio))]
    if bad:
        problems.append(f"non-finite scores: {', '.join(bad[:5])}")
    return problems


class BacktestPass:
    """One timed ``run_rolling_poos`` call and what it produced."""

    def __init__(self, nv, y, cfg, problems: list[str]):
        self.windows = len(y) - cfg.window
        start = time.perf_counter()
        try:
            report = nv.run_rolling_poos(y, cfg)
        except Exception:
            # a raised call loses all of its windows but never the benchmark
            self.seconds = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            self.failed, self.digest = self.windows, None
            return
        self.seconds = time.perf_counter() - start
        self.failed = report.failed_windows[min(cfg.horizons)]
        self.digest = report_digest(report)
        problems.extend(check_report(nv, report, len(y), cfg))

    @property
    def windows_per_s(self) -> float:
        return (self.windows - self.failed) / self.seconds


def check_digests(passes, label: str, problems: list[str]) -> None:
    digests = {p.digest for p in passes if p.digest is not None}
    if len(digests) > 1:
        problems.append(f"{label}: prediction digests differ: {sorted(digests)}")


def schedule_check(nv, seed: int, cfg, problems: list[str]) -> list[BacktestPass]:
    """A short series on the workload's config must predict identically at 1
    and 2 workers. Run before any timed pass, it also warms the process."""
    y = nv.generate(nv.ModelSpec(model="M1", n=SCHEDULE_CHECK["n"], seed=nv.Seed(seed)))
    passes = [
        BacktestPass(nv, y, backtest_config(
            nv, seed, cfg.paths, cfg.grid, threads, SCHEDULE_CHECK["horizons"]
        ), problems)
        for threads in (1, 2)
    ]
    if any(p.digest is None for p in passes):
        print("schedule check incomplete: a call raised", file=sys.stderr)
    check_digests(passes, "1 vs 2 workers", problems)
    return passes


def totals(passes) -> dict:
    return {
        "attempted": sum(p.windows for p in passes),
        "failed": sum(p.failed for p in passes),
    }


def run_backtest(nv, seed, seconds, inputs, problems):
    y, cfg = inputs["y"], inputs["cfg"]
    checks = schedule_check(nv, seed, cfg, problems)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(BacktestPass(nv, y, cfg, problems))
    check_digests(passes, "repeats of one seed", problems)
    return {
        **totals(checks + passes),
        "windows_per_s": statistics.median(p.windows_per_s for p in passes),
        "latency_ms": [p.seconds * 1000.0 / p.windows for p in passes],
        "samples": f"{len(passes)} calls of {passes[0].windows} windows, ms per window",
    }


def trace_backtest(nv, seed, inputs, problems):
    """Untraced, traced and untraced again at 1 worker, so that drift cancels
    in the overhead; a pooled config adds an untraced pass at its own worker
    count for the parallel efficiency."""
    y, cfg = inputs["y"], inputs["cfg"]
    checks = schedule_check(nv, seed, cfg, problems)
    one = backtest_config(nv, seed, cfg.paths, cfg.grid, 1)
    before = BacktestPass(nv, y, one, problems)
    tracer = Tracer()
    with tracer:
        traced = BacktestPass(nv, y, one, problems)
    after = BacktestPass(nv, y, one, problems)
    passes = [before, traced, after]
    efficiency = 0.0
    if cfg.threads > 1:
        pooled = BacktestPass(nv, y, cfg, problems)
        passes.append(pooled)
        efficiency = pooled.windows_per_s / (cfg.threads * traced.windows_per_s)
    check_digests(passes, "untraced, traced and pooled passes", problems)
    return tracer, {
        **totals(checks + passes),
        "windows": traced.windows,
        "untraced_s": (before.seconds + after.seconds) / 2,
        "traced_s": traced.seconds,
        "parallel_efficiency": efficiency,
    }


# ---------------------------------------------------------------------------
# forecast


def forecast_request(nv, y, seed: int, i: int):
    """Request ``i``: calibrate one alpha on sliding window ``i``, then predict."""
    start = i % (len(y) - WINDOW + 1)
    window = nv.ReturnSeries(y.values[start : start + WINDOW])
    ct = nv.calibrate(nv.NovasVariant(FORECAST_VARIANTS[i % 4]), FORECAST["alpha"], window)
    req = nv.ForecastRequest(
        horizon=FORECAST["horizon"],
        source=nv.innovation_source(ct, FORECAST_KINDS[(i // 4) % 2]),
        paths=FORECAST["paths"],
        risk=nv.Risk.L2,
        seed=nv.Seed((seed * 1_000_003 + i) % 2**64),
    )
    return ct, nv.predict(ct, req)


class ForecastPass:
    """Closed-loop requests until ``seconds`` pass, or a fixed ``count``."""

    def __init__(self, nv, y, seed, problems, seconds=None, count=None, tracer=None):
        self.latency_ms, self.points, self.cts = [], {}, {}
        self.failed = 0
        begin = time.perf_counter()
        i = 0
        while (i < count) if count is not None else (
            i < MIN_REQUESTS or time.perf_counter() - begin < seconds
        ):
            if tracer is not None:
                tracer.trace_id = i
            start = time.perf_counter()
            try:
                ct, result = forecast_request(nv, y, seed, i)
            except Exception:
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
            else:
                self.latency_ms.append((time.perf_counter() - start) * 1000.0)
                self.points[i], self.cts[i] = result.point, ct
            i += 1
        self.seconds = time.perf_counter() - begin
        self.windows = i
        bad = [i for i, p in self.points.items() if not (math.isfinite(p) and p > 0.0)]
        if bad:
            problems.append(f"non-finite or non-positive points at requests {bad[:5]}")
        self.check_residuals(problems)

    def check_residuals(self, problems):
        """Sampled calibrations against the loop-based reference residuals."""
        from oracles import oracle_residuals

        step = max(1, self.windows // (ORACLE_SAMPLES * ORACLE_SAMPLES))
        for r in range(ORACLE_SAMPLES):
            i = r + ORACLE_SAMPLES * r * step  # i % 8 == r: every (variant, kind)
            ct = self.cts.get(i)
            if ct is None:
                continue
            w = ct.weights
            want = oracle_residuals(ct.history.values, w.alpha, w.y2_self_coef, w.lags)
            try:
                np.testing.assert_allclose(ct.residuals, want, rtol=1e-12)
            except AssertionError as exc:
                problems.append(f"request {i}: residuals differ from the oracle: {exc}")


def run_forecast(nv, seed, seconds, inputs, problems):
    y = inputs["y"]
    warmup = ForecastPass(nv, y, seed, problems, count=WARMUP_REQUESTS)
    p = ForecastPass(nv, y, seed, problems, seconds=seconds)
    return {
        **totals([warmup, p]),
        "windows_per_s": (p.windows - p.failed) / p.seconds,
        "latency_ms": p.latency_ms,
        "samples": f"{len(p.latency_ms)} requests",
    }


def trace_forecast(nv, seed, seconds, inputs, problems):
    y = inputs["y"]
    warmup = ForecastPass(nv, y, seed, problems, count=WARMUP_REQUESTS)
    before = ForecastPass(nv, y, seed, problems, seconds=seconds / 3)
    tracer = Tracer()
    with tracer:
        traced = ForecastPass(nv, y, seed, problems, count=before.windows, tracer=tracer)
    after = ForecastPass(nv, y, seed, problems, count=before.windows)
    if not before.points == traced.points == after.points:
        problems.append("traced forecasts differ from untraced ones")
    return tracer, {
        **totals([warmup, before, traced, after]),
        "windows": traced.windows,
        "untraced_s": (before.seconds + after.seconds) / 2,
        "traced_s": traced.seconds,
        "parallel_efficiency": 0.0,
    }


# ---------------------------------------------------------------------------
# reporting


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_context(nv, workers: int) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "workers": workers,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "novas": nv.__version__,
        "git_commit": git_commit(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(workload, tracer, info) -> dict:
    metrics, flags = {}, []
    for name, expected in EXPECTED_CALLS.items():
        st = tracer.stats.get(name, LayerStats())
        metrics[f"{name}.calls"] = (st.calls, "count")
        metrics[f"{name}.busy_s"] = (st.busy_s, "s")
        metrics[f"{name}.self_s"] = (st.self_s, "s")
        metrics[f"{name}.ms_per_call"] = (
            st.busy_s * 1000.0 / st.calls if st.calls else 0.0, "ms")
        metrics[f"{name}.errors"] = (sum(st.errors.values()), "count")
        if st.errors:
            print(f"errors in {name} by category: {dict(st.errors)}")
        if st.calls == 0 and workload in expected:
            flags.append(name)
    metrics["returns.variance_path.calls_per_window"] = (
        metrics["returns.variance_path.calls"][0] / info["windows"], "count")
    metrics["predictor.simulate_paths.lag_elems"] = (
        tracer.stats.get("predictor.simulate_paths", LayerStats()).work, "count")
    metrics["backtest.parallel_efficiency"] = (info["parallel_efficiency"], "ratio")
    overhead = info["traced_s"] - info["untraced_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / info["untraced_s"], "ratio")
    metrics["trace.zero_call_layers"] = (len(flags), "count")
    for name in flags:
        print(f"FLAG: layer {name} recorded no calls on {workload}; the map expects calls")
    for target in tracer.missing:
        print(f"FLAG: span target {target} no longer exists")
    print(f"tracing overhead: {overhead:.4f} s = traced {info['traced_s']:.4f} s "
          f"- mean untraced {info['untraced_s']:.4f} s over {info['windows']} windows")
    print("predictor.simulate_paths.lag_elems is computed as sum of M*h*order")
    return metrics


def write_spans(workload, seed, tracer, context) -> Path:
    out = ROOT / ".bench_build" / "perfbench" / f"spans-{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    fields = ("id", "parent", "trace", "name", "start", "end", "error")
    out.write_text(json.dumps({
        "context": context,
        "spans": [dict(zip(fields, s)) for s in tracer.spans],
    }))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*BACKTESTS, "forecast"])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    workload, seed = args.workload, args.seed
    nv = load_novas()
    setup_times = [] if args.trace else measure_setup(workload, seed)
    inputs = build_inputs(nv, workload, seed)
    workers = inputs["cfg"].threads if "cfg" in inputs else 1
    context = run_context(nv, 1 if args.trace else workers)
    print("context " + json.dumps(context))

    problems: list[str] = []
    if args.trace:
        if workload == "forecast":
            tracer, info = trace_forecast(nv, seed, args.seconds, inputs, problems)
        else:
            tracer, info = trace_backtest(nv, seed, inputs, problems)
        metrics = layer_metrics(workload, tracer, info)
        print(f"spans written to {write_spans(workload, seed, tracer, context)}")
    else:
        if workload == "forecast":
            info = run_forecast(nv, seed, args.seconds, inputs, problems)
        else:
            info = run_backtest(nv, seed, args.seconds, inputs, problems)
        metrics = {
            "windows_per_s": (info["windows_per_s"], "1/s"),
            "forecast_ms_p50": (percentile(info["latency_ms"], 50), "ms"),
            "forecast_ms_p90": (percentile(info["latency_ms"], 90), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        print(f"samples: {info['samples']}; setup probes: "
              + ", ".join(f"{t:.4f}" for t in setup_times) + " s")

    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    failed_frac = info["failed"] / info["attempted"]
    print(f"{'failed_frac':<44} {failed_frac:>16.6f} fraction "
          f"({info['failed']} of {info['attempted']})")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
