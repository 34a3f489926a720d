"""Model-free volatility forecasting via normalizing and variance-stabilizing
transformations, with GARCH(1,1) baselines, synthetic data models, and a
rolling pseudo-out-of-sample backtest harness."""

from .backtest import (
    BacktestConfig,
    BacktestReport,
    MethodKey,
    MethodScore,
    format_table,
    relative_report,
    run_rolling_poos,
    score_performance,
)
from .errors import (
    CalibrationError,
    DataError,
    DegenerateWindowError,
    FitError,
    InfeasibleWeightsError,
    NovasError,
    TrimBoundError,
)
from .garch import (
    GarchFit,
    GarchParams,
    conditional_variance,
    fit_garch11_mle,
    garch_direct_forecast,
)
from .innovations import (
    InnovationSource,
    Seed,
    SourceKind,
    substream,
)
from .predictor import (
    ForecastRequest,
    ForecastResult,
    Risk,
    Statistic,
    forecast_json,
    innovation_source,
    predict,
    simulate_paths,
)
from .returns import ReturnSeries, sample_kurtosis
from .simulate import ModelSpec, generate
from .transform import (
    CalibratedTransform,
    calibrate,
    calibrate_many,
    feasible_alphas,
    forward_transform,
    inverse_step,
)
from .weights import A0_MAX, CalibrationGrid, NovasVariant, NovasWeights, build_weights

__version__ = "0.1.0"
