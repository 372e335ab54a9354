"""Adsorbed shale-gas content estimation from geological parameters.

The package chains data cleaning, K-NN outlier screening, normal-equation
least squares, leave-one-out validation, and a Langmuir-isotherm composite
estimator, plus inverse-distance interpolation of temperature gradients.
"""

from .dataset import (
    CleaningOutcome,
    DatasetKind,
    SampleParseError,
    SampleRecord,
    clean,
    correlation_table,
    integrate_replicates,
    parse_samples,
    pearson_correlation,
)
from .estimator import (
    EstimateRow,
    EstimateTable,
    LangmuirParams,
    ReservoirSpec,
    ReservoirTable,
    estimate_adsorbed_gas,
    estimate_reservoir,
    estimate_reservoirs,
    langmuir_volume,
    parse_reservoirs,
    reference_models,
)
from .geotemp import (
    HeatFlowTable,
    InvalidHeatFlowPoint,
    filter_heatflow,
    idw_interpolate,
    parse_heatflow,
)
from .outliers import (
    DistanceWeights,
    OutlierReport,
    ZeroIqrError,
    compute_weights,
    detect_outliers,
    quartiles,
    weighted_relative_error,
)
from .regression import (
    DesignSystem,
    FittedModel,
    ModelKind,
    ModelSpec,
    SingularSystemError,
    build_design,
    fit,
    model_from_text,
    model_to_text,
    ols_fit,
)
from .validation import (
    ComparisonTable,
    Scenario,
    ValidationReport,
    compare_models,
    error_ci,
    loo_cv,
    qq_data,
    scenario_split,
)

__version__ = "0.1.0"
