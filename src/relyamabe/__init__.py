"""Curvature, comparison criterion, and conformal quotient estimation
for left invariant metrics on the 3-sphere."""

from .conformal_energy import (
    QuotientInput,
    conformal_scalar,
    einstein_hilbert,
    neumann_residual,
    rayleigh_quotient,
)
from .criterion import (
    berger_classify,
    berger_sweep,
    boundary_curve,
    corollary_path_check,
    scalar_sign_curve,
    theorem1_check,
    volume_ratio,
)
from .errors import (
    ChartConsistencyError,
    ChartDomainError,
    DegenerateTrialError,
    HypothesisViolationError,
    InputFormatError,
    InvalidMetricError,
    NumericalFailureError,
    RelYamabeError,
)
from .lie_curvature import (
    BergerParams,
    FrameMetric,
    LieAlgebraFrame,
    berger_ricci_closed,
    berger_scalar_closed,
    curvature_report,
    levi_civita,
    su2_structure_constants,
)
from .su2_chart import (
    HopfGrid,
    MetricField,
    boundary_second_form,
    chart_metric,
    integrate,
)
from .yamabe_estimator import estimate, yamabe_property_probe

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RelYamabeError",
    "InvalidMetricError",
    "InputFormatError",
    "ChartDomainError",
    "ChartConsistencyError",
    "DegenerateTrialError",
    "NumericalFailureError",
    "HypothesisViolationError",
    # lie_curvature
    "LieAlgebraFrame",
    "FrameMetric",
    "BergerParams",
    "su2_structure_constants",
    "levi_civita",
    "curvature_report",
    "berger_scalar_closed",
    "berger_ricci_closed",
    # su2_chart
    "HopfGrid",
    "MetricField",
    "chart_metric",
    "integrate",
    "boundary_second_form",
    # conformal_energy
    "QuotientInput",
    "einstein_hilbert",
    "rayleigh_quotient",
    "conformal_scalar",
    "neumann_residual",
    # criterion
    "volume_ratio",
    "theorem1_check",
    "berger_classify",
    "boundary_curve",
    "scalar_sign_curve",
    "corollary_path_check",
    "berger_sweep",
    # yamabe_estimator
    "estimate",
    "yamabe_property_probe",
]
