"""Curvature, comparison criterion, and conformal quotient estimation
for left invariant metrics on the 3-sphere.

Importing the package loads the curvature and criterion layers.  The
hemisphere grid layers (`su2_chart`, `conformal_energy`,
`yamabe_estimator`) load on first use of one of their names here."""

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

#: package-root names of the grid layers -> the module defining each
_GRID_NAMES = {
    "HopfGrid": "su2_chart",
    "MetricField": "su2_chart",
    "chart_metric": "su2_chart",
    "integrate": "su2_chart",
    "boundary_second_form": "su2_chart",
    "QuotientInput": "conformal_energy",
    "einstein_hilbert": "conformal_energy",
    "rayleigh_quotient": "conformal_energy",
    "conformal_scalar": "conformal_energy",
    "neumann_residual": "conformal_energy",
    "estimate": "yamabe_estimator",
    "yamabe_property_probe": "yamabe_estimator",
}


def __getattr__(name: str):
    """Load a grid name from its module on first use (PEP 562) and keep
    it in the package namespace, so later lookups find it directly."""
    if name not in _GRID_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_GRID_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_GRID_NAMES})
