"""Weighted-Sobolev toolkit for heat flow on model surfaces.

Modules: geometry (charts, distances, connections, ball volumes),
admissible (radius fields), covering (Vitali coverings with overlap
certificates), exponents (exact bootstrap exponent tables), norms
(weighted Sobolev norms on grids), heatflow (implicit-Euler solver and
estimate experiments), cli (command-line front end), acceptance
(verification suites).
"""

from .geometry import (
    CapabilityError,
    DomainError,
    MetricChart,
    NumericalError,
    make_chart,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "DomainError",
    "MetricChart",
    "NumericalError",
    "make_chart",
    "__version__",
]
