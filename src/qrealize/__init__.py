"""Minimal quantum-noise realization of LTI systems.

Decides whether a real state-space triple (A, B, C) on quadrature-paired
dimensions can be realized as an open quantum harmonic oscillator,
computes the exact minimum number of additional vacuum noise channels,
and constructs realization matrices (R, Lambda, B1, D1) together with a
numerical verification report.
"""

# qrealize.io stamps it into every report.
__version__ = "0.11.0"

from .errors import (
    ContractError,
    DimensionError,
    NumericalError,
    ParseError,
    QRealizeError,
    ValidationError,
)
from .linalg import TolerancePolicy
from .realizability import (
    LtiSystem,
    SkewReport,
    check_physical_realizability,
    compute_s_tilde,
)
from .synthesis import Realization, minimality_certificate, oscillator, synthesize_realization

__all__ = [
    "__version__",
    # errors
    "QRealizeError",
    "DimensionError",
    "ValidationError",
    "ParseError",
    "ContractError",
    "NumericalError",
    # analysis
    "LtiSystem",
    "TolerancePolicy",
    "SkewReport",
    "compute_s_tilde",
    "check_physical_realizability",
    # synthesis
    "Realization",
    "synthesize_realization",
    "oscillator",
    "minimality_certificate",
]
