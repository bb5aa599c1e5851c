"""qhyper: q-hypergeometric series, Jackson integrals, and operator checks."""

from .qcore import QContext, qpoch_finite, qpoch_infinite, qpoch_ratio, theta, elem_sym

__all__ = [
    "QContext",
    "qpoch_finite",
    "qpoch_infinite",
    "qpoch_ratio",
    "theta",
    "elem_sym",
]
