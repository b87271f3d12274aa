"""Half-cell potentials, full-cell OCV, and the analytic OCV derivative.

All functions accept a float or an ndarray of SOC values in [0, 1] and
validate the domain with a 1e-12 boundary tolerance to absorb integrator
round-off.
"""

import numpy as np

from . import kernels
from .errors import DomainError

DOMAIN_TOL = 1e-12


def _checked(z):
    arr = np.asarray(z, dtype=float)
    if arr.size and (arr.min() < -DOMAIN_TOL or arr.max() > 1.0 + DOMAIN_TOL):
        raise DomainError(
            f"SOC outside [0, 1] beyond tolerance {DOMAIN_TOL:g}")
    if arr.ndim == 0:
        return float(arr)
    return arr


def u_pos(z):
    """Positive-electrode (NMC) equilibrium potential in volts."""
    return kernels.u_pos(_checked(z))


def u_neg(z):
    """Negative-electrode (graphite) equilibrium potential in volts."""
    return kernels.u_neg(_checked(z))


def ocv(z):
    """Full-cell open-circuit voltage: u_pos(z) - u_neg(z)."""
    return kernels.ocv(_checked(z))


def docv_dz(z):
    """Analytic derivative of ocv with respect to SOC (volts per unit SOC)."""
    return kernels.docv_dz(_checked(z))
