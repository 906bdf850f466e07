"""Graded Gauss-Legendre panel quadrature of the Duhamel time integral, for tests.

An independent cross-check of the closed forms in parabound.mathcore: it
shares the panel primitives of parabound.quadrature but none of the
series, continued fractions or asymptotics it checks.
"""

import math

import numpy as np

from parabound.errors import QuadratureFailure
from parabound.mathcore import _check_time_integral_args
from parabound.quadrature import panel_edges, panel_nodes


def integrate_panels(f, lo: float, hi: float, kinks=(), base_panels: int = 32,
                     order: int = 12, levels: int = 44) -> float:
    """Integrate a vectorized scalar function over [lo, hi] with grading."""
    nodes, weights = panel_nodes(panel_edges(lo, hi, kinks, base_panels, levels), order)
    return float(weights @ f(nodes))


def duhamel_time_integral_quadrature(
    t: float, n: int, p_conj: float, c: float, rel_tol: float = 1e-10
) -> float:
    """Quadrature path of the Duhamel time integral for any sign of c.

    Substitutes tau = v^(1/(1-s)), which turns the integrand into the
    bounded function e^(p' c tau(v)) / (1-s) on [0, t^(1-s)], and applies
    graded Gauss-Legendre panels at two orders; raises QuadratureFailure
    when they differ by more than rel_tol.
    """
    s = _check_time_integral_args(t, n, p_conj)
    power = 1.0 / (1.0 - s)
    upper = t ** (1.0 - s)

    # The indicator of [0, upper] has jumps at both ends, which are marked
    # as kinks so the panels grade toward them: the integrand's boundary
    # layer at the upper end is as thin as upper / (power p' |c| t).
    def integrand(v):
        inside = (v >= 0.0) & (v <= upper)
        tau = np.clip(v, 0.0, upper) ** power
        return np.where(inside, np.exp(p_conj * c * tau), 0.0) / (1.0 - s)

    lo, hi = -0.5 * upper, 1.5 * upper
    with np.errstate(over="ignore", invalid="ignore"):
        value = integrate_panels(integrand, lo, hi, kinks=(0.0, upper))
        coarse = integrate_panels(integrand, lo, hi, kinks=(0.0, upper), order=8)
    err = abs(value - coarse)
    if not (math.isfinite(value) and err <= rel_tol * abs(value)):
        raise QuadratureFailure(
            f"time-integral quadrature error {err:.3e} exceeds {rel_tol:.1e} relative"
        )
    return value
