"""Closed forms for the sharp coefficients in the pointwise gradient bounds.

For the homogeneous problem (initial data phi in L^p), the best constant in

    |du/dl (x, t)| <= K(p, l, t) * ||phi||_p

is, with p' the Hoelder conjugate of p,

    K = |A^{-1/2} l| / (2^n pi^{(n+p-1)/2} det A^{1/2})^{1/p}
        * (Gamma((p'+1)/2) / p'^{(n+p')/2})^{1/p'} * e^{ct} / t^{(n+p)/(2p)}.

For the nonhomogeneous problem (zero initial data, forcing f with finite
space-time L^p norm, p > n + 2), the Gamma brace additionally carries the
time integral of e^{p'c tau} tau^{-(n(p'-1)+p')/2}:

    C = |A^{-1/2} l| / (2^n pi^{(n+p-1)/2} det A^{1/2})^{1/p}
        * (Gamma((p'+1)/2) / p'^{(n+p')/2} * I(t))^{1/p'}.

Maximizing over unit directions l replaces |A^{-1/2} l| by the spectral
norm of A^{-1/2}; the maximizer is an eigenvector for the smallest
eigenvalue of A. Neither constant reads the drift vector b.

By Hoelder duality each constant equals the L^{p'} norm of the directional
kernel gradient (spatial for the homogeneous case, space-time for the
nonhomogeneous one), which is what the verification oracles recompute by
quadrature. All powers are assembled in log space so large p or c t
cannot overflow an intermediate factor (a value beyond the float64 range
raises FloatOverflow), and the p = 1 / p = infinity branches are evaluated
from their exact limit forms rather than by taking limits numerically.

A direction is checked once per call: its length against n here, then its
unit norm by BoundQuery, which keeps it as a tuple of Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DomainError,
    ExponentTooSmall,
    FloatOverflow,
    InvalidExponent,
    NonpositiveTime,
)
from .kernel import FundamentalSolution
from .mathcore import (
    LOG_FLOAT_MAX,
    gamma,
    log_duhamel_time_integral,
    log_gamma,
    spectral_norm_inv_sqrt,
)

HOMOGENEOUS = "hom"
NONHOMOGENEOUS = "nonhom"

_DIRECTION_NORM_TOL = 1e-12
_LOG_2 = math.log(2.0)
_LOG_PI = math.log(math.pi)
_SQRT_PI = math.sqrt(math.pi)
_GAMMA_FACTOR_P1 = math.exp(-0.5) / math.sqrt(2.0)


def conjugate_exponent(p: float) -> float:
    """Hoelder conjugate p' with 1/p + 1/p' = 1 (maps 1 <-> inf)."""
    if p == math.inf:
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


@dataclass(frozen=True)
class BoundQuery:
    """One request for a sharp coefficient.

    direction None means "maximize over unit directions". A given
    direction must be a unit vector (|l|^2 within 2e-12 of 1); this is the
    one place that checks it, and it is stored as a tuple of Python
    floats. Its length is checked against the problem dimension at
    evaluation time, as is p > n + 2 for the nonhomogeneous kind.
    """

    p: float
    t: float
    kind: str = HOMOGENEOUS
    direction: Optional[tuple] = None

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise InvalidExponent(f"Lebesgue exponent must satisfy p >= 1, got {self.p}")
        if not self.t > 0.0:
            raise NonpositiveTime(f"bound query requires t > 0, got {self.t}")
        if self.kind not in (HOMOGENEOUS, NONHOMOGENEOUS):
            raise DomainError(f"unknown problem kind {self.kind!r}")
        if self.direction is not None:
            ell = np.asarray(self.direction, dtype=float)
            if not abs(float(ell.dot(ell)) - 1.0) <= 2.0 * _DIRECTION_NORM_TOL:
                raise DomainError("direction must be a unit vector")
            object.__setattr__(self, "direction", tuple(ell.tolist()))


@dataclass(frozen=True)
class SharpConstant:
    """A sharp coefficient value with its factor decomposition.

    prefactor bundles the direction amplitude |A^{-1/2} l| with the
    determinant/pi brace, gamma_factor the Gamma brace, time_factor the
    reaction-time part (for the nonhomogeneous kind, the Duhamel integral
    raised to 1/p'). The product of the three reproduces value; where the
    time factor alone exceeds the float64 range it is reported as inf and
    value comes from the sum of the factors' logarithms.
    maximizing_direction is set when the query had no direction.
    """

    value: float
    prefactor: float
    gamma_factor: float
    time_factor: float
    query: BoundQuery
    maximizing_direction: Optional[tuple] = None

    def factors(self) -> dict:
        return {
            "prefactor": self.prefactor,
            "gamma_factor": self.gamma_factor,
            "time_factor": self.time_factor,
        }


def sphere_integral(n: int, p_conj: float, v) -> float:
    """Surface integral over the unit sphere of |(e, v)|^p' d sigma(e).

    Closed form |v|^p' * 2 pi^{(n-1)/2} Gamma((p'+1)/2) / Gamma((n+p')/2);
    at n = 1 the "sphere" is the two-point set {-1, +1} and the formula
    reduces to 2 |v|^p'.
    """
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    if p_conj < 1.0:
        raise DomainError(f"conjugate exponent must be >= 1, got {p_conj}")
    norm = float(np.linalg.norm(np.asarray(v, dtype=float)))
    if norm == 0.0:
        return 0.0
    return (
        norm**p_conj
        * 2.0
        * math.pi ** ((n - 1) / 2.0)
        * gamma((p_conj + 1.0) / 2.0)
        / gamma((n + p_conj) / 2.0)
    )


def radial_integral(n: int, p_conj: float, t: float) -> float:
    """Integral over (0, inf) of rho^{p'+n-1} e^{-p' rho^2/(4t)} d rho.

    Closed form (1/2) (4t/p')^{(p'+n)/2} Gamma((n+p')/2).
    """
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    if p_conj < 1.0:
        raise DomainError(f"conjugate exponent must be >= 1, got {p_conj}")
    if not t > 0.0:
        raise NonpositiveTime(f"radial integral requires t > 0, got {t}")
    return 0.5 * (4.0 * t / p_conj) ** ((p_conj + n) / 2.0) * gamma((n + p_conj) / 2.0)


def _check_time(kernel: FundamentalSolution, t: float) -> float:
    if not t > 0.0:
        raise NonpositiveTime(f"sharp coefficient requires t > 0, got {t}")
    if t > kernel.spec.horizon:
        raise DomainError(f"t = {t} beyond the problem horizon T = {kernel.spec.horizon}")
    return float(t)


def _assemble(prefactor: float, gamma_factor: float, log_time_factor: float):
    """(value, time_factor) for value = prefactor * gamma_factor * e^log_time_factor.

    Raises FloatOverflow only when value itself is not representable.
    """
    if log_time_factor <= LOG_FLOAT_MAX:
        time_factor = math.exp(log_time_factor)
        value = prefactor * gamma_factor * time_factor
        if math.isfinite(value):
            return value, time_factor
    else:
        time_factor = math.inf
    log_value = math.log(prefactor) + math.log(gamma_factor) + log_time_factor
    if log_value > LOG_FLOAT_MAX:
        raise FloatOverflow(f"sharp coefficient e^{log_value:.6g} overflows float64")
    return math.exp(log_value), time_factor


def _sharp_constant(kernel, p, t, direction, kind, log_time_factor) -> SharpConstant:
    """Direction amplitude, det/pi and Gamma braces, shared by K and C.

    Only the (log) time factor differs between the two kinds. The amplitude
    is |A^{-1/2} l|, or for l = None the spectral norm with its maximizer.
    """
    if direction is None:
        query = BoundQuery(p, t, kind)
        amp = spectral_norm_inv_sqrt(kernel.dec)
        maximizer = tuple(kernel.dec.eigenvectors[:, 0].tolist())
    else:
        ell = np.asarray(direction, dtype=float).ravel()
        if ell.shape[0] != kernel.n:
            raise DomainError(f"direction length {ell.shape[0]} != n = {kernel.n}")
        query = BoundQuery(p, t, kind, ell)
        v = kernel.inv_sqrt.dot(ell)
        amp = math.sqrt(v.dot(v))
        maximizer = None
    if p == math.inf:
        prefactor = amp / _SQRT_PI
        gamma_factor = 1.0
    else:
        # log of the det/pi brace 2^n pi^{(n+p-1)/2} det A^{1/2}, raised to -1/p below
        n = kernel.n
        log_brace = n * _LOG_2 + 0.5 * (n + p - 1.0) * _LOG_PI + math.log(kernel.det_sqrt)
        prefactor = amp * math.exp(-log_brace / p)
        if p == 1.0:
            # Limit p' -> inf: sup norm of the directional kernel gradient.
            gamma_factor = _GAMMA_FACTOR_P1
        else:
            pc = conjugate_exponent(p)
            gamma_factor = math.exp(
                (log_gamma((pc + 1.0) / 2.0) - 0.5 * (n + pc) * math.log(pc)) / pc
            )
    value, time_factor = _assemble(prefactor, gamma_factor, log_time_factor)
    return SharpConstant(value, prefactor, gamma_factor, time_factor, query, maximizer)


def sharp_coefficient_hom(
    kernel: FundamentalSolution, p: float, t: float, direction=None
) -> SharpConstant:
    """Sharp coefficient for the homogeneous problem at exponent p in [1, inf].

    direction None maximizes over unit directions and reports the
    maximizer. Continuous in p: the p = 1 and p = inf branches equal the
    finite-p limits.
    """
    t = _check_time(kernel, t)
    if not p >= 1.0:
        raise InvalidExponent(f"Lebesgue exponent must satisfy p >= 1, got {p}")
    time_power = 0.5 if p == math.inf else 0.5 * (kernel.n + p) / p
    log_time_factor = kernel.spec.reaction * t - time_power * math.log(t)
    return _sharp_constant(kernel, p, t, direction, HOMOGENEOUS, log_time_factor)


def sharp_coefficient_nonhom(
    kernel: FundamentalSolution, p: float, t: float, direction=None
) -> SharpConstant:
    """Sharp coefficient for the nonhomogeneous problem, p > n + 2 or p = inf.

    The time factor integrates the reaction-weighted singular kernel decay
    over (0, t); it diverges for p <= n + 2, which raises ExponentTooSmall.
    """
    t = _check_time(kernel, t)
    n = kernel.n
    if p != math.inf and not p > n + 2:
        raise ExponentTooSmall(
            f"nonhomogeneous bound requires p > n + 2 = {n + 2}, got {p}"
        )
    pc = conjugate_exponent(p)
    log_time_factor = log_duhamel_time_integral(t, n, pc, kernel.spec.reaction) / pc
    return _sharp_constant(kernel, p, t, direction, NONHOMOGENEOUS, log_time_factor)


def evaluate_query(kernel: FundamentalSolution, query: BoundQuery) -> SharpConstant:
    """Dispatch a BoundQuery to the matching closed form."""
    fn = sharp_coefficient_hom if query.kind == HOMOGENEOUS else sharp_coefficient_nonhom
    return fn(kernel, query.p, query.t, query.direction)
