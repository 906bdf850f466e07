"""Dense SPD linear algebra and the special functions behind the closed forms.

Eigenpairs come from one LAPACK ``eigh`` call per user matrix, with each
eigenvector's sign fixed so that repeated runs report the same maximizing
direction. Gamma factors come from the standard library. The Duhamel time
integral has a closed form for every sign of the reaction rate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricInput,
    DivergentIntegral,
    DomainError,
    FloatOverflow,
    NotPositiveDefinite,
    QuadratureFailure,
)

MAX_DIM = 8

# Relative tolerance on |m - m.T| before input is rejected.
SYMMETRY_TOL = 1e-14
# Smallest admissible eigenvalue, relative to the largest.
POSDEF_RATIO = 1e-12

# log of the largest finite float64; exp of anything above overflows.
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class SpdMatrix:
    """Symmetric positive definite matrix of order 1..8.

    The stored entries are exactly symmetric. Construction rejects inputs
    whose asymmetry exceeds ``SYMMETRY_TOL`` relative to the largest entry
    (AsymmetricInput) or whose smallest eigenvalue is at or below
    ``POSDEF_RATIO`` times the largest (NotPositiveDefinite). Instances are
    immutable and safe to share across threads.
    """

    __slots__ = ("entries", "_eigvals", "_eigvecs")

    def __init__(self, entries):
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {m.shape}")
        n = m.shape[0]
        if not 1 <= n <= MAX_DIM:
            raise DomainError(f"dimension {n} outside supported range 1..{MAX_DIM}")
        if not np.all(np.isfinite(m)):
            raise DomainError("matrix entries must be finite")
        scale = float(np.abs(m).max())
        if scale > 0.0 and float(np.abs(m - m.T).max()) > SYMMETRY_TOL * scale:
            raise AsymmetricInput("matrix asymmetry exceeds tolerance")
        m = 0.5 * (m + m.T)
        eigvals, eigvecs = np.linalg.eigh(m)
        if eigvals[-1] <= 0.0 or eigvals[0] <= POSDEF_RATIO * eigvals[-1]:
            raise NotPositiveDefinite(
                f"eigenvalue {eigvals[0]:.3e} at or below threshold "
                f"{POSDEF_RATIO:.0e} * {eigvals[-1]:.3e}"
            )
        # Canonical sign: each column's largest-magnitude component is
        # positive (argmax takes the first index on ties).
        lead = eigvecs[np.argmax(np.abs(eigvecs), axis=0), np.arange(n)]
        eigvecs = eigvecs * np.where(lead < 0.0, -1.0, 1.0)
        self.entries = _frozen(m)
        self._eigvals = _frozen(eigvals)
        self._eigvecs = _frozen(eigvecs)

    @classmethod
    def _from_eigenpairs(cls, eigvals, eigvecs) -> "SpdMatrix":
        """Assemble Q diag(eigvals) Q^T from eigenpairs known to be valid.

        Skips validation and the eigensolver; eigvals must be positive and
        ascending, eigvecs orthonormal with canonical signs.
        """
        self = object.__new__(cls)
        m = (eigvecs * eigvals) @ eigvecs.T
        self.entries = _frozen(0.5 * (m + m.T))
        self._eigvals = _frozen(eigvals)
        self._eigvecs = _frozen(eigvecs)
        return self

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SpdMatrix":
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, diag) -> "SpdMatrix":
        return cls(np.diag(np.asarray(diag, dtype=float)))

    def __repr__(self):
        return f"SpdMatrix({self.entries.tolist()!r})"


@dataclass(frozen=True)
class SpdDecomposition:
    """Eigendecomposition of an SpdMatrix with the derived SPD matrices.

    ``eigenvalues`` are sorted ascending and ``eigenvectors`` holds the
    matching orthonormal columns, so column 0 spans (a deterministic choice
    of) the lowest eigendirection.
    """

    matrix: SpdMatrix
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sqrt: SpdMatrix
    inv_sqrt: SpdMatrix
    inverse: SpdMatrix
    det_sqrt: float


def decompose(m: SpdMatrix) -> SpdDecomposition:
    """Eigendecompose an SPD matrix and derive sqrt, inv_sqrt, inverse.

    Reuses the eigenpairs computed when ``m`` was constructed; the derived
    matrices share them (reversed for the decreasing powers).
    """
    lam, q = m._eigvals, m._eigvecs
    root = np.sqrt(lam)
    q_rev = q[:, ::-1]
    return SpdDecomposition(
        matrix=m,
        eigenvalues=lam,
        eigenvectors=q,
        sqrt=SpdMatrix._from_eigenpairs(root, q),
        inv_sqrt=SpdMatrix._from_eigenpairs(1.0 / root[::-1], q_rev),
        inverse=SpdMatrix._from_eigenpairs(1.0 / lam[::-1], q_rev),
        det_sqrt=float(np.prod(root)),
    )


def spectral_norm_inv_sqrt(d: SpdDecomposition) -> float:
    """Spectral norm of the inverse square root: (lowest eigenvalue)^(-1/2).

    Equals the maximum of |inv_sqrt @ l| over unit vectors l.
    """
    return 1.0 / math.sqrt(float(d.eigenvalues[0]))


def gamma(x: float) -> float:
    """Gamma function for x > 0 up to its float64 overflow near 171.6."""
    if not x > 0.0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    try:
        value = math.gamma(x)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise FloatOverflow(f"gamma({x}) overflows float64")
    return value


def log_gamma(x: float) -> float:
    """log(gamma(x)) for x > 0, stable for arbitrarily large x."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


_INCGAMMA_MAX_ITER = 600
_INCGAMMA_EPS = 1e-16


def lower_incomplete_gamma(a: float, x: float) -> float:
    """Lower incomplete gamma integral of t^(a-1) e^(-t) over (0, x).

    Series expansion for x < a + 1, continued fraction for the upper tail
    otherwise (the classical regime split).
    """
    if not a > 0.0:
        raise DomainError(f"lower_incomplete_gamma requires a > 0, got {a}")
    if x < 0.0:
        raise DomainError(f"lower_incomplete_gamma requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    log_front = a * math.log(x) - x
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        k = 0
        while k < _INCGAMMA_MAX_ITER:
            k += 1
            term *= x / (a + k)
            total += term
            if abs(term) < _INCGAMMA_EPS * abs(total):
                return total * math.exp(log_front)
        raise QuadratureFailure("incomplete gamma series did not converge")
    # Modified Lentz continued fraction for the upper integral.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _INCGAMMA_MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _INCGAMMA_EPS:
            upper = math.exp(log_front) * h
            return gamma(a) - upper
    raise QuadratureFailure("incomplete gamma continued fraction did not converge")


# Above this x the asymptotic expansion of the Kummer sum is exact to far
# below float64 resolution (its error is of order Gamma(1-s) x e^{-x}).
_KUMMER_ASYMPTOTIC_X = 80.0
_SERIES_EPS = 1e-17


def _log_kummer_sum(x: float, s: float) -> float:
    """log of sum_k x^k / (k! (k+1-s)) = M(1-s, 2-s, x) / (1-s) for x > 0.

    Sums the positive series up to x = 80; beyond, the sum equals
    (e^x / x) sum_k (s)_k x^{-k} up to exponentially small terms, which
    keeps the cost bounded and the result finite for any finite x.
    """
    if not math.isfinite(x):
        raise DomainError(f"time integral exponent p' c t = {x} is not finite")
    if x <= _KUMMER_ASYMPTOTIC_X:
        term = 1.0
        total = 1.0 / (1.0 - s)
        k = 0
        while True:
            k += 1
            term *= x / k
            add = term / (k + 1.0 - s)
            total += add
            if k > x and add <= _SERIES_EPS * total:
                return math.log(total)
    term = total = 1.0
    k = 0
    while term > _SERIES_EPS * total:
        term *= (s + k) / x
        total += term
        k += 1
    return x - math.log(x) + math.log(total)


def _singularity_exponent(n: int, p_conj: float) -> float:
    return 0.5 * (n * (p_conj - 1.0) + p_conj)


def _check_time_integral_args(t: float, n: int, p_conj: float) -> float:
    """Validate the arguments and return the singularity exponent s < 1."""
    if not t > 0.0:
        raise DomainError(f"time integral requires t > 0, got {t}")
    if p_conj < 1.0:
        raise DomainError(f"conjugate exponent must be >= 1, got {p_conj}")
    s = _singularity_exponent(n, p_conj)
    if s >= 1.0:
        raise DivergentIntegral(
            f"singularity exponent s = {s:.6g} >= 1 (requires p > n + 2)"
        )
    return s


def log_duhamel_time_integral(t: float, n: int, p_conj: float, c: float) -> float:
    """log of ``duhamel_time_integral``; finite even where the integral overflows."""
    s = _check_time_integral_args(t, n, p_conj)
    x = p_conj * c * t
    if x == 0.0:
        return (1.0 - s) * math.log(t) - math.log(1.0 - s)
    if x < 0.0:
        beta = -p_conj * c
        return (s - 1.0) * math.log(beta) + math.log(lower_incomplete_gamma(1.0 - s, -x))
    return (1.0 - s) * math.log(t) + _log_kummer_sum(x, s)


def duhamel_time_integral(t: float, n: int, p_conj: float, c: float) -> float:
    """Integral over (0, t) of e^(p' c tau) * tau^(-s), s = (n(p'-1)+p')/2.

    This is the time factor of the nonhomogeneous gradient bound; it
    converges exactly when s < 1, i.e. p > n + 2. c = 0 is the power rule,
    c < 0 the lower incomplete gamma function, and c > 0 the Kummer
    function t^(1-s) M(1-s, 2-s, p'ct) / (1-s) (DLMF 13.2). Raises
    FloatOverflow when the value exceeds the float64 range.
    """
    log_value = log_duhamel_time_integral(t, n, p_conj, c)
    if log_value > LOG_FLOAT_MAX:
        raise FloatOverflow(f"time integral e^{log_value:.6g} overflows float64")
    return math.exp(log_value)
