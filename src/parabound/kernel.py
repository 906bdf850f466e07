"""Problem definition and evaluation of the fundamental solution.

The equation on R^n x (0, T) is

    u_t = sum_jk a_jk d2u/dx_j dx_k + sum_j b_j du/dx_j + c u

with A = ((a_jk)) symmetric positive definite, drift vector b and reaction
rate c. Its fundamental solution is the drift-shifted anisotropic Gaussian

    G(x, t) = e^{ct} / ((2 sqrt(pi t))^n det A^{1/2})
              * exp(-|A^{-1/2}(x + t b)|^2 / (4 t)),

whose convolution with the initial data solves the homogeneous problem and
whose total mass is exactly e^{ct}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonpositiveTime
from .mathcore import SpdDecomposition, SpdMatrix, decompose

# exp(-q) with q > EXP_UNDERFLOW is returned as exact zero.
EXP_UNDERFLOW = 700.0


@dataclass(frozen=True)
class ProblemSpec:
    """One constant-coefficient parabolic equation instance.

    diffusion carries units length^2/time, drift length/time, reaction
    1/time; horizon is the right end T of the time layer.
    """

    diffusion: SpdMatrix
    drift: np.ndarray
    reaction: float
    horizon: float

    def __post_init__(self):
        b = np.array(self.drift, dtype=float).reshape(-1)
        if b.shape != (self.diffusion.n,):
            raise DomainError(
                f"drift length {b.shape[0]} does not match dimension {self.diffusion.n}"
            )
        if not np.all(np.isfinite(b)):
            raise DomainError("drift entries must be finite")
        if not (math.isfinite(self.reaction)):
            raise DomainError("reaction rate must be finite")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")
        b.setflags(write=False)
        object.__setattr__(self, "drift", b)
        object.__setattr__(self, "reaction", float(self.reaction))
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def n(self) -> int:
        return self.diffusion.n

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemSpec":
        try:
            n = int(d["n"])
            a = d["A"]
            b = d["b"]
            c = float(d["c"])
            horizon = float(d["T"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed problem spec: {exc}") from exc
        mat = SpdMatrix(a)
        if mat.n != n:
            raise DomainError(f"matrix order {mat.n} does not match n = {n}")
        return cls(diffusion=mat, drift=np.asarray(b, dtype=float), reaction=c, horizon=horizon)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "A": self.diffusion.entries.tolist(),
            "b": self.drift.tolist(),
            "c": self.reaction,
            "T": self.horizon,
        }


class FundamentalSolution:
    """The kernel G for one ProblemSpec, with cached matrix derivations.

    Immutable after construction and safe to share across threads; all
    evaluations are pure. Point arguments may be a single vector of shape
    (n,) or a batch of shape (m, n); results follow the input shape.
    """

    __slots__ = ("spec", "dec", "det_sqrt", "inv_sqrt", "inverse", "sqrt", "n")

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.n = spec.n
        self.dec: SpdDecomposition = decompose(spec.diffusion)
        self.det_sqrt: float = self.dec.det_sqrt
        self.inv_sqrt = self.dec.inv_sqrt.entries
        self.inverse = self.dec.inverse.entries
        self.sqrt = self.dec.sqrt.entries

    def _check_time(self, t: float) -> float:
        if not t > 0.0:
            raise NonpositiveTime(f"kernel evaluation requires t > 0, got {t}")
        return float(t)

    def _check_times(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        bad = ~(t > 0.0)
        if bad.any():
            raise NonpositiveTime(f"kernel evaluation requires t > 0, got {t[bad][0]}")
        return t

    def _rows(self, x, t):
        """Points of shape (m, n) and an array of m times, one per row, checked."""
        t = self._check_times(t)
        pts = np.asarray(x, dtype=float)
        if t.ndim != 1 or pts.shape != (t.size, self.n):
            raise DomainError(f"points of shape {pts.shape} do not match {t.size} times, n = {self.n}")
        return pts, t

    def _points(self, x):
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[-1] != self.n:
            raise DomainError(f"point dimension {pts.shape[-1]} != n = {self.n}")
        return pts, single

    def whitened(self, x, t: float) -> np.ndarray:
        """Transformed coordinates inv_sqrt(A) (x + t b) / (2 sqrt t).

        The kernel exponent is exactly -|whitened|^2; evaluating through
        this transform avoids forming the A^{-1} quadratic form at extreme
        times.
        """
        t = self._check_time(t)
        pts, single = self._points(x)
        xi = (pts + t * self.spec.drift) @ self.inv_sqrt / (2.0 * math.sqrt(t))
        return xi[0] if single else xi

    def log_prefactor(self, t: float) -> float:
        """log of e^{ct} / ((2 sqrt(pi t))^n det A^{1/2}); elementwise for a 1-D array t.

        An array takes the scalar value once per run of equal times, so a
        batch of rows that share a time costs one scalar evaluation and
        matches the scalar calls bitwise.
        """
        if np.ndim(t):
            t = self._check_times(t)
            starts = np.flatnonzero(t[1:] != t[:-1]) + 1
            first = np.concatenate(([0], starts))
            runs = list(map(self._log_prefactor, t[first].tolist()))
            return np.repeat(runs, np.concatenate((starts, [t.size])) - first)
        return self._log_prefactor(self._check_time(t))

    def _log_prefactor(self, t: float) -> float:
        """log_prefactor of one checked time, in scalar arithmetic."""
        return (
            self.spec.reaction * t
            - self.n * math.log(2.0 * math.sqrt(math.pi * t))
            - math.log(self.det_sqrt)
        )

    def _pass(self, x, t):
        """The pass value and gradient share: (x + t b, G(x, t), t, single).

        t comes back as a column for one time per row of x, else as the
        checked scalar; single tells a lone point of shape (n,).
        """
        if np.ndim(t):
            pts, t = self._rows(x, t)
            col, single = t[:, None], False
        else:
            col = t = self._check_time(t)
            pts, single = self._points(x)
        shifted = pts + col * self.spec.drift
        # np.dot, not @: at n = 1 @ takes a slow non-BLAS path for (m, 1) @ (1, 1), with the
        # same bits; in place where the bits allow, since each temporary is one more pass
        xi = np.dot(shifted, self.inv_sqrt)
        xi /= 2.0 * np.sqrt(col)
        q = np.einsum("ij,ij->i", xi, xi)
        g = np.exp(self.log_prefactor(t) - q)
        g[q > EXP_UNDERFLOW] = 0.0
        return shifted, g, col, single

    def value(self, x, t: float):
        """Kernel value G(x, t); strictly positive, even in x + t b.

        t may also be an array of times, one per row of a batch x of shape
        (m, n); the result then has shape (m,).
        """
        _, out, _, single = self._pass(x, t)
        return float(out[0]) if single else out

    def gradient(self, x, t: float):
        """Spatial gradient: -(1/2t) A^{-1}(x + t b) G(x, t).

        t may also be an array of times, one per row of a batch x of shape
        (m, n); the result then has shape (m, n).
        """
        shifted, g, col, single = self._pass(x, t)
        # -(A^{-1} shifted) g / (2 t), in place, in that order
        out = np.dot(shifted, self.inverse)
        np.negative(out, out=out)
        out *= g[:, None]
        out /= 2.0 * col
        return out[0] if single else out

    def fourier_symbol(self, xi, t: float):
        """Multiplier exp((-(A xi, xi) + i (b, xi) + c) t) on the transform side."""
        t = self._check_time(t)
        pts, single = self._points(xi)
        quad = np.einsum("ij,jk,ik->i", pts, self.spec.diffusion.entries, pts)
        lin = pts @ self.spec.drift
        out = np.exp((-quad + 1j * lin + self.spec.reaction) * t)
        return complex(out[0]) if single else out

    def total_mass(self, t: float) -> float:
        """Integral of G(., t) over R^n; identically e^{ct}."""
        t = self._check_time(t)
        return math.exp(self.spec.reaction * t)
