"""Input data for the solvers: closed-form presets, sampled grids and the
space-time wrappers used by the nonhomogeneous problem.

Every spatial source evaluates on point batches of shape (m, n) and knows
its L^p norms: presets in closed form, grid data through midpoint
refinement with Richardson extrapolation (the error estimate is stored).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FloatOverflow, MalformedGridFile
from .mathcore import LOG_FLOAT_MAX
from .quadrature import tensor_nodes

GRID_MAGIC = b"PBGR"
GRID_VERSION = 1


class SourceFunction:
    """Base class for initial data phi: R^n -> R.

    Custom data implements n, __call__ (points of shape (m, n) to m
    values) and lp_norm; sup_norm() should be finite, since it bounds what
    the pruned Gauss-Hermite rule leaves out and floors the error scale.
    It may name its kinks (kinks_1d) or a Gaussian factor
    (gaussian_factor). Other custom data takes Gauss-Hermite in the
    kernel's frame, which samples it at the rule's nodes only: a feature
    narrower than their spacing (about 0.28 sqrt(t lam) along an
    eigenvector of A with eigenvalue lam, at order 256) can be missed with
    no error raised.
    """

    n: int

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def lp_norm(self, p: float) -> float:
        raise NotImplementedError

    def sup_norm(self) -> float:
        return self.lp_norm(math.inf)

    def kinks_1d(self):
        """Locations (n = 1 only) where the data is not smooth; default none."""
        return ()

    def gaussian_factor(self):
        """(center, spread, degree) when phi is exp(-|y - center|^2 / (4 spread))
        times a polynomial of total degree at most degree, else None (the default).

        The solvers integrate its product with the kernel by one unchecked
        Gauss-Hermite rule, exact for that total degree (not the largest power:
        A's eigenframe mixes the axes). A (center, spread) pair fails to unpack.
        """
        return None


def _check_finite(*values):
    """Reject a NaN or infinite data parameter: no finite solution exists for it."""
    if not np.all(np.isfinite(values)):
        raise DomainError("data parameters must be finite")


def _as_points(pts, n):
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if n == 1 else pts[None, :]
    if pts.shape[-1] != n:
        raise DomainError(f"points have dimension {pts.shape[-1]}, expected {n}")
    return pts


@dataclass(frozen=True)
class GaussianBump(SourceFunction):
    """amp * exp(-|y - center|^2 / (4 spread)); L^p norms in closed form."""

    center: tuple
    spread: float
    amp: float = 1.0

    def __post_init__(self):
        if not self.spread > 0:
            raise DomainError("spread must be positive")
        object.__setattr__(self, "center", tuple(float(v) for v in np.atleast_1d(self.center)))
        _check_finite(self.spread, self.amp, *self.center)

    @property
    def n(self):
        return len(self.center)

    def __call__(self, pts):
        pts = _as_points(pts, self.n)
        d = pts - np.asarray(self.center)
        return self.amp * np.exp(-np.einsum("ij,ij->i", d, d) / (4.0 * self.spread))

    def lp_norm(self, p):
        if p == math.inf:
            return abs(self.amp)
        return abs(self.amp) * (4.0 * math.pi * self.spread / p) ** (self.n / (2.0 * p))

    def gaussian_factor(self):
        return self.center, self.spread, 0


@dataclass(frozen=True)
class BoxIndicator(SourceFunction):
    """amp on the closed box [lo, hi], zero outside."""

    lo: tuple
    hi: tuple
    amp: float = 1.0

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        # bounds may be infinite (a half-space or slab), but not NaN
        if len(lo) != len(hi) or any(not h > l for l, h in zip(lo, hi)):
            raise DomainError("box must satisfy lo < hi componentwise")
        _check_finite(self.amp)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n(self):
        return len(self.lo)

    def __call__(self, pts):
        pts = _as_points(pts, self.n)
        inside = np.all((pts >= np.asarray(self.lo)) & (pts <= np.asarray(self.hi)), axis=-1)
        return self.amp * inside.astype(float)

    def lp_norm(self, p):
        if p == math.inf:
            return abs(self.amp)
        vol = float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))
        return abs(self.amp) * vol ** (1.0 / p)


@dataclass(frozen=True)
class PolynomialGaussian(SourceFunction):
    """amp * prod_j (y_j - c_j)^{k_j} * exp(-|y - c|^2 / (4 spread))."""

    center: tuple
    spread: float
    powers: tuple
    amp: float = 1.0

    def __post_init__(self):
        if not self.spread > 0:
            raise DomainError("spread must be positive")
        center = tuple(float(v) for v in np.atleast_1d(self.center))
        powers = tuple(int(k) for k in np.atleast_1d(self.powers))
        if len(powers) != len(center) or any(k < 0 for k in powers):
            raise DomainError("powers must be nonnegative ints matching the dimension")
        _check_finite(self.spread, self.amp, *center)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "powers", powers)

    @property
    def n(self):
        return len(self.center)

    def __call__(self, pts):
        pts = _as_points(pts, self.n)
        d = pts - np.asarray(self.center)
        poly = np.ones(pts.shape[0])
        for j, k in enumerate(self.powers):
            if k:
                poly = poly * d[:, j] ** k
        return self.amp * poly * np.exp(-np.einsum("ij,ij->i", d, d) / (4.0 * self.spread))

    def lp_norm(self, p):
        """The L^p norm in closed form, in logs: FloatOverflow only where it exceeds float64."""
        if self.amp == 0.0:
            return 0.0
        log_norm = math.log(abs(self.amp))
        for k in self.powers:
            if p == math.inf:
                # per-axis maximum of |z|^k e^{-z^2/(4 spread)} at z^2 = 2 k spread
                if k:
                    log_norm += 0.5 * k * (math.log(2.0 * self.spread * k) - 1.0)
            else:
                m = 0.5 * (p * k + 1.0)
                log_norm += (math.lgamma(m) + m * math.log(4.0 * self.spread / p)) / p
        if log_norm > LOG_FLOAT_MAX:
            raise FloatOverflow(f"polygauss L^{p} norm e^{log_norm:.6g} overflows float64")
        return math.exp(log_norm)

    def gaussian_factor(self):
        return self.center, self.spread, sum(self.powers)


@dataclass(frozen=True)
class ConstantData(SourceFunction):
    """Spatially constant data; only the sup norm is finite (unless zero)."""

    value: float
    dim: int = 1

    def __post_init__(self):
        _check_finite(self.value)

    @property
    def n(self):
        return self.dim

    def __call__(self, pts):
        pts = _as_points(pts, self.n)
        return np.full(pts.shape[0], float(self.value))

    def lp_norm(self, p):
        if self.value == 0.0:
            return 0.0
        if p == math.inf:
            return abs(self.value)
        return math.inf


class GridData(SourceFunction):
    """Uniform-grid samples with multilinear interpolation, zero outside.

    The support box runs from origin to origin + spacing * (dims - 1). The
    solvers integrate this interpolant cell by cell, where it is a
    polynomial, so a solve answers for the interpolant, not for the
    function the grid samples.
    L^p norms (finite p) integrate the interpolant by midpoint rules at
    three refinement levels with Richardson extrapolation; the relative
    error estimate of the most recent finite-p norm is stored in
    norm_error_estimate.
    """

    def __init__(self, origin, spacing, values):
        values = np.asarray(values, dtype=float)
        origin = np.atleast_1d(np.asarray(origin, dtype=float))
        spacing = np.atleast_1d(np.asarray(spacing, dtype=float))
        if values.ndim != origin.shape[0] or origin.shape != spacing.shape:
            raise DomainError("grid origin/spacing/values dimensions disagree")
        if np.any(spacing <= 0):
            raise DomainError("grid spacing must be positive")
        if any(s < 2 for s in values.shape):
            raise DomainError("grid needs at least 2 samples per axis")
        if not np.all(np.isfinite(values)):
            raise DomainError("grid samples must be finite")
        _check_finite(*origin, *spacing)
        self.origin = origin
        self.spacing = spacing
        self.values = values
        self.norm_error_estimate = None
        self._norm_cache = {}

    @property
    def n(self):
        return self.origin.shape[0]

    def cell_centers(self, refine):
        """Centres of the cells after splitting each cell into refine^n, as (m, n) points."""
        step = self.spacing / refine
        return tensor_nodes([
            self.origin[j] + step[j] * (np.arange((self.values.shape[j] - 1) * refine) + 0.5)
            for j in range(self.n)
        ])

    def __call__(self, pts):
        pts = _as_points(pts, self.n)
        rel = (pts - self.origin) / self.spacing
        dims = np.asarray(self.values.shape)
        inside = np.all((rel >= 0.0) & (rel <= dims - 1), axis=-1)
        rel = np.clip(rel, 0.0, (dims - 1) * (1 - 1e-16))
        base = np.minimum(rel.astype(int), dims - 2)
        frac = rel - base
        out = np.zeros(pts.shape[0])
        for corner in range(1 << self.n):
            idx = []
            weight = np.ones(pts.shape[0])
            for j in range(self.n):
                bit = (corner >> j) & 1
                idx.append(base[:, j] + bit)
                weight = weight * (frac[:, j] if bit else 1.0 - frac[:, j])
            out += weight * self.values[tuple(idx)]
        return np.where(inside, out, 0.0)

    def _midpoint_power_integral(self, p, refine):
        """Midpoint rule for |interpolant|^p at a given cell refinement."""
        vol = float(np.prod(self.spacing / refine))
        return float(np.sum(np.abs(self(self.cell_centers(refine))) ** p)) * vol

    def lp_norm(self, p):
        if p == math.inf:
            # the multilinear interpolant attains its extremes at nodes
            return float(np.abs(self.values).max())
        if p not in self._norm_cache:
            i1 = self._midpoint_power_integral(p, 1)
            i2 = self._midpoint_power_integral(p, 2)
            i4 = self._midpoint_power_integral(p, 4)
            e1 = (4.0 * i2 - i1) / 3.0
            e2 = (4.0 * i4 - i2) / 3.0
            value = e2 ** (1.0 / p)
            estimate = abs(e2 - e1) / (p * max(e2, 1e-300)) if value > 0.0 else 0.0
            self._norm_cache[p] = (value, estimate)
        value, self.norm_error_estimate = self._norm_cache[p]
        return value


def write_grid(path, grid: GridData) -> None:
    """Write GridData in the binary grid format (little-endian).

    Layout: magic "PBGR", version u32, n u32, dims n*u32, origin n*f64,
    spacing n*f64, then row-major float64 samples.
    """
    n = grid.n
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<II", GRID_VERSION, n))
        fh.write(struct.pack(f"<{n}I", *grid.values.shape))
        fh.write(struct.pack(f"<{n}d", *grid.origin))
        fh.write(struct.pack(f"<{n}d", *grid.spacing))
        fh.write(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def read_grid(path) -> GridData:
    """Read the binary grid format; raises MalformedGridFile on mismatch."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != GRID_MAGIC:
        raise MalformedGridFile(f"bad magic {blob[:4]!r}")
    try:
        version, n = struct.unpack_from("<II", blob, 4)
        if version != GRID_VERSION:
            raise MalformedGridFile(f"unsupported version {version}")
        if not 1 <= n <= 8:
            raise MalformedGridFile(f"dimension {n} out of range")
        off = 12
        dims = struct.unpack_from(f"<{n}I", blob, off)
        off += 4 * n
        origin = struct.unpack_from(f"<{n}d", blob, off)
        off += 8 * n
        spacing = struct.unpack_from(f"<{n}d", blob, off)
        off += 8 * n
        count = int(np.prod(dims))
        if len(blob) != off + 8 * count:
            raise MalformedGridFile("payload size does not match dims")
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
    except struct.error as exc:
        raise MalformedGridFile(f"truncated grid file: {exc}") from exc
    try:
        return GridData(np.asarray(origin), np.asarray(spacing), data.reshape(dims).copy())
    except DomainError as exc:
        raise MalformedGridFile(str(exc)) from exc


class SpaceTimeSource:
    """Base class for forcing data f: R^n x (0, T) -> R.

    Custom forcing implements n, __call__ and lp_norm (sup_norm(t) must be
    finite for the Duhamel solver). __call__(pts, tau) takes points of
    shape (m, n) and either one time tau for all of them or an array of m
    times, one per row, and returns the m values. An n = 1 forcing with
    kinks (points where it is not smooth) names them in spatial_kinks(tau),
    for one scalar tau; the Duhamel solver then hands __call__ all the
    nodes of a panel at once, with their forcing times.
    """

    n: int

    def __call__(self, pts: np.ndarray, tau) -> np.ndarray:
        raise NotImplementedError

    def lp_norm(self, p: float, t: float) -> float:
        """Norm over R^n x (0, t): space-time L^p, or ess-sup for p = inf."""
        raise NotImplementedError

    def sup_norm(self, t: float) -> float:
        return self.lp_norm(math.inf, t)

    def spatial_kinks(self, tau: float):
        """Locations (n = 1 only) where f(., tau) is not smooth; default none."""
        return ()


class TimeInvariantForcing(SpaceTimeSource):
    """f(y, tau) = g(y) for a spatial source g; tau, a scalar or one per row, is ignored."""

    def __init__(self, profile: SourceFunction):
        self.profile = profile

    @property
    def n(self):
        return self.profile.n

    def __call__(self, pts, tau):
        return self.profile(pts)

    def lp_norm(self, p, t):
        if p == math.inf:
            return self.profile.sup_norm()
        return t ** (1.0 / p) * self.profile.lp_norm(p)
