"""Independent oracles and sharpness demonstrations.

Everything here recomputes quantities the closed forms predict, without
using those closed forms: kernel values enter only through pointwise
evaluation, and the integrals are done by quadrature in rotated/whitened
coordinates. The extremal data built from the duality equality condition
(sign/power transform of the kernel gradient) certifies sharpness through
attainment ratios.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DivergentIntegral, DomainError, QuadratureFailure, UnsupportedData
from .kernel import FundamentalSolution, ProblemSpec
from .mathcore import SpdMatrix
from .quadrature import (
    TRUNCATION_RADIUS,
    hermite_rule,
    hermite_tensor,
    panel_edges,
    panel_nodes,
    row_blocks,
)
from .sharp_constants import (
    BoundQuery,
    conjugate_exponent,
    evaluate_query,
    sharp_coefficient_hom,
    sharp_coefficient_nonhom,
    sphere_integral,
)
from .solver import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    gradient_homogeneous,
    gradient_nonhomogeneous,
    solve_homogeneous,
)
from .sources import SourceFunction, SpaceTimeSource

ORACLE_MAX_DIM = 3
# Node scale factor for the mass oracle; deliberately != 1 so the rule is a
# genuine quadrature of kernel values rather than a weight-sum identity.
MASS_NODE_SCALE = 0.8


def random_problem(rng: np.random.Generator, n: int, horizon: float = 8.0) -> ProblemSpec:
    """Fixed-seed random instance: A = Q diag(lam) Q^T with log-uniform
    lam in [0.25, 4], drift uniform in [-2, 2]^n, reaction uniform in [-1, 1]."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    lam = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=n))
    return ProblemSpec(
        diffusion=SpdMatrix((q * lam) @ q.T),
        drift=rng.uniform(-2.0, 2.0, size=n),
        reaction=float(rng.uniform(-1.0, 1.0)),
        horizon=horizon,
    )


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def mass_quadrature_oracle(kernel: FundamentalSolution, t: float) -> float:
    """Integral of the kernel over R^n by tensor Gauss-Hermite quadrature of order 32.

    Nodes are placed on the kernel's own scale but shrunk by
    MASS_NODE_SCALE, so the integrand seen by the rule is a genuine
    Gaussian profile: any mis-scaled exponent or prefactor in the kernel
    evaluation changes the result. Order 32 meets e^{ct} within 1e-14 at
    n <= 3. The 32^n nodes run in row blocks (row_blocks) over the first
    coordinate, each generated from the 1-D rule in hermite_tensor's order
    and with its left-to-right weight products, so no n-D tensor is built
    or cached.
    """
    n = kernel.n
    if n > ORACLE_MAX_DIM:
        raise UnsupportedData(f"mass oracle supports n <= {ORACLE_MAX_DIM}")
    x, w = hermite_rule(32)
    scale = 2.0 * math.sqrt(t) * MASS_NODE_SCALE
    total = 0.0
    # blocks of the first coordinate's nodes, each with the whole tensor of the others
    for block in row_blocks(x.size, x.size ** (n - 1) * n):
        grids = np.meshgrid(x[block], *[x] * (n - 1), indexing="ij")
        xi = np.stack([g.reshape(-1) for g in grids], axis=-1)
        weights = w[block]
        for _ in range(n - 1):
            weights = np.multiply.outer(weights, w)
        weights = weights.reshape(-1)
        pts = -t * kernel.spec.drift + scale * (xi @ kernel.sqrt)
        vals = kernel.value(pts, t)
        q = np.einsum("ij,ij->i", xi, xi)
        total += np.exp(np.log(weights) + q) @ vals
    jac = scale**n * kernel.det_sqrt
    return float(jac * total)


def _rotation_to_axis(v: np.ndarray) -> np.ndarray:
    """Orthogonal Q (Householder) whose first column is parallel to v.

    Uses the sign convention w = u + sign(u_1) e_1, which never cancels,
    so the alignment stays exact even when v already points along the
    first axis (the split panels must sit exactly on the sign surface).
    """
    n = v.shape[0]
    e = np.zeros(n)
    e[0] = 1.0
    u = v / np.linalg.norm(v)
    w = u + e if u[0] >= 0 else u - e
    w = w / np.linalg.norm(w)
    return np.eye(n) - 2.0 * np.outer(w, w)


def _directional_kink_frame(kernel: FundamentalSolution, direction: np.ndarray, t: float):
    """Rotated frame for integrating |(grad G, l)|^q over R^n, n >= 2.

    Returns (Q, conditional_shift, conditional_chol): in z = Q^T (y + t b)
    coordinates the integrand's sign surface is exactly {z_1 = 0}, and for
    fixed z_1 the kernel's conditional Gaussian over the remaining
    coordinates has center conditional_shift * z_1 and covariance factor
    2 sqrt(t) * conditional_chol.
    """
    normal = kernel.inverse @ direction
    q_rot = _rotation_to_axis(normal)
    b_mat = q_rot.T @ kernel.inverse @ q_rot
    b22 = b_mat[1:, 1:]
    b21 = b_mat[1:, 0]
    shift = -np.linalg.solve(b22, b21)
    chol = np.linalg.cholesky(np.linalg.inv(b22))
    return q_rot, shift, chol


def kernel_grad_power_integral(kernel: FundamentalSolution, p_conj: float, direction, t):
    """Integral over R^n of |(grad G(y, t), l)|^{p'} dy, by quadrature.

    The outer variable runs along the direction where the integrand
    changes sign (Gauss-Legendre panels graded toward that split); the
    remaining coordinates are integrated by Gauss-Hermite against the
    kernel's conditional Gaussian, of order 32 for p' <= 2 and 96 above,
    where the integrand's Gaussian is narrower than the rule's weight.
    Kernel gradients enter as black-box point evaluations, at n >= 2 in row
    blocks of the outer nodes (row_blocks). t may also be an array of
    times, with one integral per time: at n = 1 they take one kernel call
    (callers hand in times a block at a time), at n >= 2 one pass each.
    """
    n = kernel.n
    if n > ORACLE_MAX_DIM:
        raise UnsupportedData(f"gradient norm oracle supports n <= {ORACLE_MAX_DIM}")
    ell = np.asarray(direction, dtype=float).reshape(n)
    if n == 1:
        out = _grad_power_integral_1d(kernel, p_conj, ell, np.atleast_1d(t))
        return out if np.ndim(t) else float(out[0])
    if np.ndim(t):
        return np.array([kernel_grad_power_integral(kernel, p_conj, ell, s) for s in t])
    q_rot, shift, chol = _directional_kink_frame(kernel, ell, t)
    sigma = 2.0 * math.sqrt(t * float(kernel.dec.eigenvalues[-1]))
    radius = TRUNCATION_RADIUS * sigma
    z1, w1 = panel_nodes(panel_edges(-radius, radius, kinks=(0.0,)), order=12)
    xi, wx = hermite_tensor(32 if p_conj <= 2.0 else 96, n - 1)
    qx = np.einsum("ij,ij->i", xi, xi)
    total_wx = np.exp(np.log(wx) + qx)
    rest = 2.0 * math.sqrt(t) * (xi @ chol.T)
    # y = center + Q z with z = (z1, shift z1 + rest), an outer sum over (outer, inner)
    inner = rest @ q_rot[:, 1:].T - t * kernel.spec.drift
    along = q_rot[:, 0] + q_rot[:, 1:] @ shift
    sums = np.empty(z1.size)
    for block in row_blocks(z1.size, xi.shape[0] * n):
        pts = inner[None, :, :] + z1[block, None, None] * along
        vals = np.abs(kernel.gradient(pts.reshape(-1, n), t) @ ell) ** p_conj
        sums[block] = vals.reshape(-1, xi.shape[0]) @ total_wx
    jac = (2.0 * math.sqrt(t)) ** (n - 1) * float(np.prod(np.diag(chol)))
    return float(w1 @ (jac * sums))


@lru_cache(maxsize=1)
def _window_rule():
    """Order-12 Gauss-Legendre panels on +- TRUNCATION_RADIUS, graded toward 0.

    The n = 1 oracles scale it by each kernel time's sigma onto the window
    around the kernel's center, where their integrands change sign.
    """
    edges = panel_edges(-TRUNCATION_RADIUS, TRUNCATION_RADIUS, kinks=(0.0,))
    nodes, weights = panel_nodes(edges, order=12)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _grad_power_integral_1d(kernel, p_conj, ell, t):
    """kernel_grad_power_integral at n = 1 for an array of times, in one kernel call."""
    z, w = _window_rule()
    sigma = 2.0 * np.sqrt(t * float(kernel.dec.eigenvalues[-1]))
    pts = np.outer(sigma, z) - (t * kernel.spec.drift[0])[:, None]
    vals = np.abs(np.dot(kernel.gradient(pts.reshape(-1, 1), np.repeat(t, z.size)), ell)) ** p_conj
    return sigma * (vals.reshape(pts.shape) @ w)


def kernel_grad_norm_oracle(kernel, p_conj, direction, t) -> float:
    """L^{p'} norm over R^n of the directional kernel gradient."""
    return kernel_grad_power_integral(kernel, p_conj, direction, t) ** (1.0 / p_conj)


def _spacetime_power_integral(kernel, p_conj, t, integrand_power):
    """Integral over eta in (0, t) of a spatial power integral, by Gauss-Legendre in v.

    The time variable is substituted eta = v^{1/(1-s)} with
    s = (n(p'-1)+p')/2, which turns the eta^{-s} endpoint blowup into a
    bounded analytic integrand; 4 uniform Gauss-Legendre panels of order
    20 in v (80 nodes) then converge spectrally. integrand_power(eta) takes
    an array of the nodes' kernel times and returns the spatial integral at
    each. It is handed the nodes in row blocks (row_blocks) sized for one
    window rule (_window_rule) of kernel rows per node, which is what the
    n = 1 integrands evaluate.
    """
    n = kernel.n
    s = 0.5 * (n * (p_conj - 1.0) + p_conj)
    if s >= 1.0:
        raise DivergentIntegral(
            f"spacetime gradient norm diverges: s = {s:.6g} >= 1 (requires p > n + 2)"
        )
    power = 1.0 / (1.0 - s)
    upper = t ** (1.0 - s)
    v_nodes, v_weights = panel_nodes(panel_edges(0.0, upper, base_panels=4), order=20)
    eta = v_nodes**power
    rows = _window_rule()[0].size
    spatial = np.concatenate([integrand_power(eta[block]) for block in row_blocks(eta.size, rows)])
    return float((v_weights * power * v_nodes ** (power - 1.0)) @ spatial)


def spacetime_grad_norm_oracle(kernel, p_conj, direction, t) -> float:
    """L^{p'} norm over R^n x (0, t) of the directional kernel gradient."""
    if kernel.n > 2:
        raise UnsupportedData("spacetime gradient norm oracle supports n <= 2")

    def spatial(eta):
        return kernel_grad_power_integral(kernel, p_conj, direction, eta)

    total = _spacetime_power_integral(kernel, p_conj, t, spatial)
    return total ** (1.0 / p_conj)


@dataclass(frozen=True)
class ExtremalTarget:
    """Where and for which exponent the duality equality is to be attained.

    mollify > 0 replaces the sign profile by tanh(k / mollify); it is
    required for p = inf in the nonhomogeneous problem (keeps the data
    Hoelder continuous) and optional for p = inf in the homogeneous one.
    """

    x0: tuple
    t0: float
    p: float
    direction: tuple
    mollify: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in np.atleast_1d(self.x0)))
        object.__setattr__(self, "direction", tuple(float(v) for v in np.atleast_1d(self.direction)))
        ell = np.asarray(self.direction)
        if abs(float(ell @ ell) - 1.0) > 2e-12:
            raise DomainError("direction must be a unit vector")
        if self.mollify < 0:
            raise DomainError("mollify must be >= 0")
        if not self.t0 > 0:
            raise DomainError("t0 must be positive")
        if self.p != math.inf:
            if not self.p > 1.0:
                raise DomainError("finite-p extremal data requires p > 1")
            if self.mollify != 0.0:
                raise DomainError("mollification only applies to p = inf")


def _extremal_profile(kernel, target: ExtremalTarget, normalizer: float, pts, eta):
    """_extremal_values at the points y, with k(y) = (grad G(x0 - y, eta), l).

    eta is one kernel time or one per point. The products with l are np.dot: at n = 1 @ takes
    a slow non-BLAS path for an (m, 1) batch, and the bits agree.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ell = np.asarray(target.direction)
    k = np.dot(kernel.gradient(np.asarray(target.x0)[None, :] - pts, eta), ell)
    return _extremal_values(target, normalizer, k)


def _extremal_values(target: ExtremalTarget, normalizer: float, k):
    """-sign(k) |k|^{p'-1} / Z of the directional kernel gradients k.

    For p = inf the power drops out: -sign(k), or -tanh(k / mollify) when
    mollified.
    """
    if target.p == math.inf:
        if target.mollify > 0:
            return -np.tanh(k / target.mollify)
        return -np.sign(k)
    pc = conjugate_exponent(target.p)
    return -np.sign(k) * np.abs(k) ** (pc - 1.0) / normalizer


class ExtremalInitialData(SourceFunction):
    """Initial data attaining the homogeneous duality equality.

    phi*(y) = -sign(k(y)) |k(y)|^{p'-1} / Z with k(y) = (grad G(x0-y, t0), l)
    and Z chosen so the L^p norm is 1; for p = inf the power drops out and
    the profile is -sign(k) (or -tanh(k/mollify) when mollified).
    """

    def __init__(self, kernel, target: ExtremalTarget, normalizer: float):
        self.kernel = kernel
        self.target = target
        self.normalizer = normalizer
        self.n = kernel.n

    def __call__(self, pts):
        return _extremal_profile(self.kernel, self.target, self.normalizer, pts, self.target.t0)

    def kinks_1d(self):
        if self.n != 1:
            return ()
        # the kernel gradient changes sign where x0 - y + t0 b = 0
        return (self.target.x0[0] + self.target.t0 * self.kernel.spec.drift[0],)

    def _scan_points(self):
        center = np.asarray(self.target.x0) + self.target.t0 * self.kernel.spec.drift
        sigma = 2.0 * math.sqrt(self.target.t0 * float(self.kernel.dec.eigenvalues[-1]))
        offsets = np.linspace(-8.0, 8.0, 4001)
        ell = np.asarray(self.target.direction)
        return center[None, :] + sigma * np.outer(offsets, ell)

    def sup_norm(self):
        if self.target.p == math.inf and self.target.mollify == 0:
            return 1.0  # -sign(k); the solver asks for this on every evaluation
        # |phi*| increases with |k|, so the scan along l through the peak finds its sup
        return float(np.abs(self(self._scan_points())).max())

    def lp_norm(self, p):
        if p == math.inf:
            return self.sup_norm()
        if self.n != 1:
            raise UnsupportedData("extremal data norms are quadrature-based only for n = 1")
        center = self.target.x0[0] + self.target.t0 * self.kernel.spec.drift[0]
        sigma = 2.0 * math.sqrt(self.target.t0 * float(self.kernel.dec.eigenvalues[-1]))
        nodes, w = panel_nodes(
            panel_edges(center - 14 * sigma, center + 14 * sigma, kinks=self.kinks_1d())
        )
        vals = np.abs(self(nodes[:, None])) ** p
        return float(w @ vals) ** (1.0 / p)


def extremal_initial_data(kernel, target: ExtremalTarget) -> ExtremalInitialData:
    """Build the (unit L^p norm) extremal initial data for a target."""
    if target.p == math.inf:
        return ExtremalInitialData(kernel, target, normalizer=1.0)
    pc = conjugate_exponent(target.p)
    power = kernel_grad_power_integral(kernel, pc, target.direction, target.t0)
    return ExtremalInitialData(kernel, target, normalizer=power ** (1.0 / target.p))


def attainment_ratio_hom(kernel, target: ExtremalTarget,
                         quad: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """|du/dl(x0, t0)| / (K(p, l, t0) ||phi*||_p) for the extremal data.

    Equals 1 up to quadrature error; strictly below 1 for any other data.
    """
    data = extremal_initial_data(kernel, target)
    ell = np.asarray(target.direction)
    grad = gradient_homogeneous(kernel, data, np.asarray(target.x0), target.t0, quad)
    coeff = sharp_coefficient_hom(kernel, target.p, target.t0, ell).value
    norm = data.lp_norm(target.p) if target.p != math.inf else data.sup_norm()
    return float(abs(grad @ ell) / (coeff * norm))


class ExtremalForcing(SpaceTimeSource):
    """Forcing attaining the nonhomogeneous duality equality.

    f*(y, tau) = -sign(k) |k|^{p'-1} / Z with
    k(y, tau) = (grad G(x0-y, t0-tau), l) for tau < t0 and 0 afterwards.
    For p = inf the profile must be mollified: -tanh(k / mollify).
    """

    def __init__(self, kernel, target: ExtremalTarget, normalizer: float):
        if target.p == math.inf and target.mollify <= 0:
            raise DomainError("p = inf forcing requires mollify > 0 (Hoelder continuity)")
        self.kernel = kernel
        self.target = target
        self.normalizer = normalizer
        self.n = kernel.n

    def __call__(self, pts, tau):
        # tau is one time or one per row; rows at tau >= t0 are exactly 0
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        tau = np.asarray(tau, dtype=float)
        after = tau >= self.target.t0
        if not after.any():
            return _extremal_profile(self.kernel, self.target, self.normalizer, pts,
                                     self.target.t0 - tau)
        out = np.zeros(pts.shape[0])
        before = ~after
        if before.any():
            out[before] = _extremal_profile(self.kernel, self.target, self.normalizer,
                                            pts[before], self.target.t0 - tau[before])
        return out

    def spatial_kinks(self, tau):
        if self.n != 1 or tau >= self.target.t0:
            return ()
        eta = self.target.t0 - tau
        return (self.target.x0[0] + eta * self.kernel.spec.drift[0],)

    def lp_norm(self, p, t):
        if p == math.inf:
            # |k| blows up as tau -> t0, so the mollified sup is exactly 1
            return 1.0
        if p != self.target.p or t != self.target.t0:
            raise UnsupportedData("extremal forcing norm implemented at its target only")
        return 1.0  # by construction of the normalizer; certified by tests

    def sup_norm(self, t):
        if self.target.p == math.inf:
            return 1.0
        return math.inf  # |k|^{p'-1} is unbounded as tau -> t0


def extremal_forcing(kernel, target: ExtremalTarget) -> ExtremalForcing:
    """Build the extremal forcing (unit space-time L^p norm) for a target."""
    if target.p == math.inf:
        return ExtremalForcing(kernel, target, normalizer=1.0)
    n = kernel.n
    if not target.p > n + 2:
        raise DomainError(f"nonhomogeneous extremal requires p > n + 2 = {n + 2}")
    pc = conjugate_exponent(target.p)
    power = _spacetime_power_integral(
        kernel, pc, target.t0,
        lambda eta: kernel_grad_power_integral(kernel, pc, target.direction, eta),
    )
    return ExtremalForcing(kernel, target, normalizer=power ** (1.0 / target.p))


def attainment_ratio_nonhom(kernel, target: ExtremalTarget,
                            quad: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """|du/dl(x0, t0)| / (C(p, l, t0) ||f*||_{p, t0}) for the extremal forcing.

    Finite p uses a dedicated nested quadrature (the forcing is unbounded
    near tau = t0, outside the solver's bounded-data contract); the
    mollified p = inf family goes through the regular solver pipeline.
    """
    if kernel.n != 1:
        raise UnsupportedData("nonhomogeneous attainment implemented for n = 1")
    ell = np.asarray(target.direction)
    forcing = extremal_forcing(kernel, target)
    coeff = sharp_coefficient_nonhom(kernel, target.p, target.t0, ell).value
    if target.p == math.inf:
        grad = gradient_nonhomogeneous(kernel, forcing, np.asarray(target.x0), target.t0, quad)
        return float(abs(grad @ ell) / (coeff * forcing.lp_norm(math.inf, target.t0)))
    pc = conjugate_exponent(target.p)

    nodes, w = _window_rule()

    def spatial(eta):
        # the offsets x0 - y of the nodes y = x0 + eta b + sigma z, formed directly: at
        # eta ~ 1e-20 the window is ~1e-10 wide, and y itself would round to ulp(x0)
        sigma = 2.0 * np.sqrt(eta * float(kernel.dec.eigenvalues[-1]))
        offsets = -(np.outer(sigma, nodes) + (eta * kernel.spec.drift[0])[:, None])
        k_vals = np.dot(kernel.gradient(offsets.reshape(-1, 1), np.repeat(eta, nodes.size)), ell)
        f_vals = _extremal_values(target, forcing.normalizer, k_vals)
        return sigma * ((k_vals * f_vals).reshape(offsets.shape) @ w)

    integral = _spacetime_power_integral(kernel, pc, target.t0, spatial)
    return float(abs(integral) / (coeff * forcing.lp_norm(target.p, target.t0)))


@dataclass
class VerificationReport:
    """Outcome of one check: closed form vs oracle, plus attainment data."""

    check: str
    closed_form: float
    oracle: float
    rel_err: float
    ratio: Optional[float]
    passed: bool
    config: dict = field(default_factory=dict)

    def record(self) -> dict:
        """The printed fields of the report (config stays internal)."""
        return {
            "check": self.check,
            "closed_form": self.closed_form,
            "oracle": self.oracle,
            "rel_err": self.rel_err,
            "ratio": self.ratio,
            "passed": self.passed,
        }

    def json_line(self) -> str:
        return json.dumps(self.record())


def make_report(check, closed_form, oracle, tolerance, ratio=None, ratio_floor=None,
                config=None) -> VerificationReport:
    rel_err = abs(closed_form - oracle) / max(abs(closed_form), 1e-300)
    passed = rel_err <= tolerance
    if ratio_floor is not None:
        passed = passed and ratio is not None and ratio >= ratio_floor
    cfg = {"tolerance": tolerance}
    if ratio_floor is not None:
        cfg["ratio_floor"] = ratio_floor
    if config:
        cfg.update(config)
    return VerificationReport(check, float(closed_form), float(oracle), float(rel_err),
                              None if ratio is None else float(ratio), bool(passed), cfg)


def b_invariance_check(kernel_zero_drift, kernel_with_drift, query: BoundQuery,
                       tolerance: float = 1e-8) -> VerificationReport:
    """Drift must not enter the bounds: closed-form constants bitwise
    equal across drift vectors, quadrature norms equal within tolerance
    (the integrands only shift in space)."""
    c0 = evaluate_query(kernel_zero_drift, query).value
    cb = evaluate_query(kernel_with_drift, query).value
    ell = np.asarray(query.direction)
    pc = conjugate_exponent(query.p)
    if query.kind == "hom":
        o0 = kernel_grad_norm_oracle(kernel_zero_drift, pc, ell, query.t)
        ob = kernel_grad_norm_oracle(kernel_with_drift, pc, ell, query.t)
    else:
        o0 = spacetime_grad_norm_oracle(kernel_zero_drift, pc, ell, query.t)
        ob = spacetime_grad_norm_oracle(kernel_with_drift, pc, ell, query.t)
    report = make_report("b_invariance", o0, ob, tolerance,
                         config={"constants_bitwise_equal": c0 == cb})
    report.passed = report.passed and c0 == cb
    return report


def max_principle_check(kernel, data: SourceFunction, samples,
                        quad: QuadratureConfig = DEFAULT_QUADRATURE,
                        tolerance: float = 1e-6) -> VerificationReport:
    """|u(x, t)| <= e^{ct} sup|phi| over the given sample points.

    A sample where the solver raises QuadratureFailure has no u to test; it
    is counted in config["unresolved_samples"], and the check fails when
    no sample is resolved. Only custom data (the kernel-frame rule) can be
    unresolved: the shipped suite's Gaussian data takes the exact rule.
    """
    sup = data.sup_norm()
    worst_ratio = 0.0
    unresolved = 0
    for x, t in samples:
        try:
            u = solve_homogeneous(kernel, data, np.atleast_1d(x), t, quad)
        except QuadratureFailure:
            unresolved += 1
            continue
        bound = math.exp(kernel.spec.reaction * t) * sup
        worst_ratio = max(worst_ratio, abs(u) / bound)
    rel_err = max(0.0, worst_ratio - 1.0)
    return VerificationReport(
        "max_principle", 1.0, worst_ratio, rel_err, worst_ratio,
        rel_err <= tolerance and unresolved < len(samples),
        {"tolerance": tolerance, "unresolved_samples": unresolved},
    )


def pde_residual_order(kernel, rng, points: int = 20,
                       steps=(1e-2, 5e-3, 2.5e-3)) -> float:
    """Observed convergence order of the finite-difference PDE residual.

    Every stencil offset of every step is one block of rows of a single
    kernel call: a first pass over the stencils records the offsets, and a
    second reads the values back in the same order.
    """
    n = kernel.n
    a = kernel.spec.diffusion.entries
    b = kernel.spec.drift
    x, t = np.empty((points, n)), np.empty(points)
    for i in range(points):
        t[i] = rng.uniform(0.5, 2.0)
        xi = rng.uniform(-1.5, 1.5, size=n)
        x[i] = -t[i] * b + 2 * math.sqrt(t[i]) * (kernel.sqrt @ xi)

    def residual(h, g):
        e = h * np.eye(n)
        val = g()
        acc = (g(dt=h) - g(dt=-h)) / (2 * h) - kernel.spec.reaction * val
        for j in range(n):
            plus, minus = g(e[j]), g(-e[j])
            acc -= a[j, j] * (plus - 2 * val + minus) / h**2
            acc -= b[j] * (plus - minus) / (2 * h)
            for m in range(j + 1, n):
                mixed = (
                    g(e[j] + e[m]) - g(e[j] - e[m]) - g(e[m] - e[j]) + g(-e[j] - e[m])
                ) / (4 * h**2)
                acc -= 2 * a[j, m] * mixed
        return np.mean(np.abs(acc))

    rows = []

    def record(dx=0.0, dt=0.0):
        rows.append((x + dx, t + dt))
        return np.zeros(points)

    for h in steps:
        residual(h, record)
    values = kernel.value(np.concatenate([y for y, _ in rows]), np.concatenate([s for _, s in rows]))
    blocks = iter(values.reshape(len(rows), points))
    sums = [residual(h, lambda dx=0.0, dt=0.0: next(blocks)) for h in steps]
    return math.log(sums[0] / sums[-1]) / math.log(steps[0] / steps[-1])


def sphere_surface_oracle(n: int, p_conj: float, v) -> float:
    """Surface quadrature of |(e, v)|^{p'} over the unit sphere (n = 2, 3).

    Rotates v to the pole, then integrates with kink-split Gauss-Legendre
    panels in the polar angle; at n = 3 the azimuth takes the 64-point
    trapezoid rule, the 64 x theta grid in row blocks of azimuths
    (row_blocks).
    """
    v = np.asarray(v, dtype=float)
    rot = _rotation_to_axis(v)
    if n == 2:
        nodes, w = panel_nodes(
            panel_edges(0.0, 2.0 * math.pi, kinks=(0.5 * math.pi, 1.5 * math.pi))
        )
        e = np.stack([np.cos(nodes), np.sin(nodes)], axis=1) @ rot.T
        return float(w @ np.abs(e @ v) ** p_conj)
    if n == 3:
        # polar axis along the rotated image of v so the |.|^{p'} kink
        # lies exactly on the theta = pi/2 panel split
        theta, w_th = panel_nodes(panel_edges(0.0, math.pi, kinks=(0.5 * math.pi,)))
        phi = np.linspace(0.0, 2.0 * math.pi, 65)[:-1, None]
        sin_th = np.sin(theta)
        # (e, v) over the 64 x theta grid: e = rot (cos theta, sin theta cos phi, sin theta sin phi)
        rv = rot.T @ v
        pole, weights = rv[0] * np.cos(theta), w_th * sin_th
        sums = np.empty(phi.size)
        for block in row_blocks(phi.size, theta.size):
            dots = pole + sin_th * (rv[1] * np.cos(phi[block]) + rv[2] * np.sin(phi[block]))
            sums[block] = np.abs(dots) ** p_conj @ weights
        return 2.0 * math.pi / 64 * float(sums.sum())
    raise UnsupportedData("surface oracle implemented for n in {2, 3}")


def _duality_hom_check(kernel, p, t, ell, perturb):
    cf = sharp_coefficient_hom(kernel, p, t, ell).value * (1.0 + perturb)
    oracle = kernel_grad_norm_oracle(kernel, conjugate_exponent(p), ell, t)
    return make_report("duality", cf, oracle, 1e-6)


def _duality_nonhom_check(kernel, p, t, ell, perturb):
    cf = sharp_coefficient_nonhom(kernel, p, t, ell).value * (1.0 + perturb)
    oracle = spacetime_grad_norm_oracle(kernel, conjugate_exponent(p), ell, t)
    return make_report("duality", cf, oracle, 1e-5)


def default_checks(seed: int = 20250810, perturb: float = 0.0,
                   quad: QuadratureConfig = DEFAULT_QUADRATURE):
    """The named verification suite: (name, thunk) pairs sorted by name.

    Deterministic for a given seed; perturb != 0 multiplies every
    closed-form constant entering a comparison by (1 + perturb), the
    attainment checks' exact ratio 1 included: the sensitivity/test mode,
    expected to make the duality and attainment checks fail.
    """
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, fn):
        checks.append((name, fn))

    # kernel mass: quadrature vs e^{ct}
    for n in (1, 2, 3):
        for i in range(2):
            kernel = FundamentalSolution(random_problem(rng, n))
            t = float(rng.uniform(0.2, 3.0))
            add(
                f"mass/n{n}/s{i}",
                lambda kernel=kernel, t=t: make_report(
                    "mass", kernel.total_mass(t) * (1.0 + perturb),
                    mass_quadrature_oracle(kernel, t), 1e-10,
                ),
            )

    # finite-difference PDE residual order
    for n in (1, 2):
        kernel = FundamentalSolution(random_problem(rng, n))
        order_rng_seed = int(rng.integers(0, 2**31))
        add(
            f"pde_residual/n{n}",
            lambda kernel=kernel, s=order_rng_seed: make_report(
                "pde_residual", 2.0,
                pde_residual_order(kernel, np.random.default_rng(s)), 0.11,
            ),
        )

    # Hoelder duality, homogeneous problem
    for n in (1, 2):
        for p in (2.0, 4.0, 8.0, math.inf):
            kernel = FundamentalSolution(random_problem(rng, n))
            ell = random_unit_vector(rng, n)
            t = float(rng.uniform(0.3, 2.0))
            tag = "inf" if p == math.inf else f"{p:g}"
            add(
                f"duality_hom/n{n}/p{tag}",
                lambda kernel=kernel, p=p, t=t, ell=ell: _duality_hom_check(
                    kernel, p, t, ell, perturb
                ),
            )

    # space-time duality, nonhomogeneous problem (n = 1)
    for p in (4.0, 6.0):
        kernel = FundamentalSolution(random_problem(rng, 1))
        t = float(rng.uniform(0.3, 2.0))
        add(
            f"duality_nonhom/p{p:g}",
            lambda kernel=kernel, p=p, t=t: _duality_nonhom_check(
                kernel, p, t, np.array([1.0]), perturb
            ),
        )

    # sup-forcing bound equals the space-time oracle at p' = 1
    kernel_ci = FundamentalSolution(random_problem(rng, 1))
    t_ci = float(rng.uniform(0.4, 2.0))
    add(
        "duality_nonhom/pinf_reduction",
        lambda: make_report(
            "duality",
            sharp_coefficient_nonhom(kernel_ci, math.inf, t_ci, np.array([1.0])).value
            * (1.0 + perturb),
            spacetime_grad_norm_oracle(kernel_ci, 1.0, np.array([1.0]), t_ci),
            1e-10,
        ),
    )

    # scaled-identity special cases and large-p limits
    a_iso = float(rng.uniform(0.5, 3.0))
    c_iso = float(rng.uniform(-1.0, 1.0))
    t_iso = float(rng.uniform(0.3, 2.0))
    kernel_iso = FundamentalSolution(
        ProblemSpec(SpdMatrix(np.eye(2) * a_iso), np.zeros(2), c_iso, 8.0)
    )

    def special_hom():
        cf = sharp_coefficient_hom(kernel_iso, math.inf, t_iso).value * (1.0 + perturb)
        literal = math.exp(c_iso * t_iso) / math.sqrt(a_iso * math.pi * t_iso)
        return make_report("special_case", cf, literal, 1e-12)

    def special_nonhom():
        from .mathcore import duhamel_time_integral

        cf = sharp_coefficient_nonhom(kernel_iso, math.inf, t_iso).value * (1.0 + perturb)
        literal = duhamel_time_integral(t_iso, 2, 1.0, c_iso) / math.sqrt(a_iso * math.pi)
        return make_report("special_case", cf, literal, 1e-12)

    add("special_case/hom_pinf", special_hom)
    add("special_case/nonhom_pinf", special_nonhom)

    def limit_hom():
        v_inf = sharp_coefficient_hom(kernel_iso, math.inf, t_iso).value
        v_big = sharp_coefficient_hom(kernel_iso, 1e4, t_iso).value
        return make_report("limit", v_inf * (1.0 + perturb), v_big, 1e-3)

    def limit_nonhom():
        v_inf = sharp_coefficient_nonhom(kernel_iso, math.inf, t_iso).value
        v_big = sharp_coefficient_nonhom(kernel_iso, 1e4, t_iso).value
        return make_report("limit", v_inf * (1.0 + perturb), v_big, 1e-3)

    add("limit/hom_pinf", limit_hom)
    add("limit/nonhom_pinf", limit_nonhom)

    def scaling_law():
        base = np.array([[1.2, 0.3], [0.3, 0.9]])
        ell = np.array([1.0, 0.0])
        k1 = FundamentalSolution(ProblemSpec(SpdMatrix(base), np.zeros(2), 0.0, 8.0))
        k4 = FundamentalSolution(ProblemSpec(SpdMatrix(4.0 * base), np.zeros(2), 0.0, 8.0))
        v1 = sharp_coefficient_hom(k1, math.inf, 1.0, ell).value * (1.0 + perturb)
        v4 = sharp_coefficient_hom(k4, math.inf, 1.0, ell).value
        return make_report("scaling", v1 / 2.0, v4, 1e-14)

    add("scaling/hom_pinf", scaling_law)

    # sharpness attainment
    kernel_att = FundamentalSolution(random_problem(rng, 1))
    x_att = float(rng.uniform(-0.5, 0.5))
    for p, tag in ((2.0, "p2"), (math.inf, "pinf")):
        add(
            f"attainment_hom/{tag}",
            lambda p=p: make_report(
                "attainment", 1.0 + perturb,
                attainment_ratio_hom(
                    kernel_att,
                    ExtremalTarget(x0=(x_att,), t0=0.9, p=p, direction=(1.0,)),
                    quad,
                ),
                1e-3,
            ),
        )
    add(
        "attainment_nonhom/p4",
        lambda: make_report(
            "attainment", 1.0 + perturb,
            attainment_ratio_nonhom(
                kernel_att,
                ExtremalTarget(x0=(x_att,), t0=0.8, p=4.0, direction=(1.0,)),
                quad,
            ),
            1e-3,
        ),
    )

    def mollified_family():
        unit = FundamentalSolution(ProblemSpec(SpdMatrix([[1.0]]), np.zeros(1), 0.0, 8.0))
        ratios = [
            attainment_ratio_nonhom(
                unit,
                ExtremalTarget(x0=(0.0,), t0=0.5, p=math.inf, direction=(1.0,), mollify=eps),
                quad,
            )
            for eps in (0.3, 0.1, 0.03)
        ]
        monotone = ratios[0] < ratios[1] < ratios[2]
        report = make_report(
            "attainment", 1.0 + perturb, ratios[-1], 1e-2, ratio=ratios[-1], ratio_floor=0.99,
            config={"ratios": ratios},
        )
        report.passed = report.passed and monotone
        return report

    add("attainment_nonhom/pinf_mollified", mollified_family)

    # drift invariance
    for kind in ("hom", "nonhom"):
        spec0 = random_problem(rng, 1)
        spec0 = ProblemSpec(spec0.diffusion, np.zeros(1), spec0.reaction, spec0.horizon)
        spec_b = ProblemSpec(
            spec0.diffusion, rng.uniform(-2, 2, 1), spec0.reaction, spec0.horizon
        )
        p = 2.0 if kind == "hom" else 4.0
        query = BoundQuery(p=p, t=float(rng.uniform(0.4, 1.5)), kind=kind, direction=(1.0,))
        add(
            f"b_invariance/{kind}",
            lambda spec0=spec0, spec_b=spec_b, query=query: b_invariance_check(
                FundamentalSolution(spec0), FundamentalSolution(spec_b), query
            ),
        )

    def b_invariance_attainment():
        spec0 = ProblemSpec(SpdMatrix([[1.4]]), np.zeros(1), -0.3, 8.0)
        spec_b = ProblemSpec(SpdMatrix([[1.4]]), np.array([1.7]), -0.3, 8.0)
        tgt = ExtremalTarget(x0=(0.2,), t0=0.7, p=2.0, direction=(1.0,))
        r0 = attainment_ratio_hom(FundamentalSolution(spec0), tgt, quad)
        rb = attainment_ratio_hom(FundamentalSolution(spec_b), tgt, quad)
        return make_report("b_invariance", r0, rb, 1e-4)

    add("b_invariance/attainment", b_invariance_attainment)

    # weak maximum principle
    from .sources import ConstantData, GaussianBump

    for i in range(2):
        n = 1 + i
        kernel = FundamentalSolution(random_problem(rng, n))
        data = GaussianBump(
            center=tuple(rng.uniform(-1, 1, n)),
            spread=float(rng.uniform(0.4, 1.5)),
            amp=float(rng.uniform(0.5, 2.0)),
        )
        samples = [(rng.uniform(-2, 2, n), float(rng.uniform(0.1, 3.0))) for _ in range(5)]
        add(
            f"max_principle/s{i}",
            lambda kernel=kernel, data=data, samples=samples: max_principle_check(
                kernel, data, samples, quad
            ),
        )

    def max_principle_equality():
        # constant data witnesses the best-possible coefficient e^{ct}
        kernel = FundamentalSolution(ProblemSpec(SpdMatrix([[1.0]]), np.zeros(1), -0.5, 8.0))
        report = max_principle_check(
            kernel, ConstantData(1.0), [(np.zeros(1), 0.5), (np.ones(1), 2.0)], quad
        )
        report.passed = report.passed and report.ratio > 1.0 - 1e-9
        return report

    add("max_principle/equality", max_principle_equality)

    # closed-form sphere integral vs surface quadrature
    for n in (2, 3):
        v = random_unit_vector(rng, n) * float(rng.uniform(0.5, 2.0))
        pc = float(rng.uniform(1.0, 2.5))
        add(
            f"sphere_oracle/n{n}",
            lambda n=n, v=v, pc=pc: make_report(
                "sphere",
                sphere_integral(n, pc, v) * (1.0 + perturb),
                sphere_surface_oracle(n, pc, v),
                1e-8,
            ),
        )

    checks.sort(key=lambda item: item[0])
    return checks


def run_checks(checks, jobs: int = 1):
    """Execute (name, thunk) pairs serially; reports keep the input (name) order.

    jobs is accepted for existing callers and ignored.
    """
    reports = [fn() for _, fn in checks]
    for (name, _), report in zip(checks, reports):
        report.check = name
    return reports
