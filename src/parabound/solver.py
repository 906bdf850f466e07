"""Point evaluation of u and grad u for both Cauchy problems.

Homogeneous problem: u(x, t) is the kernel convolved with the initial
data. The integral is whitened to xi = A^{-1/2}(x - y + t b)/(2 sqrt t),
which turns the kernel into the weight exp(-|xi|^2) and makes tensor
Gauss-Hermite the natural rule:

    u(x, t) = e^{ct} pi^{-n/2} * sum_i w_i phi(x + t b - 2 sqrt(t) A^{1/2} xi_i).

The rule is pruned (quadrature.pruned_hermite_tensor): nodes whose product
weight is at most 1e-18 of the total are dropped. Their mass D = sum w and
moment M = sum w |xi| are known, so with front = e^{ct} pi^{-n/2} what they
would add is at most front sup|phi| D for u and
front sup|phi| M ||A^{-1/2}||_2 / sqrt(t) for grad u; that bound joins
every Hermite error estimate (data with infinite sup takes the full rule).
The kept nodes come in +-xi pairs, so the gradient sums
w xi (phi(y+) - phi(y-)) over pairs and is exactly 0 for constant data.

Nonhomogeneous problem: Duhamel integral over kernel times t - tau. The
substitution t - tau = sigma^2 removes the (t - tau)^{-1/2} endpoint
behavior of the gradient integrand; composite Gauss-Legendre panels in
sigma then converge spectrally.

Every route produces an error estimate (coarser rule comparison) and
raises QuadratureFailure when it exceeds the configured target relative
to the solution scale. Grid-sampled data integrates by truncated
trapezoid over its support box instead of the Hermite rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    FloatOverflow,
    NonpositiveTime,
    QuadratureFailure,
    UnsupportedData,
)
from .kernel import FundamentalSolution
from .mathcore import LOG_FLOAT_MAX, spectral_norm_inv_sqrt
from .quadrature import (
    hermite_rule,
    hermite_tensor,
    legendre_rule,
    panel_edges,
    panel_nodes,
    pruned_hermite_tensor,
)
from .sources import GridData, SourceFunction, SpaceTimeSource

SOLVER_MAX_DIM = 3
# Largest tensor Hermite rule (order^n nodes) an escalation may reach.
_MAX_TENSOR_NODES = 2**21


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature knobs for the solvers and oracles."""

    hermite_order: int = 64
    time_panels: int = 48
    truncation_radius: float = 12.0
    target_rel_err: float = 1e-8

    def __post_init__(self):
        if self.hermite_order < 8:
            raise DomainError("hermite_order must be >= 8")
        if self.time_panels < 1 or self.truncation_radius <= 0 or self.target_rel_err <= 0:
            raise DomainError("quadrature configuration values must be positive")


DEFAULT_QUADRATURE = QuadratureConfig()


def _check_solver_args(kernel: FundamentalSolution, x, t: float):
    if kernel.n > SOLVER_MAX_DIM:
        raise UnsupportedData(f"solver quadrature supports n <= {SOLVER_MAX_DIM}")
    if not t > 0.0:
        raise NonpositiveTime(f"solver requires t > 0, got {t}")
    if t > kernel.spec.horizon:
        raise DomainError(f"t = {t} beyond the problem horizon T = {kernel.spec.horizon}")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (kernel.n,):
        raise DomainError(f"point has dimension {x.shape[0]}, expected {kernel.n}")
    return x, float(t)


def _check_float_range(kernel, t, want_gradient=False):
    """Reject nonzero data where e^{ct} or the kernel's peak value exceeds float64.

    Every route multiplies by one of the two, so no float answer exists.
    With want_gradient the peak of |grad G(., t)|,
    e^{log_prefactor} ||A^{-1/2}||_2 / sqrt(2 e t), must fit as well.
    """
    log_pref = kernel.log_prefactor(t)
    log_peak = max(kernel.spec.reaction * t, log_pref)
    if want_gradient:
        grad_factor = spectral_norm_inv_sqrt(kernel.dec) / math.sqrt(2.0 * math.e * t)
        log_peak = max(log_peak, log_pref + math.log(grad_factor))
    if log_peak > LOG_FLOAT_MAX:
        raise FloatOverflow(f"kernel factor e^{log_peak:.6g} overflows float64")


def _hermite_pass(kernel, data, x, t, order, want_gradient, sup):
    """One tensor Gauss-Hermite pass over the pruned rule, summed by +-xi pairs.

    Returns the value (or gradient) and a bound on what the pruned nodes
    would add: front sup D, or front / sqrt(t) sup M ||A^{-1/2}||_2 for the
    gradient. Data with infinite sup takes the full rule (bound 0). Raises
    QuadratureFailure, without evaluating anything, for an order whose
    numpy weights are not finite (order 384 and up).
    """
    if not np.all(np.isfinite(hermite_rule(order)[1])):
        raise QuadratureFailure(f"Gauss-Hermite order {order} has non-finite weights")
    if math.isfinite(sup):
        xi, w, mass, moment = pruned_hermite_tensor(order, kernel.n)
    else:
        (xi, w), mass, moment = hermite_tensor(order, kernel.n), 0.0, 0.0
    # node k and node N-1-k are negatives; an odd rule keeps xi = 0 in the middle
    half, odd = divmod(len(w), 2)
    center = x + t * kernel.spec.drift
    shift = 2.0 * math.sqrt(t) * (xi[:half] @ kernel.sqrt)
    vals = data(np.concatenate([center - shift, center[None][:odd], center + shift]))
    plus, minus = vals[:half], vals[half + odd:]
    front = math.exp(kernel.spec.reaction * t) * math.pi ** (-kernel.n / 2.0)
    if want_gradient:
        vec = xi[:half] @ kernel.inv_sqrt
        grad = -front / math.sqrt(t) * ((w[:half] * (plus - minus)) @ vec)
        if moment == 0.0:
            return grad, 0.0
        return grad, front / math.sqrt(t) * sup * moment * spectral_norm_inv_sqrt(kernel.dec)
    value = float(w[:half] @ (plus + minus))
    if odd:
        value += float(w[half] * vals[half])
    return front * value, (front * sup * mass if mass else 0.0)


def _panel_pass_1d(kernel, data, x, t, order, quad, want_gradient):
    center = float(x[0] + t * kernel.spec.drift[0])
    sigma = 2.0 * math.sqrt(t * float(kernel.dec.eigenvalues[-1]))
    lo = center - quad.truncation_radius * sigma
    hi = center + quad.truncation_radius * sigma
    kinks = [k for k in data.kinks_1d() if lo < k < hi]
    nodes, weights = panel_nodes(panel_edges(lo, hi, kinks), order)
    args = (x[0] - nodes)[:, None]
    vals = data(nodes[:, None])
    if want_gradient:
        g = kernel.gradient(args, t)[:, 0]
        return np.array([float(weights @ (g * vals))])
    return float(weights @ (kernel.value(args, t) * vals))


def _grid_pass(kernel, grid: GridData, x, t, quad, want_gradient, midpoint):
    if midpoint:
        pts = grid.cell_centers(1)
        vals = grid(pts)
        weights = np.full(vals.size, float(np.prod(grid.spacing)))
    else:
        vals = grid.values
        pts = grid.node_points()
        weights = np.ones(1)
        for size in vals.shape:
            w = np.ones(size)
            w[0] = w[-1] = 0.5
            weights = np.multiply.outer(weights, w).reshape(-1)
        weights = weights * float(np.prod(grid.spacing))
    flat = vals.reshape(-1)

    xi = kernel.whitened(x[None, :] - pts, t)
    q = np.einsum("ij,ij->i", xi, xi)
    keep = q <= quad.truncation_radius**2
    dropped = ~keep
    if np.any(dropped):
        worst = float(np.max(np.exp(-q[dropped]) * np.abs(flat[dropped])))
        if worst > quad.target_rel_err * max(float(np.abs(flat).max()), 1e-300):
            raise UnsupportedData(
                "grid support extends beyond the truncation radius with "
                "non-negligible kernel weight; enlarge truncation_radius"
            )
    args = x[None, :] - pts[keep]
    if want_gradient:
        g = kernel.gradient(args, t)
        return (weights[keep] * flat[keep]) @ g
    return float((weights[keep] * flat[keep]) @ kernel.value(args, t))


def _escalation_orders(start: int, dim: int):
    """Hermite orders to try: the configured one, then doublings to 512 within the node budget."""
    orders = [start]
    order = start
    while order < 512 and (2 * order) ** dim <= _MAX_TENSOR_NODES:
        order *= 2
        orders.append(order)
    return orders


def _coarse_order(order: int) -> int:
    """Order of the comparison rule for an error estimate; always below order."""
    return max(order // 2, order - 16)


def _magnitude(v) -> float:
    """Euclidean norm of a value or gradient; unlike sqrt(v.v) it cannot overflow."""
    return math.hypot(*np.atleast_1d(v))


def _tolerance_scale(kernel, value, sup, t, want_gradient):
    """Error-control scale: |value|, floored at 1e-3 of the bound e^{ct} sup."""
    scale = _magnitude(value)
    if not math.isfinite(sup) or sup == 0.0:
        return scale
    bound = math.exp(kernel.spec.reaction * t) * sup
    if want_gradient:
        bound /= math.sqrt(t)
    return max(scale, 1e-3 * bound)


def _hom_eval(kernel, data, x, t, quad, want_gradient):
    x, t = _check_solver_args(kernel, x, t)
    if data.n != kernel.n:
        raise DomainError(f"data dimension {data.n} != problem dimension {kernel.n}")
    sup = data.sup_norm()
    if sup == 0.0:
        return np.zeros(kernel.n) if want_gradient else 0.0
    _check_float_range(kernel, t, want_gradient)
    if isinstance(data, GridData):
        fine = _grid_pass(kernel, data, x, t, quad, want_gradient, midpoint=False)
        mid = _grid_pass(kernel, data, x, t, quad, want_gradient, midpoint=True)
        est = 2.0 / 3.0 * _magnitude(fine - mid)
        value = fine
    elif kernel.n == 1 and data.kinks_1d():
        hi = _panel_pass_1d(kernel, data, x, t, 12, quad, want_gradient)
        lo = _panel_pass_1d(kernel, data, x, t, 8, quad, want_gradient)
        est = _magnitude(hi - lo)
        value = hi
    else:
        orders = _escalation_orders(quad.hermite_order, kernel.n)
        hint = data.localization()
        if hint is not None:
            # Reject upfront when the data's feature width, mapped to the
            # whitened coordinate, falls below the node spacing of the
            # finest rule: refinement comparisons cannot be trusted to
            # notice a feature that every rule misses entirely.
            _, radius = hint
            width = radius / (2.0 * math.sqrt(t * float(kernel.dec.eigenvalues[-1])))
            spacing = math.pi / math.sqrt(2.0 * orders[-1])
            if width < 0.5 * spacing:
                raise QuadratureFailure(
                    f"data feature width {width:.3e} (whitened) below half the "
                    f"finest node spacing {spacing:.3e}; refine or rescale"
                )
        coarse = _coarse_order(quad.hermite_order)
        value, _ = _hermite_pass(kernel, data, x, t, coarse, want_gradient, sup)
        est = math.inf
        for order in orders:
            finer, dropped = _hermite_pass(kernel, data, x, t, order, want_gradient, sup)
            est = _magnitude(finer - value) + dropped
            value = finer
            scale = _tolerance_scale(kernel, value, sup, t, want_gradient)
            if est <= quad.target_rel_err * scale:
                break
    if not (math.isfinite(est) and np.all(np.isfinite(value))):
        raise QuadratureFailure(
            f"spatial quadrature gave a non-finite value or error estimate ({est:.3e})"
        )
    scale = _tolerance_scale(kernel, value, sup, t, want_gradient)
    if scale > 0.0 and est > quad.target_rel_err * scale:
        raise QuadratureFailure(
            f"spatial quadrature error estimate {est:.3e} exceeds "
            f"{quad.target_rel_err:.1e} x scale {scale:.3e}"
        )
    return value


def solve_homogeneous(kernel, data: SourceFunction, x, t, quad=DEFAULT_QUADRATURE) -> float:
    """u(x, t) for the homogeneous problem with initial data phi."""
    return _hom_eval(kernel, data, x, t, quad, want_gradient=False)


def gradient_homogeneous(kernel, data: SourceFunction, x, t, quad=DEFAULT_QUADRATURE):
    """grad u(x, t) for the homogeneous problem."""
    return _hom_eval(kernel, data, x, t, quad, want_gradient=True)


class _Slice(SourceFunction):
    """Fixed-time slice of a forcing term, viewed as spatial data."""

    def __init__(self, forcing, tau):
        self.forcing = forcing
        self.tau = tau
        self.n = forcing.n

    def __call__(self, pts):
        return self.forcing(pts, self.tau)

    def kinks_1d(self):
        return self.forcing.spatial_kinks(self.tau)


def _duhamel_pass(kernel, forcing, x, t, n_panels, quad, want_gradient, inner_order, sup):
    """Duhamel integral over sigma nodes on (0, sqrt t), t - tau = sigma^2.

    Returns the integral, the summed pruned-node bound of its Hermite
    passes, and whether any sigma node took the Hermite route (otherwise
    inner_order played no part).
    """
    gl_x, gl_w = legendre_rule(8)
    edges = np.linspace(0.0, math.sqrt(t), n_panels + 1)
    a, b = edges[:-1][:, None], edges[1:][:, None]
    half = 0.5 * (b - a)
    sigmas = (a + half * (gl_x[None, :] + 1.0)).reshape(-1)
    sig_w = (half * gl_w[None, :]).reshape(-1)
    acc = np.zeros(kernel.n) if want_gradient else 0.0
    dropped = 0.0
    used_hermite = False
    for sigma, w in zip(sigmas, sig_w):
        s = sigma * sigma
        data = _Slice(forcing, t - s)
        if kernel.n == 1 and data.kinks_1d():
            inner = _panel_pass_1d(kernel, data, x, s, 12, quad, want_gradient)
        else:
            inner, bound = _hermite_pass(kernel, data, x, s, inner_order, want_gradient, sup)
            dropped += 2.0 * sigma * w * bound
            used_hermite = True
        acc = acc + (2.0 * sigma * w) * inner
    return acc, dropped, used_hermite


def _nonhom_eval(kernel, forcing, x, t, quad, want_gradient):
    x, t = _check_solver_args(kernel, x, t)
    if forcing.n != kernel.n:
        raise DomainError(f"forcing dimension {forcing.n} != problem dimension {kernel.n}")
    sup = forcing.sup_norm(t)
    if sup == 0.0:
        return np.zeros(kernel.n) if want_gradient else 0.0
    _check_float_range(kernel, t)
    if kernel.spec.reaction != 0.0:
        mass = (math.exp(kernel.spec.reaction * t) - 1.0) / kernel.spec.reaction
    else:
        mass = t
    value = est = None
    panels, order = quad.time_panels, quad.hermite_order
    for attempt in range(3):
        fine, dropped, used_hermite = _duhamel_pass(
            kernel, forcing, x, t, panels, quad, want_gradient, order, sup
        )
        coarse_t, _, _ = _duhamel_pass(
            kernel, forcing, x, t, max(4, panels // 2), quad, want_gradient, order, sup
        )
        est = _magnitude(fine - coarse_t) + dropped
        if used_hermite:
            # the kink-panel route ignores order, so this pass would repeat fine
            coarse_s, _, _ = _duhamel_pass(
                kernel, forcing, x, t, panels, quad, want_gradient, _coarse_order(order), sup
            )
            est += _magnitude(fine - coarse_s)
        value = fine
        scale = max(
            _magnitude(value),
            1e-3 * abs(mass) * sup / (math.sqrt(t) if want_gradient else 1.0),
        )
        if est <= quad.target_rel_err * scale or (2 * order) ** kernel.n > _MAX_TENSOR_NODES:
            break
        panels, order = 2 * panels, 2 * order
    if scale > 0.0 and est > quad.target_rel_err * scale:
        raise QuadratureFailure(
            f"Duhamel quadrature error estimate {est:.3e} exceeds "
            f"{quad.target_rel_err:.1e} x scale {scale:.3e}"
        )
    return value


def solve_nonhomogeneous(kernel, forcing: SpaceTimeSource, x, t, quad=DEFAULT_QUADRATURE) -> float:
    """u(x, t) for the nonhomogeneous problem with zero initial data."""
    return _nonhom_eval(kernel, forcing, x, t, quad, want_gradient=False)


def gradient_nonhomogeneous(kernel, forcing: SpaceTimeSource, x, t, quad=DEFAULT_QUADRATURE):
    """grad u(x, t) for the nonhomogeneous problem."""
    return _nonhom_eval(kernel, forcing, x, t, quad, want_gradient=True)


def solve_batch(kernel, data, points, times, quad=DEFAULT_QUADRATURE, jobs=None,
                kind="hom", gradient=False):
    """Evaluate many (x, t) pairs; results are ordered by input index.

    The pairs are evaluated serially; jobs is accepted for existing callers
    and ignored.
    """
    points = np.asarray(points, dtype=float)
    if points.shape == (0,):
        points = points.reshape(0, kernel.n)
    points = np.atleast_2d(points)
    times = np.asarray(times, dtype=float).reshape(-1)
    if len(times) != points.shape[0]:
        raise DomainError("points and times must have matching lengths")
    if kind == "hom":
        fn = gradient_homogeneous if gradient else solve_homogeneous
    elif kind == "nonhom":
        fn = gradient_nonhomogeneous if gradient else solve_nonhomogeneous
    else:
        raise DomainError(f"unknown problem kind {kind!r}")
    results = [fn(kernel, data, x, t, quad) for x, t in zip(points, times)]
    return np.asarray(results, dtype=float).reshape((len(times), kernel.n) if gradient else -1)
