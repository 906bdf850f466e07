"""Point evaluation of u and grad u for both Cauchy problems.

Homogeneous problem: u(x, t) is the kernel convolved with the initial
data, the integral of G(x - y, t) phi(y) over y. One dispatcher (_route)
picks the rule for that integral from the data, for the homogeneous
solver and for every sigma node of the Duhamel solver alike:

- Data with a Gaussian factor (gaussian_factor(): Gaussian and polygauss
  presets) takes tensor Gauss-Hermite in the frame of the product of the
  kernel and that factor, whose precision shares A's eigenvectors (the
  adaptive Gauss-Hermite of Liu & Pierce, Biometrika 81, 1994). The rule
  integrates only the polynomial left over, exactly from order 4; orders
  4 and 8 are compared and doubled on a miss.
- Constant data v takes the closed form u = v e^{ct}, grad u = 0.
- Box data takes tensor composite Gauss-Legendre over the box clipped to
  the kernel's window x + t b +- TRUNCATION_RADIUS sqrt(2 t A_jj), with
  panels at most 2 sqrt(2 t A_jj) wide; axes the box does not clip
  integrate out in closed form (Genz's separation of variables, J. Comput.
  Graph. Stat. 1, 1992). Orders 12 and 8 on the same panels are compared,
  then halved panels.
- Grid data takes the same tensor rule on its multilinear interpolant
  over the grid's support clipped to that window, with panel edges at the
  grid lines, so each panel lies in one cell. Orders climb from 1 (the
  midpoint rule) to 12, each compared with the one before.
- n = 1 data with kinks (the extremal |.|^q profiles) takes composite
  Gauss-Legendre panels graded toward the kinks, orders 12 and 8.
- Everything else (extremal for n >= 2, custom data) takes tensor
  Gauss-Hermite in the kernel's whitened frame,
  xi = A^{-1/2}(x - y + t b)/(2 sqrt t):

    u(x, t) = e^{ct} pi^{-n/2} * sum_i w_i phi(x + t b - 2 sqrt(t) A^{1/2} xi_i),

  at the configured hermite_order, doubled up to 256 on a miss. The rule
  is pruned of the nodes whose product weight is at most 1e-18 of the
  total (quadrature.pruned_hermite_tensor), and a bound on what they
  would add joins the error estimate (_hermite_pass). The kept nodes come
  in +-xi pairs, so the gradient sums w xi (phi(y+) - phi(y-)) over pairs
  and is exactly 0 for constant-valued data.

Nonhomogeneous problem: Duhamel integral over kernel times t - tau. The
substitution t - tau = sigma^2 removes the (t - tau)^{-1/2} endpoint
behavior of the gradient integrand; composite Gauss-Legendre panels in
sigma then converge spectrally. The integral is one more ladder of rules
(_duhamel_pass): rung k doubles the sigma panels k times and runs every
sigma node's spatial rule at rung k of its own ladder.

Both solvers climb their ladder in one loop (_eval): each rung is
compared with the one below it, and QuadratureFailure is raised when the
estimate exceeds the configured target relative to the solution scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np

from .errors import (
    DomainError,
    FloatOverflow,
    NonpositiveTime,
    QuadratureFailure,
    UnsupportedData,
)
from .kernel import FundamentalSolution, ProblemSpec
from .mathcore import LOG_FLOAT_MAX, SpdMatrix, spectral_norm_inv_sqrt
from .quadrature import (
    TRUNCATION_RADIUS,
    hermite_rule,
    hermite_tensor,
    panel_edges,
    panel_nodes,
    pruned_hermite_tensor,
)
from .sources import (
    BoxIndicator,
    ConstantData,
    GridData,
    SourceFunction,
    SpaceTimeSource,
    TimeInvariantForcing,
    _lattice,
)

SOLVER_MAX_DIM = 3
# Largest tensor rule (Hermite order^n nodes, or box and grid panel nodes) a solve may evaluate.
_MAX_TENSOR_NODES = 2**21
# Duhamel sigma panels at rung 0; each of the _TIME_RUNGS - 1 further rungs doubles them
_TIME_PANELS = 24
_TIME_RUNGS = 4


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature knobs for the solvers and oracles.

    hermite_order is the starting order of the kernel-frame Gauss-Hermite
    rule only (and the oracles' Hermite rules); Gaussian, polygauss, box,
    grid and kinked n = 1 data use their own fixed rules, and constant data
    its closed form. An order numpy cannot build (384 and up) raises
    QuadratureFailure in either Hermite frame. target_rel_err is the error
    every solve must meet, relative to its tolerance scale.
    """

    hermite_order: int = 64
    target_rel_err: float = 1e-8

    def __post_init__(self):
        if self.hermite_order < 8:
            raise DomainError("hermite_order must be >= 8")
        if not self.target_rel_err > 0:
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
    if not all(map(math.isfinite, x)):
        raise DomainError(f"point {x.tolist()} is not finite")
    return x, float(t)


def _check_float_range(kernel, t, want_gradient):
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


@lru_cache(maxsize=16)
def _check_hermite_order(order: int):
    """Raise QuadratureFailure for an order whose numpy weights are not finite (384 and up)."""
    if not np.all(np.isfinite(hermite_rule(order)[1])):
        raise QuadratureFailure(f"Gauss-Hermite order {order} has non-finite weights")


def _hermite_pass(kernel, data, x, t, order, want_gradient, sup):
    """One tensor Gauss-Hermite pass in the kernel frame, over the pruned rule, summed by +-xi pairs.

    Returns the value (or gradient) and a bound on what the pruned nodes
    would add: front sup D, or front / sqrt(t) sup M ||A^{-1/2}||_2 for the
    gradient. Data with infinite sup takes the full rule (bound 0). Raises
    QuadratureFailure, without evaluating anything, for an order whose
    numpy weights are not finite.
    """
    _check_hermite_order(order)
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


def _product_frame(kernel, x, t, center, spread):
    """The product of the kernel at time(s) t and the data's Gaussian factor.

    With y - c in A's eigenbasis, z = Q^T (x + t b - c) and
    d = spread + t lam, the kernel times exp(-|y - c|^2 / (4 spread)) is
    e^{ct} C times the normal density with mean spread z / d and variances
    2 t lam spread / d, where C = prod (spread / d)^{1/2} exp(-z^2 / (4 d)).
    A's eigenvectors diagonalise both factors, so no new factorisation is
    needed. t may be an array of kernel times (the sigma nodes of a
    Duhamel pass). Returns, per time, the mean and node scale of y - c,
    log C, e^{ct} pi^{-n/2} and the node scale of the gradient factor.
    """
    lam = kernel.dec.eigenvalues
    t = np.asarray(t, dtype=float)
    times = t.reshape(-1, 1, 1)
    z = (x - center + times * kernel.spec.drift) @ kernel.dec.eigenvectors
    spread_t = times * lam
    shrink = spread / (spread + spread_t)  # spread / d
    mean = shrink * z
    log_mass = 0.5 * np.log(shrink).sum(-1) - (mean * z).sum(-1) / (4.0 * spread)
    front = np.exp(kernel.spec.reaction * times[:, 0]) * math.pi ** (-kernel.n / 2.0)
    return t.ndim, mean, np.sqrt(4.0 * spread_t * shrink), log_mass, front, np.sqrt(shrink / spread_t)


def _product_pass(kernel, data, center, spread, frame, order, want_gradient):
    """One tensor Gauss-Hermite pass on the product Gaussian (see _product_frame).

    The rule integrates what is left of the data, phi divided by its
    Gaussian factor; for Gaussian and polygauss data that is a polynomial
    of degree <= 2 per axis, which order 4 integrates exactly even with the
    gradient's extra degree. Over several times the data is evaluated once
    for all of them and the results are stacked by time.
    """
    ndim, mean, scale, log_mass, front, grad_scale = frame
    vecs = kernel.dec.eigenvectors
    xi, w = hermite_tensor(order, kernel.n)
    off = mean + scale * xi
    # exp(|y - c|^2 / (4 spread)) C undoes the data's factor at every node
    rest = np.exp((off * off).sum(-1) / (4.0 * spread) + log_mass)
    vals = w * rest * data((off @ vecs.T + center).reshape(-1, kernel.n)).reshape(rest.shape)
    if want_gradient:
        # A^{-1}(x + t b - y) / (2 t) in the eigenbasis
        vec = mean / (2.0 * spread) - grad_scale * xi
        grad = -front * (np.einsum("ki,kij->kj", vals, vec) @ vecs.T)
        return (grad, np.zeros(len(grad))) if ndim else (grad[0], 0.0)
    value = front[:, 0] * vals.sum(1)
    return (value, np.zeros(len(value))) if ndim else (float(value[0]), 0.0)


def _constant_pass(kernel, value, t, key, want_gradient):
    """Constant data v: u = v e^{ct} and grad u = 0, exactly; t may be an array of kernel times."""
    c = kernel.spec.reaction
    if np.ndim(t):
        t = np.asarray(t)
        out = np.zeros((t.size, kernel.n)) if want_gradient else value * np.exp(c * t)
        return out, np.zeros(t.size)
    return (np.zeros(kernel.n) if want_gradient else value * math.exp(c * t)), 0.0


def _clip_to_window(kernel, x, t, lo, hi):
    """[lo, hi] clipped to the window x + t b +- TRUNCATION_RADIUS sigma_j, sigma_j = sqrt(2 t A_jj).

    Returns the clipped ends, sigma and the axes on which [lo, hi] cuts the
    window, or None when the two do not meet.
    """
    mean = x + t * kernel.spec.drift
    sigma = np.sqrt(2.0 * t * kernel.spec.diffusion.entries.diagonal())
    reach = TRUNCATION_RADIUS * sigma
    lo, hi = np.maximum(lo, mean - reach), np.minimum(hi, mean + reach)
    if (hi <= lo).any():
        return None
    return lo, hi, sigma, ((lo > mean - reach) | (hi < mean + reach)).nonzero()[0]


def _box_window(kernel, box, x, t):
    """(kernel, cut, breaks, sigma): the box clipped to the kernel's window, on the axes it clips.

    An axis whose window lies inside the box integrates out exactly (a
    Gaussian's marginal is Gaussian), so the kernel is that of the marginal
    problem on the clipped axes cut; None when the intersection is empty.
    """
    clipped = _clip_to_window(kernel, x, t, box.lo, box.hi)
    if clipped is None:
        return None
    lo, hi, sigma, cut = clipped
    if 0 < cut.size < kernel.n:
        spec = kernel.spec
        kernel = FundamentalSolution(ProblemSpec(SpdMatrix(spec.diffusion.entries[np.ix_(cut, cut)]),
                                                 spec.drift[cut], spec.reaction, spec.horizon))
    return kernel, cut, np.array([lo[cut], hi[cut]]).T, sigma[cut]


def _tensor_rule(breaks, sigma, rule):
    """Tensor composite Gauss-Legendre nodes (m, k) and weights over the box the breaks span.

    rule = (order, split): on axis j each interval between breaks is cut
    into as many equal panels as keep the widest at most 2 sigma_j / split.
    A rule over _MAX_TENSOR_NODES nodes raises QuadratureFailure.
    """
    order, split = rule
    edges = []
    for cuts, sd in zip(breaks, sigma):
        lengths = cuts[1:] - cuts[:-1]
        count = math.ceil(split * float(lengths.max()) / (2.0 * sd))
        # start + k * step in each interval, as np.linspace computes its points
        inner = (lengths / count)[:, None] * np.arange(count) + cuts[:-1, None]
        edges.append(np.concatenate((inner.ravel(), cuts[-1:])))
    size = math.prod(e.size - 1 for e in edges) * order ** len(edges)
    if size > _MAX_TENSOR_NODES:
        raise QuadratureFailure(f"box rule needs {size} nodes, over the budget {_MAX_TENSOR_NODES}")
    axes = [panel_nodes(e, order) for e in edges]
    weights = reduce(np.multiply.outer, [w for _, w in axes]).reshape(-1)
    return _lattice([nodes for nodes, _ in axes]), weights


def _box_pass(kernel, box, x, t, window, rule, want_gradient):
    """Tensor composite Gauss-Legendre over the clipped box (see _box_window).

    An empty intersection gives exactly 0, a box that clips no axis
    e^{ct} amp, and the gradient has no component along the axes the box
    does not clip.
    """
    if window is None:
        return (np.zeros(kernel.n) if want_gradient else 0.0), 0.0
    sub, cut, breaks, sigma = window
    if cut.size == 0:
        return _constant_pass(kernel, box.amp, t, rule, want_gradient)
    args, weights = _tensor_rule(breaks, sigma, rule)
    # x - y over the lattice, in place: the lattice can hold millions of nodes
    np.subtract(x[cut], args, out=args)
    if want_gradient:
        out = np.zeros(kernel.n)
        out[cut] = box.amp * (weights @ sub.gradient(args, t))
        return out, 0.0
    return box.amp * float(weights @ sub.value(args, t)), 0.0


def _grid_pass(kernel, grid, x, t, order, want_gradient):
    """The tensor rule of one order on the grid's multilinear interpolant.

    It runs over the grid's support clipped to the kernel's window, with
    panel edges at the grid lines, so every panel lies in one cell.
    """
    lines = [o + h * np.arange(m) for o, h, m in zip(grid.origin, grid.spacing, grid.values.shape)]
    clipped = _clip_to_window(kernel, x, t, [g[0] for g in lines], [g[-1] for g in lines])
    if clipped is None:
        return (np.zeros(kernel.n) if want_gradient else 0.0), 0.0
    lo, hi, sigma, _ = clipped
    breaks = [np.concatenate([[l], g[(g > l) & (g < h)], [h]]) for l, h, g in zip(lo, hi, lines)]
    args, weights = _tensor_rule(breaks, sigma, (order, 1))
    weights = weights * grid(args)
    np.subtract(x, args, out=args)
    if want_gradient:
        return weights @ kernel.gradient(args, t), 0.0
    return float(weights @ kernel.value(args, t)), 0.0


def _kink_edges(kernel, data, x, t):
    """Panel edges over the n = 1 kernel window, graded toward the data's kinks."""
    center = float(x[0] + t * kernel.spec.drift[0])
    sigma = 2.0 * math.sqrt(t * float(kernel.dec.eigenvalues[-1]))
    lo = center - TRUNCATION_RADIUS * sigma
    hi = center + TRUNCATION_RADIUS * sigma
    return panel_edges(lo, hi, [k for k in data.kinks_1d() if lo < k < hi])


def _panel_pass_1d(kernel, data, x, t, edges, order, want_gradient):
    nodes, weights = panel_nodes(edges, order)
    args = (x[0] - nodes)[:, None]
    vals = data(nodes[:, None])
    if want_gradient:
        g = kernel.gradient(args, t)[:, 0]
        return np.array([float(weights @ (g * vals))]), 0.0
    return float(weights @ (kernel.value(args, t) * vals)), 0.0


def _escalation_orders(start: int, dim: int):
    """Hermite orders to try: start, then doublings up to 256 within the node budget."""
    orders = [start]
    order = start
    while order < 256 and (2 * order) ** dim <= _MAX_TENSOR_NODES:
        order *= 2
        orders.append(order)
    return orders


def _coarse_order(order: int) -> int:
    """Order of the comparison rule for an error estimate; always below order."""
    return max(order // 2, order - 16)


# (Gauss-Legendre order, panels per 2 sigma_j) of the box rule, coarse first
_BOX_RULES = ((8, 1), (12, 1), (12, 2))
# Gauss-Legendre orders of the kink panels, coarse first
_KINK_RULES = (8, 12)
# Gauss-Legendre orders of the grid cells, coarse first
_GRID_ORDERS = tuple(range(1, 13))
# a closed form: its coarse and fine rungs are one and the same
_CLOSED_FORM = ("closed form",) * 2


def _route(kernel, data, x, t, quad, want_gradient, sup):
    """The rule for the integral of G(x - y, t) phi(y) over y that the data picks.

    Returns (rule, keys): rule(key) gives the integral and a bound on what
    the rule leaves out; keys[0] names the coarse comparison rule and
    keys[1:] the ladder an unmet error estimate climbs. Data with a
    Gaussian factor takes the product frame, constant data its closed
    form, box data the box rule, grid data its cells, n = 1 data with
    kinks the kink panels and everything else the kernel frame. An array t
    (several kernel times) gives results stacked by time.
    """
    factor = data.gaussian_factor()
    if factor is not None:
        # an explicit kernel-frame order numpy cannot build fails every Hermite route
        _check_hermite_order(quad.hermite_order)
        center, spread = np.asarray(factor[0]), factor[1]
        frame = _product_frame(kernel, x, t, center, spread)
        keys = [_coarse_order(8)] + _escalation_orders(8, kernel.n)
        return partial(_product_pass, kernel, data, center, spread, frame,
                       want_gradient=want_gradient), keys
    if isinstance(data, ConstantData):
        return partial(_constant_pass, kernel, data.value, t,
                       want_gradient=want_gradient), _CLOSED_FORM
    if np.ndim(t):
        routes = [_route(kernel, data, x, s, quad, want_gradient, sup) for s in t]

        def stacked(key):
            parts = [rule(key) for rule, _ in routes]
            return [part[0] for part in parts], [part[1] for part in parts]

        return stacked, routes[0][1]
    if isinstance(data, BoxIndicator):
        return partial(_box_pass, kernel, data, x, t, _box_window(kernel, data, x, t),
                       want_gradient=want_gradient), _BOX_RULES
    if isinstance(data, GridData):
        return partial(_grid_pass, kernel, data, x, t, want_gradient=want_gradient), _GRID_ORDERS
    if kernel.n == 1 and data.kinks_1d():
        return partial(_panel_pass_1d, kernel, data, x, t, _kink_edges(kernel, data, x, t),
                       want_gradient=want_gradient), _KINK_RULES
    keys = [_coarse_order(quad.hermite_order)] + _escalation_orders(quad.hermite_order, kernel.n)
    return partial(_hermite_pass, kernel, data, x, t, want_gradient=want_gradient, sup=sup), keys


def _magnitude(v) -> float:
    """Euclidean norm of a value or gradient; unlike sqrt(v.v) it cannot overflow."""
    return math.hypot(*np.atleast_1d(v))


def _tolerance_scale(value, bound) -> float:
    """Error-control scale: |value|, floored at 1e-3 of the a priori bound when that is finite."""
    scale = _magnitude(value)
    if not math.isfinite(bound):
        return scale
    return max(scale, 1e-3 * bound)


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


def _duhamel_pass(kernel, forcing, x, t, quad, want_gradient, sup, rung):
    """One rung of the Duhamel ladder: the integral over sigma on (0, sqrt t), t - tau = sigma^2.

    The rung takes _TIME_PANELS 2^rung composite Gauss-Legendre panels of
    order 8 in sigma. Every sigma node integrates in space by the rule its
    data picks (_route), at the same rung of that rule's ladder, clamped to
    its last rung: a TimeInvariantForcing hands over its profile, one route
    for all sigma nodes; any other forcing its slice at each tau. Like any
    rule of _route it returns the integral and the summed bound of what
    the spatial rules leave out.
    """
    sigmas, weights = panel_nodes(np.linspace(0.0, math.sqrt(t), _TIME_PANELS * 2**rung + 1), 8)
    weights = 2.0 * sigmas * weights
    times = sigmas * sigmas
    if isinstance(forcing, TimeInvariantForcing):
        groups = [(forcing.profile, times, weights)]
    else:
        groups = [(_Slice(forcing, t - s), times[i:i + 1], weights[i:i + 1])
                  for i, s in enumerate(times)]
    acc = np.zeros(kernel.n) if want_gradient else 0.0
    dropped = 0.0
    for data, group_times, group_weights in groups:
        rule, keys = _route(kernel, data, x, group_times, quad, want_gradient, sup)
        inner, bound = rule(keys[min(rung, len(keys) - 1)])
        for w, value, left_out in zip(group_weights, inner, bound):
            acc = acc + w * value
            dropped += w * left_out
    return acc, dropped


def _eval(kernel, data, x, t, quad, want_gradient, nonhom):
    """u(x, t) or grad u(x, t): climb the ladder of rules, each rung checked against the one below.

    The homogeneous ladder is the spatial rule _route picks; the
    nonhomogeneous one the Duhamel rungs. The scale floor is 1e-3 of the a
    priori bound, e^{ct} sup|phi| or (e^{ct} - 1)/c sup|f| (t sup|f| for
    c = 0), divided by sqrt(t) for gradients.
    """
    x, t = _check_solver_args(kernel, x, t)
    if data.n != kernel.n:
        raise DomainError(f"data dimension {data.n} != problem dimension {kernel.n}")
    sup = data.sup_norm(t) if nonhom else data.sup_norm()
    if sup == 0.0:
        return np.zeros(kernel.n) if want_gradient else 0.0
    _check_float_range(kernel, t, want_gradient)
    c = kernel.spec.reaction
    if nonhom:
        rule = partial(_duhamel_pass, kernel, data, x, t, quad, want_gradient, sup)
        keys = range(_TIME_RUNGS)
        bound = (math.expm1(c * t) / c if c else t) * sup
    else:
        rule, keys = _route(kernel, data, x, t, quad, want_gradient, sup)
        bound = math.exp(c * t) * sup
    if want_gradient:
        bound /= math.sqrt(t)
    value, _ = rule(keys[0])
    est = math.inf
    for key in keys[1:]:
        finer, dropped = rule(key)
        est = _magnitude(finer - value) + dropped
        value = finer
        if est <= quad.target_rel_err * _tolerance_scale(value, bound):
            break
    if not (math.isfinite(est) and np.all(np.isfinite(value))):
        if math.isinf(bound) and math.isfinite(sup):
            raise FloatOverflow("the a priori bound on the answer overflows float64")
        raise QuadratureFailure(
            f"quadrature gave a non-finite value or error estimate ({est:.3e})"
        )
    scale = _tolerance_scale(value, bound)
    if scale > 0.0 and est > quad.target_rel_err * scale:
        raise QuadratureFailure(
            f"quadrature error estimate {est:.3e} exceeds "
            f"{quad.target_rel_err:.1e} x scale {scale:.3e}"
        )
    return value


def solve_homogeneous(kernel, data: SourceFunction, x, t, quad=DEFAULT_QUADRATURE) -> float:
    """u(x, t) for the homogeneous problem with initial data phi."""
    return _eval(kernel, data, x, t, quad, want_gradient=False, nonhom=False)


def gradient_homogeneous(kernel, data: SourceFunction, x, t, quad=DEFAULT_QUADRATURE):
    """grad u(x, t) for the homogeneous problem."""
    return _eval(kernel, data, x, t, quad, want_gradient=True, nonhom=False)


def solve_nonhomogeneous(kernel, forcing: SpaceTimeSource, x, t, quad=DEFAULT_QUADRATURE) -> float:
    """u(x, t) for the nonhomogeneous problem with zero initial data."""
    return _eval(kernel, forcing, x, t, quad, want_gradient=False, nonhom=True)


def gradient_nonhomogeneous(kernel, forcing: SpaceTimeSource, x, t, quad=DEFAULT_QUADRATURE):
    """grad u(x, t) for the nonhomogeneous problem."""
    return _eval(kernel, forcing, x, t, quad, want_gradient=True, nonhom=True)


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
