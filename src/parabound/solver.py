"""Point evaluation of u and grad u for both Cauchy problems.

Homogeneous problem: u(x, t) is the kernel convolved with the initial
data, the integral of G(x - y, t) phi(y) over y. One dispatcher (_route)
picks the rule for that integral from the data, for the homogeneous
solver's one kernel time and a Duhamel sigma panel's 15 alike. Every rule
takes all times of a call in one pass, but the n >= 2 grids and the
kernel frame, which take one time at a time:

- Data with a Gaussian factor (gaussian_factor(): Gaussian and polygauss
  presets) takes the one tensor Gauss-Hermite pass (_hermite_pass) in the
  frame of the product of the kernel and that factor
  exp(-q |y - center|^2), q = 1/(4 spread), whose precision shares A's
  eigenvectors (the adaptive Gauss-Hermite of Liu & Pierce, Biometrika 81,
  1994). One pass of order (d + 3) // 2 integrates the polynomial left
  over exactly, of total degree d for u and d + 1 for grad u = G * grad phi:
  a closed form, with no 1/sqrt(t) factor and no cancellation.
- Constant data v takes the closed form u = v e^{ct}, grad u = 0.
- Box data amp 1[lo, hi] gives u = e^{ct} amp P(lo <= Y <= hi) with
  Y ~ N(x + t b, 2 t A), in units of the sds of Y (_standard). At n = 1
  it is a difference of erfc, at n = 2 four bivariate normal orthants
  (_bvn, Genz's algorithm), and grad u sums the box faces: the density of
  Y_j there times the box probability of the other axes given Y_j, a
  bivariate normal at n = 3. n = 3 u integrates Y_1 by graded composite
  Gauss-Legendre against the bivariate normal of the others given it
  (_box_mass), orders 8 and 12 compared, then halved panels.
- Grid data stands for its multilinear interpolant. At n = 1 it is in
  closed form: against the normal law of Y each linear cell is a
  difference of normal CDFs and densities, and grad u differentiates the
  cell sum in the mean, which keeps the jumps at the grid's two ends. At
  n >= 2 it takes tensor composite Gauss-Legendre over the grid's
  support clipped to the kernel's window, with panels at most
  2 sqrt(2 t A_jj) wide and panel edges at the grid lines, so each panel
  lies in one cell. Orders climb from 1 (the midpoint rule) to 12, each
  compared with the one before.
- n = 1 data with kinks (the extremal |.|^q profiles) takes composite
  Gauss-Legendre panels graded toward the kinks down to 2^-24 of the
  window (quadrature.KINK_LEVELS), orders 12 and 8.
- Everything else (extremal for n >= 2, custom data) takes the same pass
  at q = 0 and center 0, the kernel alone (A = Q diag(lam) Q^T):

    u(x, t) = e^{ct} pi^{-n/2} * sum_i w_i phi(x + t b + 2 sqrt(t) Q lam^{1/2} xi_i).

  Orders 48 and 64 are compared, doubled up to 256 on a miss. The rule
  drops the nodes of product weight at most 1e-18 of the total (Jaeckel
  2005), and a bound on what they would add joins the error estimate.
  Its grad u sums over +-xi node pairs: exactly 0 for constant-valued data.

Nonhomogeneous problem: Duhamel integral over kernel times t - tau. The
substitution t - tau = sigma^2 removes the (t - tau)^{-1/2} endpoint
behavior of the gradient integrand. The integral in sigma is global
adaptive G7K15 Gauss-Kronrod (_duhamel, after QUADPACK's QAG): from four
panels graded toward sigma = 0, the panel with the largest |K15 - G7| is
halved, so a feature in sigma (the kernel window reaching a box face, or
shrinking to a grid cell) gets panels where it lies. A panel hands its
15 kernel times to the dispatcher at once, and a forcing that varies in
time its 15 forcing times with them (the kink panels grade toward each
node's kinks at its own time). Every sigma node's spatial rule runs at
two consecutive keys of its ladder, and their difference joins the
estimate; the keys climb where that part dominates (a closed form's part
is 0).

The homogeneous solver climbs its ladder in _eval, each rung compared
with the one below it; either solver raises QuadratureFailure when its
estimate exceeds the configured target relative to the solution scale.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial

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
    G7_WEIGHTS,
    GK15_NODES,
    GK15_WEIGHTS,
    TRUNCATION_RADIUS,
    hermite_tensor,
    legendre_panels,
    legendre_rule,
    panel_edges_batch,
    panel_nodes,
    pruned_hermite_tensor,
    tensor_rule,
)
from .sources import (
    BoxIndicator,
    ConstantData,
    GridData,
    SourceFunction,
    SpaceTimeSource,
    TimeInvariantForcing,
)

SOLVER_MAX_DIM = 3
# Largest tensor rule (Hermite order^n nodes, or grid panel nodes) a solve may evaluate.
_MAX_TENSOR_NODES = 2**21
# Edges of the Duhamel rule's starting sigma panels, as fractions of sqrt t: graded toward
# sigma = 0, where the kernel is narrowest; and the most panels bisection may reach
_SIGMA_EDGES = np.array([0.0, 0.125, 0.25, 0.5, 1.0])
_MAX_SIGMA_PANELS = 200
# Edges in units of 1/sqrt|c| that a decaying reaction adds below the first edge: e^{c sigma^2}
# confines the integrand to sigma of a few 1/sqrt|c|, and the last edge leaves e^{-64} beyond it
_DECAY_EDGES = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
# Offsets |x + t b - c| (1 + q) from which a product frame's squares may overflow
_FAR_OFFSET = 1e150


@dataclass(frozen=True)
class QuadratureConfig:
    """The error target of the solvers.

    target_rel_err is the error every solve must meet, relative to its
    tolerance scale; the homogeneous solve climbs its rule's ladder, and
    the Duhamel rule bisects its sigma panels and climbs its spatial keys,
    until the estimate meets it. The rules themselves are fixed per data
    kind (see the module docstring); the verify oracles use fixed rules of
    their own.
    """

    target_rel_err: float = 1e-8

    def __post_init__(self):
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


def _product_frame(kernel, x, t, center, precision, leftover=None):
    """The product of the kernel at kernel times t and the data's Gaussian factor exp(-q |y - c|^2).

    With q = precision, y - c in A's eigenbasis, z = Q^T (x + t b - c) and
    shrink = 1 / (1 + 4 q t lam), the product is e^{ct} C times the normal
    density with mean shrink z and variances 2 t lam shrink, where
    log C = 1/2 sum log shrink - q (mean . z). A's eigenvectors diagonalise
    both factors, so no new factorisation is needed. At q = 0 it is the
    kernel alone: shrink 1 and C 1. t is one kernel time or a 1-D array, at
    most the horizon T. Returns c and q, and per time the mean and node
    scale of y - c, log C, e^{ct} pi^{-n/2} and the node scale of the
    gradient factor. leftover, (d, sup|phi|, gradient) for data with a
    Gaussian factor, makes the times far from c an exact 0 where a bound
    shows the answer negligible (_far_times).
    """
    lam = kernel.dec.eigenvalues
    times = np.asarray(t, dtype=float).reshape(-1, 1, 1)
    offset, far = x - center, None
    # |x - c + t b| <= |(x - c, b)| (1 + T): a bound in scalars shows most frames near
    if leftover is None or math.hypot(*offset.tolist(), *kernel.spec.drift.tolist()) * (
            1.0 + kernel.spec.horizon) * (1.0 + precision) < _FAR_OFFSET:
        offset = offset + times * kernel.spec.drift
    else:
        offset, far = _far_times(kernel, offset, times, precision, *leftover)
    z = offset @ kernel.dec.eigenvectors
    spread_t = times * lam
    shrink = 1.0 / (1.0 + (4.0 * precision) * spread_t)
    mean = shrink * z
    log_mass = 0.5 * np.log(shrink).sum(-1) - precision * (mean * z).sum(-1)
    front = np.exp(kernel.spec.reaction * times[:, 0]) * math.pi ** (-kernel.n / 2.0)
    if far is not None:
        front[far] = 0.0
    return (center, precision, mean, np.sqrt(4.0 * spread_t * shrink), log_mass, front,
            np.sqrt(shrink / spread_t))


def _far_times(kernel, rel, times, q, degree, sup, gradient):
    """x - c + t b per kernel time (rel = x - c), 0 at the negligible far times, and their mask.

    A time is far where a coordinate of x - c + t b reaches
    _FAR_OFFSET / (1 + q), past which the frame's squares may overflow.
    With P the polynomial beside the factor, |P(w)| <= e sup
    (1 + 2 sqrt(q) |w|)^d (Chebyshev's growth bound from |w| <= 1/sqrt q),
    and by Minkowski against the frame's normal law (mean at most
    r = |x - c + t b| long, sds at most 1/sqrt(2 q)),
    |u| <= e^{ct} e sup (1 + 4 sqrt(q) r + sqrt(2 (n + D)))^D e^{-a r^2},
    a = q / (1 + 4 q t lam_max), D = d; grad u has D = d + 1 and a factor
    1 / (4 sqrt(q) t lam_min). Where a r^2 >= D this falls with r, so its
    value at rho = min(largest coordinate, _FAR_OFFSET / sqrt q) <= r
    bounds the answer. A far time bounded below e^-800 (float64 rounds it
    to 0) answers an exact 0; every other time is computed as it stands.
    """
    power, lam, root_q = degree + gradient, kernel.dec.eigenvalues, math.sqrt(q)
    with np.errstate(over="ignore"):  # past float64 t b is +-inf, and that time far
        offset = rel + times * kernel.spec.drift
        reach = np.abs(offset).max(axis=(1, 2))
        far = ~(reach < _FAR_OFFSET / (1.0 + q))
        t, rho = times[far, 0, 0], np.minimum(reach[far], _FAR_OFFSET / root_q)
        decay = q / (1.0 + 4.0 * q * t * lam[-1]) * rho * rho
        log_bound = (kernel.spec.reaction * t + math.log(sup) + 1.0 - decay
                     + power * np.log1p(4.0 * root_q * rho + math.sqrt(2.0 * (kernel.n + power)))
                     - (np.log(4.0 * root_q * t * lam[0]) if gradient else 0.0))
    far[far] = (decay >= power) & (log_bound < -800.0)
    offset[far] = 0.0
    return offset, far


def _hermite_pass(kernel, data, frame, order, want_gradient, sup, tau=None):
    """The tensor Gauss-Hermite rule of one order in a product frame (see _product_frame).

    The rule integrates what is left of the data, phi times
    exp(q |y - c|^2): for Gaussian and polygauss data a polynomial of total
    degree d, or d + 1 for grad u = G * grad phi, which order m integrates
    exactly once 2m - 1 >= d + 1; at q = 0 phi itself, with grad u summed
    over +-xi node pairs. The data is evaluated once for all the frame's
    times, stacked by time. Returns the values (or gradients) and bounds on
    what the rule leaves out. Only a leftover with a known finite sup
    (q = 0, sup|phi| finite) takes the pruned rule (pruned_hermite_tensor),
    with the bound front sup mass, or front sup moment ||A^{-1/2}||_2 /
    sqrt(t) for the gradient; otherwise the full rule, with bound 0. With
    tau the data is a forcing, taken at that one time.
    """
    center, precision, mean, scale, log_mass, front, grad_scale = frame
    if precision == 0.0 and math.isfinite(sup):
        xi, w, mass, moment = pruned_hermite_tensor(order, kernel.n)
    else:
        (xi, w), mass, moment = hermite_tensor(order, kernel.n), 0.0, 0.0
    vecs = kernel.dec.eigenvectors
    if precision:
        off = mean + scale * xi
        # exp(q |y - c|^2) C undoes the data's factor at every node (at q = 0 both are 1)
        w = w * np.exp(precision * (off * off).sum(-1) + log_mass)
        nodes = off @ vecs.T + center
    else:
        # the same nodes y = c + Q (mean + scale xi), with one pass over the large rule
        nodes = xi @ (scale.swapaxes(1, 2) * vecs.T) + (mean @ vecs.T + center)
    pts = nodes.reshape(-1, kernel.n)
    if precision and want_gradient:
        return (front * np.einsum("tk,tkj->tj", w, data.gradient(pts).reshape(nodes.shape)),
                np.zeros(len(front)))
    vals = w * (data(pts) if tau is None else data(pts, tau)).reshape(nodes.shape[:-1])
    if want_gradient:
        # grad_x G / G = A^{-1}(y - x - t b) / (2 t) is grad_scale xi in the eigenbasis; node k
        # and node N-1-k are negatives, so the sum runs over xi (v(xi) - v(-xi)) pairs
        half = len(xi) // 2
        pairs = (vals[:, :half] - vals[:, :-half - 1:-1]) @ xi[:half]
        out = (front * (grad_scale[:, 0] * pairs)) @ vecs.T
    else:
        out = front[:, 0] * vals.sum(1)
    dropped = np.zeros(len(out))
    if mass:
        # sup|phi| times the dropped weight; the gradient's |xi| ||A^{-1/2}||_2 / sqrt(t) on top
        dropped = front[:, 0] * sup * (moment * grad_scale.max(-1)[:, 0] if want_gradient else mass)
    return out, dropped


def _constant_pass(kernel, value, t, want_gradient):
    """Constant data v: u = v e^{ct} and grad u = 0, exactly, at every kernel time of t."""
    if want_gradient:
        return np.zeros((t.size, kernel.n)), np.zeros(t.size)
    return value * np.exp(kernel.spec.reaction * t), np.zeros(t.size)


def _tensor_rule(breaks, sigma, order):
    """Tensor composite Gauss-Legendre nodes (m, k) and weights over the box the breaks span.

    On axis j each interval between breaks is cut into as many equal panels
    as keep the widest at most 2 sigma_j. A rule over _MAX_TENSOR_NODES
    nodes raises QuadratureFailure.
    """
    edges = []
    for cuts, sd in zip(breaks, sigma):
        lengths = cuts[1:] - cuts[:-1]
        count = math.ceil(float(lengths.max()) / (2.0 * sd))
        # start + k * step in each interval, as np.linspace computes its points
        inner = (lengths / count)[:, None] * np.arange(count) + cuts[:-1, None]
        edges.append(np.concatenate((inner.ravel(), cuts[-1:])))
    size = math.prod(e.size - 1 for e in edges) * order ** len(edges)
    if size > _MAX_TENSOR_NODES:
        raise QuadratureFailure(f"grid rule needs {size} nodes, over the budget {_MAX_TENSOR_NODES}")
    return tensor_rule([panel_nodes(e, order) for e in edges])


# math.erfc elementwise: numpy has no erfc, and scipy stays out of the package's import
_erfc = np.frompyfunc(math.erfc, 1, 1)
_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# |z| beyond which the standard normal density and tail mass are 0 in float64
_Z_MAX = 40.0


def _upper(z):
    """P(Z > z) for a standard normal Z, elementwise."""
    return 0.5 * np.asarray(_erfc(z * _SQRT_HALF), dtype=float)


def _normal_mass(a, b):
    """P(a < Z < b) for a standard normal Z, elementwise; a and b may be infinite.

    (erfc(a / sqrt 2) - erfc(b / sqrt 2)) / 2, with the interval reflected
    to (-b, -a) when it lies mostly below 0, so a mass far out in either
    tail is a difference of upper tails and keeps its relative accuracy.
    """
    scale = np.where(b < -a, -_SQRT_HALF, _SQRT_HALF)
    return np.copysign(0.5, scale) * np.asarray(_erfc(a * scale) - _erfc(b * scale), dtype=float)


def _standard(v, mean, sd):
    """(v - mean) / sd elementwise, clipped to +-_Z_MAX before the division.

    Beyond _Z_MAX nothing of a standard normal is left in float64, so the
    clip changes no answer, and no z overflows or is squared beyond float64.
    """
    reach = _Z_MAX * sd
    return np.minimum(np.maximum(v - mean, -reach), reach) / sd


def _box_1d(kernel, box, x, t, want_gradient):
    """n = 1 box data in closed form, at every kernel time of t.

    u = e^{ct} amp P(lo < Y < hi) and du/dx = e^{ct} amp (N(lo) - N(hi)),
    with Y ~ N(x + t b, 2 t a) and N its density.
    """
    sd = np.sqrt((2.0 * kernel.spec.diffusion.entries[0, 0]) * t)
    # past float64, t b and z^2 reach inf without a warning: there u = grad u = 0
    with np.errstate(over="ignore"):
        z = (np.array([box.lo, box.hi]) - (x[0] + t * kernel.spec.drift[0])) / sd
        if want_gradient:
            density = np.exp(-0.5 * z * z)
            part = (density[0] - density[1]) / (_SQRT_2PI * sd)
        else:
            part = _normal_mass(z[0], z[1])
    out = box.amp * np.exp(kernel.spec.reaction * t) * part
    return (out[:, None] if want_gradient else out), np.zeros(t.size)


def _drezner(h, k, rho):
    """P(X > h, Y > k) for |rho| < 0.925, elementwise (_bvn's first branch)."""
    x, w = legendre_rule(20)
    half = 0.5 * np.arcsin(rho)[..., None]
    sn = np.sin(half * (x + 1.0))
    hk, hs = (h * k)[..., None], (0.5 * (h * h + k * k))[..., None]
    terms = np.exp((sn * hk - hs) / (1.0 - sn * sn)) @ w
    return half[..., 0] * terms / (2.0 * math.pi) + _upper(h) * _upper(k)


def _bvn(h, k, rho):
    """P(X > h, Y > k) for standard normals X, Y of correlation rho, |rho| < 1, elementwise.

    Genz's algorithm (Stat. Comput. 14, 2004), after Drezner & Wesolowsky
    (J. Stat. Comput. Simul. 35, 1990), with 20 Gauss-Legendre nodes;
    |h|, |k| <= _Z_MAX. For |rho| < 0.925, in theta = asin r (_drezner),
    P = Phi(-h) Phi(-k) + 1/(2 pi) int_0^{asin rho} exp(-(h^2 + k^2 -
    2 h k sin theta) / (2 cos^2 theta)) dtheta. Else, with k -> -k for
    rho < 0, P = Phi(-max(h, k)) - I for rho > 0 and P(h < Z < -k) + I for
    rho < 0, where I = 1/(2 pi) int_0^{sqrt(1 - rho^2)} exp(-(h - k)^2 /
    (2 x^2) - h k / (1 + r)) / r dx, r = sqrt(1 - x^2). The rule takes the
    integrand less exp(-(h - k)^2 / (2 x^2) - h k / 2) (1 + c x^2 (1 +
    5 d x^2)), c = (4 - h k) / 8, d = (12 - h k) / 80, whose integral is
    closed form.
    """
    h, k, rho = (np.asarray(v, dtype=float) for v in (h, k, rho))
    low = np.abs(rho) < 0.925
    if low.all():
        out = _drezner(h, k, rho)
    else:
        h, k, rho, low = np.broadcast_arrays(h, k, rho, low)
        out = np.empty(h.shape)
        out[low] = _drezner(h[low], k[low], rho[low])
        h, r = h[~low], rho[~low]
        k = k[~low] * np.sign(r)
        hk, bs = h * k, (h - k) ** 2
        sq = (1.0 - np.abs(r)) * (1.0 + np.abs(r))
        a, b = np.sqrt(sq), np.sqrt(bs)
        c, d = (4.0 - hk) / 8.0, (12.0 - hk) / 80.0
        # below hk = -100 the second term is 0 in float64
        part = (a * np.exp(-0.5 * (bs / sq + hk)) * (1.0 - c * (bs - sq) * (1.0 - d * bs) / 3.0
                                                       + c * d * sq * sq)
                - np.exp(-0.5 * np.maximum(hk, -100.0)) * _SQRT_2PI * _upper(b / a) * b
                * (1.0 - c * bs * (1.0 - d * bs) / 3.0))
        x, w = legendre_rule(20)
        xs = (0.5 * a[:, None] * (x + 1.0)) ** 2
        rs = np.sqrt(1.0 - xs)
        hk, c, d = hk[:, None], c[:, None], d[:, None]
        rest = np.exp(-0.5 * (bs[:, None] / xs + hk)) * (
            np.exp(-0.5 * hk * xs / (1.0 + rs) ** 2) / rs - 1.0 - c * xs * (1.0 + 5.0 * d * xs))
        part = (part + 0.5 * a * (rest @ w)) / (2.0 * math.pi)
        out[~low] = np.where(r > 0.0, _upper(np.maximum(h, k)) - part,
                             _normal_mass(h, np.maximum(h, k)) + part)
    return np.minimum(np.maximum(out, 0.0), 1.0)


def _box_prob(lo, hi, corr):
    """P(lo < Z < hi), Z ~ N(0, corr) on d <= 2 axes, over the last axis of standardised bounds.

    At d = 2 it is four corners of _bvn, each axis whose interval lies
    mostly below 0 first reflected, so the corners are upper tails and a box
    far out keeps its relative accuracy; a box of zero width is exactly 0.
    """
    if corr.shape[-1] < 2:
        return _normal_mass(lo[..., 0], hi[..., 0]) if corr.size else np.ones(lo.shape[:-1])
    flip = hi < -lo
    lo, hi = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
    rho = np.where(flip[..., 0] == flip[..., 1], corr[..., 0, 1], -corr[..., 0, 1])
    p = _bvn(np.stack([lo[..., 0], hi[..., 0]])[:, None], np.stack([lo[..., 1], hi[..., 1]]), rho)
    return (p[0, 0] - p[1, 0]) - (p[0, 1] - p[1, 1])


def _given(lo, hi, corr, axes):
    """The mass of the other axes of Z ~ N(0, corr) given Z_j = z, as a function of z, j in axes.

    lo and hi are rows (m, d) of standardised bounds, d <= 3, and z is
    (m, k, len(axes)). Given Z_j = z the others are normal with means
    corr_oj z and covariance corr_oo - corr_oj corr_jo: standardised, a
    _box_prob.
    """
    d = corr.shape[0]
    others = np.array([[o for o in range(d) if o != j] for j in axes])
    slope = corr[np.array(axes)[:, None], others]
    sd = np.sqrt((1.0 - slope) * (1.0 + slope))
    lo, hi = lo[:, None, others], hi[:, None, others]
    cond = (corr[others[:, :, None], others[:, None]] - slope[:, :, None] * slope[:, None]
            ) / (sd[:, :, None] * sd[:, None])

    def mass(z):
        shift = slope * z[..., None]
        return _box_prob(_standard(lo, shift, sd), _standard(hi, shift, sd), cond)

    return mass


def _standardise(kernel, box, x, t):
    """The faces of the box in sds of Y ~ N(x + t b, 2 t A), rows (2, n) per kernel time.

    Returns them (_standard), the sds and the correlation matrix of Y, which
    no time changes.
    """
    times = t[:, None]
    diag = kernel.spec.diffusion.entries.diagonal()
    sd, root = np.sqrt(2.0 * times * diag), np.sqrt(diag)
    with np.errstate(over="ignore"):  # past float64 the mean is +-inf, _Z_MAX sds off every face
        mean = x + times * kernel.spec.drift
    faces = _standard(np.array([box.lo, box.hi]), mean[:, None], sd[:, None])
    return faces, sd, kernel.spec.diffusion.entries / (root[:, None] * root)


def _box_closed(kernel, box, x, t, want_gradient):
    """Box data in closed form at every kernel time of t: u at n = 2, grad u at n = 2, 3.

    u = e^{ct} amp P(lo <= Y <= hi), Y ~ N(x + t b, 2 t A) (_box_prob). By
    the divergence theorem du/dx_j = e^{ct} amp (N_j(lo_j) M_j(lo_j) -
    N_j(hi_j) M_j(hi_j)): N_j is the density of Y_j at the face and M_j the
    box probability of the other axes given Y_j there (_given). The
    correlation of Y is the same at every time, so all times take one pass.
    """
    faces, sd, corr = _standardise(kernel, box, x, t)
    if want_gradient:
        part = np.exp(-0.5 * faces * faces) / (_SQRT_2PI * sd[:, None])
        part = part * _given(faces[:, 0], faces[:, 1], corr, range(kernel.n))(faces)
        part = part[:, 0] - part[:, 1]
    else:
        part = _box_prob(faces[:, 0], faces[:, 1], corr)
    front = box.amp * np.exp(kernel.spec.reaction * t)
    return (front[:, None] if want_gradient else front) * part, np.zeros(t.size)


def _graded_edges(start, stop, centres, widths):
    """Panel edges on [start, stop], at most 2 apart and 2 w_i apart within R w_i of c_i.

    R is TRUNCATION_RADIUS: the union of a coarse grid and a fine grid about
    each centre (at least one coarse panel, empty when start = stop).
    """
    count = max(math.ceil((stop - start) / 2.0), 1)
    coarse = np.append(start + np.arange(count) * ((stop - start) / count), stop)
    if not centres.size:
        return coarse
    steps = np.arange(-TRUNCATION_RADIUS, TRUNCATION_RADIUS + 1.0, 2.0)
    fine = centres[:, None] + widths[:, None] * steps
    return np.unique(np.clip(np.concatenate((coarse, fine.ravel())), start, stop))


def _box_mass(faces, corr):
    """P(lo <= Z <= hi), Z ~ N(0, corr) on three axes, as mass(rule) of the rule (order, split).

    faces holds the standardised bounds (lo, hi) of m kernel times, (m, 2,
    3), and mass(rule) gives the m probabilities. Z_0 takes composite
    Gauss-Legendre over [lo_0, hi_0] within +-TRUNCATION_RADIUS against
    the bivariate normal of the others given it (_given; Genz's separation
    of variables, J. Comput. Graph. Stat. 1, 1992). Given Z_0 = z they have
    mean z s, s = corr_{1:, 0}, and covariance C = corr_{1:, 1:} - s s^T,
    and their box probability turns where the level of z s along a normal
    n passes that of a corner, over the width sqrt(n^T C n) / |n . s|: for
    the normals of the faces, and for C's thin axis, along which a strongly
    correlated law sweeps over a corner. Each time's panels grade toward
    every turn narrower than 1 (_graded_edges); the rule cuts each into
    split, takes the panels of all times in one pass and sums them by time,
    and a rule and the next of _BOX_RULES share the pass.
    """
    lo, hi = faces[:, 0], faces[:, 1]
    start = np.maximum(lo[:, 0], -TRUNCATION_RADIUS)
    # a window that misses the box on Z_0 keeps the empty interval [start, start]
    stop = np.maximum(np.minimum(hi[:, 0], TRUNCATION_RADIUS), start)
    slope = corr[1:, 0]
    cond = corr[1:, 1:] - np.outer(slope, slope)
    angle = 0.5 * math.atan2(2.0 * cond[0, 1], cond[0, 0] - cond[1, 1])  # C's long axis
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [-math.sin(angle), math.cos(angle)]])
    speed = normals @ slope
    thick = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", normals, cond, normals), 0.0))
    sharp = np.abs(speed) > thick
    # the level of each corner (lo_1 or hi_1, lo_2 or hi_2) along each sharp normal
    levels = (faces[:, :, None, 1, None] * normals[sharp, 0]
              + faces[:, None, :, 2, None] * normals[sharp, 1])
    widths = np.tile(thick[sharp] / np.abs(speed[sharp]), 4)
    edges = [_graded_edges(a, b, c, widths) for a, b, c in
             zip(start.tolist(), stop.tolist(), (levels / speed[sharp]).reshape(len(faces), -1))]
    # the panels of every time, and the time each belongs to
    lefts = np.concatenate([e[:-1] for e in edges])[:, None]
    rights = np.concatenate([e[1:] for e in edges])[:, None]
    row = np.repeat(np.arange(len(edges)), [e.size - 1 for e in edges])
    inner = _given(lo[row], hi[row], corr, [0])
    done = {}

    def mass(rule):
        if rule not in done:
            rules = _BOX_RULES[_BOX_RULES.index(rule):][:2]
            parts = []
            for order, split in rules:
                # every panel cut into split first
                cuts = lefts + (rights - lefts) * (np.arange(split) / split)
                ends = np.concatenate((cuts[:, 1:], rights), 1)
                z, w = legendre_panels(cuts[..., None], ends[..., None], order)
                parts.append((z.reshape(-1, split * order), w.reshape(-1, split * order)))
            z = np.concatenate([z for z, _ in parts], 1)
            density = np.exp(-0.5 * z * z) * inner(z[..., None])[..., 0]
            for key, (_, w), end in zip(rules, parts, np.cumsum([w.shape[1] for _, w in parts])):
                panel = np.einsum("ij,ij->i", density[:, end - w.shape[1]:end], w)
                done[key] = np.bincount(row, panel, len(faces)) / _SQRT_2PI
        return done[rule]

    return mass


def _grid_1d(kernel, grid, x, t, want_gradient):
    """n = 1 grid data in closed form, at every kernel time of t.

    On the cell [y_k, y_k+1] the interpolant is v_k + beta_k (y - y_k).
    Against Y ~ N(m, sd^2), m = x + t b, sd = sqrt(2 t a), with z = (y - m)
    / sd and level = v_k + beta_k (m - y_k), the cell gives level (Phi(z_b)
    - Phi(z_a)) + beta_k sd (phi(z_a) - phi(z_b)), and du/dx is the
    derivative of the cell sum in m, which keeps the jumps at the grid's
    two ends: [level (phi(z_a) - phi(z_b)) + beta_k sd (Phi(z_b) - Phi(z_a)
    + z_a phi(z_a) - z_b phi(z_b))] / sd. Only the cells that meet some
    time's window m +- TRUNCATION_RADIUS sd count, as in _grid_pass; z is
    standardised by _standard, so no z overflows.
    """
    times = t[:, None]
    mean = x[0] + times * kernel.spec.drift[0]
    sd = np.sqrt(2.0 * times * kernel.spec.diffusion.entries[0, 0])
    (origin,), (h,), values = grid.origin, grid.spacing, grid.values
    ys = origin + h * np.arange(values.size)
    reach = TRUNCATION_RADIUS * sd
    first = max(int(np.searchsorted(ys, (mean - reach).min(), "right")) - 1, 0)
    last = int(np.searchsorted(ys, (mean + reach).max()))
    ys, values = ys[first:last + 1], values[first:last + 1]
    beta = np.diff(values) / h
    level = values[:-1] + beta * (mean - ys[:-1])
    z = _standard(ys, mean, sd)
    za, zb = z[:, :-1], z[:, 1:]
    mass = _normal_mass(za, zb)
    density = np.exp(-0.5 * z * z) / _SQRT_2PI
    pa, pb = density[:, :-1], density[:, 1:]
    if want_gradient:
        part = (level * (pa - pb) + beta * sd * (mass + za * pa - zb * pb)).sum(-1) / sd[:, 0]
    else:
        part = (level * mass + beta * sd * (pa - pb)).sum(-1)
    out = np.exp(kernel.spec.reaction * t) * part
    return (out[:, None] if want_gradient else out), np.zeros(t.size)


def _grid_pass(kernel, grid, x, t, order, want_gradient):
    """The tensor rule of one order on the grid's multilinear interpolant, at one kernel time t.

    It runs over the grid's support clipped to the kernel's window x + t b
    +- TRUNCATION_RADIUS sqrt(2 t A_jj), with panel edges at the grid
    lines, so every panel lies in one cell.
    """
    lines = [o + h * np.arange(m) for o, h, m in zip(grid.origin, grid.spacing, grid.values.shape)]
    mean = x + t * kernel.spec.drift
    sigma = np.sqrt(2.0 * t * kernel.spec.diffusion.entries.diagonal())
    lo = np.maximum([g[0] for g in lines], mean - TRUNCATION_RADIUS * sigma)
    hi = np.minimum([g[-1] for g in lines], mean + TRUNCATION_RADIUS * sigma)
    if (hi <= lo).any():
        return np.zeros((1, kernel.n) if want_gradient else 1), np.zeros(1)
    breaks = [np.concatenate([[l], g[(g > l) & (g < h)], [h]]) for l, h, g in zip(lo, hi, lines)]
    args, weights = _tensor_rule(breaks, sigma, order)
    weights = weights * grid(args)
    np.subtract(x, args, out=args)
    kern = kernel.gradient(args, t) if want_gradient else kernel.value(args, t)
    return (weights @ kern)[None], np.zeros(1)


def _kinks(data, t, tau):
    """The kinks of n = 1 data, one list per kernel time: a forcing's at each time's tau."""
    if tau is None:
        return [data.kinks_1d()] * t.size
    return [data.spatial_kinks(s) for s in tau.tolist()]


def _kink_route(kernel, data, x, t, want_gradient, tau, kinks):
    """(rule, keys) of n = 1 data with kinks, at every kernel time of t.

    Each time takes Gauss-Legendre panels over its kernel window x + t b
    +- TRUNCATION_RADIUS 2 sqrt(t a), graded toward its kinks (_kinks).
    The edges are built once per time, here; a rule then evaluates the
    data (a forcing with each time's tau on that time's rows) and the
    kernel once over the panels of all times and sums them by time.
    """
    center = x[0] + t * kernel.spec.drift[0]
    sigma = 2.0 * np.sqrt(t * float(kernel.dec.eigenvalues[-1]))
    edges, counts = panel_edges_batch(center - TRUNCATION_RADIUS * sigma,
                                      center + TRUNCATION_RADIUS * sigma, kinks)
    # every edge but each time's last starts a panel; the panels are built once, not per key
    starts = np.ones(edges.size, dtype=bool)
    starts[np.cumsum(counts) - 1] = False
    lefts = edges[starts][:, None]
    rights = edges[1:][starts[:-1]][:, None]
    panels = counts - 1

    def rule(order):
        nodes, weights = (a.reshape(-1) for a in legendre_panels(lefts, rights, order))
        rows = panels * order
        vals = data(nodes[:, None]) if tau is None else data(nodes[:, None], np.repeat(tau, rows))
        args = (x[0] - nodes)[:, None]
        # one time goes to the kernel as its scalar time for all rows: no time scan per row
        at = float(t[0]) if t.size == 1 else np.repeat(t, rows)
        kern = kernel.gradient(args, at)[:, 0] if want_gradient else kernel.value(args, at)
        out = np.add.reduceat(weights * (kern * vals), np.cumsum(rows) - rows)
        return (out[:, None] if want_gradient else out), np.zeros(t.size)

    return rule, _KINK_RULES


def _per_time(route, t, tau):
    """One rule over the kernel times t that stacks route(s, tau_s), the rule at one time s."""
    taus = [None] * t.size if tau is None else tau.tolist()
    rules = [route(s, at) for s, at in zip(t.tolist(), taus)]

    def rule(key):
        values, dropped = zip(*(one(key) for one in rules))
        return np.concatenate(values), np.concatenate(dropped)

    return rule


@lru_cache(maxsize=None)
def _hermite_keys(dim: int):
    """The kernel frame's Hermite ladder, 48 then 64 doubled up to 256, within the node budget."""
    return tuple(order for order in (48, 64, 128, 256) if order**dim <= _MAX_TENSOR_NODES)

# (Gauss-Legendre order, split of every panel) of the n = 3 box u rule, coarse first
_BOX_RULES = ((8, 1), (12, 1), (12, 2))
# Gauss-Legendre orders of the kink panels, coarse first
_KINK_RULES = (8, 12)
# Gauss-Legendre orders of the grid cells, coarse first
_GRID_ORDERS = tuple(range(1, 13))
# a closed form: its coarse and fine rungs are one and the same
_CLOSED_FORM = ("closed form",) * 2


def _closed(result):
    """A closed form as a rule of _route, computed once: every key gives result."""
    return (lambda key: result), _CLOSED_FORM


def _route(kernel, data, x, t, want_gradient, sup, tau=None):
    """The rule for the integral of G(x - y, s) phi(y) over y at every kernel time s of t.

    t is a 1-D array of m kernel times, and tau, for a forcing that varies
    in time, its m forcing times. Returns (rule, keys): rule(key) gives the
    integrals, values (m,) or gradients (m, n), and bounds (m,) on what the
    rule leaves out; keys[0] names the coarse comparison rule and keys[1:]
    the ladder an unmet error estimate climbs. Data with a Gaussian factor
    takes _hermite_pass in the frame of its product with the kernel at its
    one exact order, constant data its closed form, box data its Gaussian
    box probability (_box_1d, _box_closed, _box_mass for n = 3 u), grid
    data its cells (_grid_1d in closed form at n = 1), n = 1 data with
    kinks the kink panels and everything else _hermite_pass in the
    kernel's own frame (q = 0). A closed form is computed here, once, under
    the key _CLOSED_FORM. Every route takes all times at once but the n >= 2
    grids and the kernel frame (_per_time).
    """
    factor = None if tau is not None else data.gaussian_factor()
    if factor is not None:
        center, spread, degree = factor
        order = (degree + 3) // 2  # exact to degree 2 order - 1 per axis, the gradient's included
        if order > 256 or order**kernel.n > _MAX_TENSOR_NODES:
            raise QuadratureFailure(f"degree {degree} needs Hermite order {order}, over the budget")
        frame = _product_frame(kernel, x, t, np.asarray(center), 0.25 / spread,
                               (degree, sup, want_gradient))
        return _closed(_hermite_pass(kernel, data, frame, order, want_gradient, sup))
    elif isinstance(data, ConstantData):
        return _closed(_constant_pass(kernel, data.value, t, want_gradient))
    elif isinstance(data, BoxIndicator) and data.n == 1:
        return _closed(_box_1d(kernel, data, x, t, want_gradient))
    elif isinstance(data, BoxIndicator) and (data.n == 2 or want_gradient):
        return _closed(_box_closed(kernel, data, x, t, want_gradient))
    elif isinstance(data, BoxIndicator):
        # n = 3 u: e^{ct} amp P(lo <= Y <= hi), a 1-D ladder
        faces, _, corr = _standardise(kernel, data, x, t)
        mass = _box_mass(faces, corr)
        front = data.amp * np.exp(kernel.spec.reaction * t)
        return (lambda key: (front * mass(key), np.zeros(t.size))), _BOX_RULES
    elif isinstance(data, GridData) and data.n == 1:
        return _closed(_grid_1d(kernel, data, x, t, want_gradient))
    elif kernel.n == 1 and any(kinks := _kinks(data, t, tau)):
        return _kink_route(kernel, data, x, t, want_gradient, tau, kinks)
    elif isinstance(data, GridData):
        return (_per_time(lambda s, _: partial(_grid_pass, kernel, data, x, s,
                                               want_gradient=want_gradient), t, tau),
                _GRID_ORDERS)
    else:
        # the kernel's own frame, one time (and tau) at a time
        return _per_time(lambda s, at: partial(
            _hermite_pass, kernel, data, _product_frame(kernel, x, s, np.zeros(kernel.n), 0.0),
            want_gradient=want_gradient, sup=sup, tau=at), t, tau), _hermite_keys(kernel.n)


def _magnitude(v) -> float:
    """Euclidean norm of a value or gradient; unlike sqrt(v.v) it cannot overflow."""
    return math.hypot(*v) if isinstance(v, np.ndarray) else abs(v)


def _tolerance_scale(value, bound) -> float:
    """Error-control scale: |value|, floored at 1e-3 of the a priori bound when that is finite."""
    scale = _magnitude(value)
    if not math.isfinite(bound):
        return scale
    return max(scale, 1e-3 * bound)


class _SigmaPanel:
    """The 15 G7K15 sigma nodes of one Duhamel panel [a, b], with their spatial rule.

    With t - tau = sigma^2 the integrand is 2 sigma times the spatial
    integral at kernel time sigma^2. The panel's 15 kernel times go to
    _route as one array: a TimeInvariantForcing as its profile, any other
    forcing with the 15 forcing times tau. at(k) runs the rule at index k
    of its ladder, clamped to its last key, and keeps what each key
    computed: the values and the bounds on what the rule leaves out, both
    stacked by node.
    """

    def __init__(self, kernel, forcing, x, t, want_gradient, sup, a, b):
        self.ends = (a, b)
        half = 0.5 * (b - a)
        sigmas = (a + half) + half * GK15_NODES
        times = sigmas * sigmas
        data, tau = ((forcing.profile, None) if isinstance(forcing, TimeInvariantForcing)
                     else (forcing, t - times))
        self.rule, self.keys = _route(kernel, data, x, times, want_gradient, sup, tau)
        self.depth = len(self.keys)
        self.kronrod = 2.0 * half * sigmas * GK15_WEIGHTS
        self.gauss = 2.0 * half * sigmas * G7_WEIGHTS
        self.cache = {}

    def at(self, k):
        key = self.keys[min(k, self.depth - 1)]
        if key not in self.cache:
            self.cache[key] = self.rule(key)
        return self.cache[key]

    def sums(self, k):
        """The panel's sums at ladder index k.

        They are the Kronrod integral, |K - G|, the change of the integral
        from index k - 1 and the bound on what the spatial rules leave out.
        """
        fine, dropped = self.at(k)
        kronrod = self.kronrod @ fine
        change = self.kronrod @ (fine - self.at(k - 1)[0])
        return kronrod, _magnitude(kronrod - self.gauss @ fine), change, self.kronrod @ dropped


def _sigma_edges(t, c):
    """The Duhamel rule's starting sigma edges, from the two scales it knows a priori.

    They are sqrt(t) _SIGMA_EDGES, graded toward sigma = 0, and for c < 0 the
    _DECAY_EDGES / sqrt|c| that lie below the first of them (none while |c| t <= 4).
    """
    fractions = _SIGMA_EDGES
    if c < 0.0:
        decay = _DECAY_EDGES / math.sqrt(-c * t)
        fractions = np.concatenate(([0.0], decay[decay < fractions[1]], fractions[1:]))
    return math.sqrt(t) * fractions


def _duhamel(kernel, forcing, x, t, quad, want_gradient, sup, bound):
    """The Duhamel integral over sigma on (0, sqrt t), t - tau = sigma^2, by adaptive G7K15.

    Global adaptive bisection as in QUADPACK's QAG (Piessens et al. 1983):
    from the panels between _sigma_edges, the panel with the largest |K15 - G7|
    is halved until the estimate meets target_rel_err times the tolerance
    scale. The estimate is the sum of |K15 - G7| over the panels, plus the
    spatial estimate: every node's rule runs at index k and k - 1 of its
    ladder (from k = 1), and the magnitude of the change of the integral
    and the summed dropped bounds join. Where the spatial part is the
    larger, k climbs instead while a ladder has keys left. Returns the
    integral and its estimate; an estimate still unmet when the spatial
    part alone misses on the last key, or at _MAX_SIGMA_PANELS panels, is
    left to the caller to raise.
    """
    panel = partial(_SigmaPanel, kernel, forcing, x, t, want_gradient, sup)
    edges = _sigma_edges(t, kernel.spec.reaction)
    panels = [panel(a, b) for a, b in zip(edges[:-1], edges[1:])]
    k = 1
    while True:
        kronrod, errors, change, dropped = zip(*(p.sums(k) for p in panels))
        value = sum(kronrod)
        sigma_est = sum(errors)
        space_est = _magnitude(sum(change)) + sum(dropped)
        est = sigma_est + space_est
        tol = quad.target_rel_err * _tolerance_scale(value, bound)
        if est <= tol or not (math.isfinite(est) and np.all(np.isfinite(value))):
            return value, est
        if space_est > sigma_est and k + 1 < max(p.depth for p in panels):
            k += 1
        elif space_est < tol and len(panels) < _MAX_SIGMA_PANELS:
            a, b = panels.pop(int(np.argmax(errors))).ends
            panels += [panel(a, 0.5 * (a + b)), panel(0.5 * (a + b), b)]
        else:
            return value, est


def _eval(kernel, data, x, t, quad, want_gradient, nonhom):
    """u(x, t) or grad u(x, t) within target_rel_err of the tolerance scale.

    The homogeneous solve climbs the ladder of the spatial rule _route
    picks, each rung checked against the one below; the nonhomogeneous one
    is _duhamel's adaptive rule, for a bounded forcing only (an unbounded
    one raises QuadratureFailure before any quadrature). The scale floor
    is 1e-3 of the a priori bound, e^{ct} sup|phi| or (e^{ct} - 1)/c sup|f|
    (t sup|f| for c = 0), divided by sqrt(t) for gradients.
    """
    x, t = _check_solver_args(kernel, x, t)
    if data.n != kernel.n:
        raise DomainError(f"data dimension {data.n} != problem dimension {kernel.n}")
    sup = data.sup_norm(t) if nonhom else data.sup_norm()
    if sup == 0.0:
        return np.zeros(kernel.n) if want_gradient else 0.0
    if nonhom and sup == math.inf:
        # the Gauss-Kronrod estimate of the sigma rule assumes a bounded integrand
        raise QuadratureFailure("the Duhamel rule needs a bounded forcing; sup|f| is infinite")
    _check_float_range(kernel, t, want_gradient)
    c = kernel.spec.reaction
    bound = ((math.expm1(c * t) / c if c else t) if nonhom else math.exp(c * t)) * sup
    if want_gradient:
        bound /= math.sqrt(t)
    # with the bound beyond float64 the answer may overflow on the way; the check below names it
    with np.errstate(over="ignore", invalid="ignore") if math.isinf(bound) else nullcontext():
        if nonhom:
            value, est = _duhamel(kernel, data, x, t, quad, want_gradient, sup, bound)
        else:
            rule, keys = _route(kernel, data, x, np.array([t]), want_gradient, sup)

            def at(key):  # the one time's gradient, or u, and its bound as floats
                values, dropped = rule(key)
                return (values[0] if want_gradient else float(values[0])), float(dropped[0])
            value, _ = at(keys[0])
            est = math.inf
            for key in keys[1:]:
                finer, dropped = at(key)
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
