"""Solver answers against references computed without the solver's rules.

Polygauss data against Isserlis moments of the product Gaussian, box data
against erf of the (conditional) normal law, with gradients from the face
integrals of the kernel, Gaussian data far into the wide-kernel regime
against its closed form, grid data against erf and exp per linear cell of
its interpolant, and constant data against v e^{ct}. Every comparison uses
the solver's own error contract: target_rel_err times max(|reference|,
1e-3 of the bound e^{ct} sup|data|, divided by sqrt(t) for gradients).
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf

from parabound import solver as sv
from parabound.sources import (
    BoxIndicator,
    ConstantData,
    GaussianBump,
    GridData,
    PolynomialGaussian,
    TimeInvariantForcing,
)

from .test_kernel import make_kernel, random_kernel
from .test_solver import gaussian_closed_form

TARGET = sv.DEFAULT_QUADRATURE.target_rel_err


def assert_within_contract(u, grad, u_ref, grad_ref, bound, t):
    assert abs(u - u_ref) <= TARGET * max(abs(u_ref), 1e-3 * bound)
    grad_scale = max(np.linalg.norm(grad_ref), 1e-3 * bound / math.sqrt(t))
    assert np.linalg.norm(np.asarray(grad) - grad_ref) <= TARGET * grad_scale


def normal_moment(mean, cov, idx):
    """E[prod_{i in idx} Y_i] for Y ~ N(mean, cov), by Isserlis' recursion."""
    if not idx:
        return 1.0
    first, rest = idx[0], idx[1:]
    total = mean[first] * normal_moment(mean, cov, rest)
    for k, other in enumerate(rest):
        total += cov[first, other] * normal_moment(mean, cov, rest[:k] + rest[k + 1:])
    return total


def polygauss_reference(kernel, phi, x, t):
    """u and grad u for PolynomialGaussian data, in closed form.

    The kernel is the N(m, 2tA) density (m = x + t b) times e^{ct}; times
    the data's factor exp(-|y - c|^2 / (4 s)) it is C N(mu, S), with
    S^{-1} = (2tA)^{-1} + I / (2s). The polynomial's moments under
    N(mu, S) follow from Isserlis; grad_x G = -(1/2t) A^{-1}(m - y) G.
    """
    n, s = kernel.n, phi.spread
    a = kernel.spec.diffusion.entries
    c = np.asarray(phi.center)
    m = np.asarray(x) + t * kernel.spec.drift
    prec_k = np.linalg.inv(2.0 * t * a)
    cov = np.linalg.inv(prec_k + np.eye(n) / (2.0 * s))
    mean = cov @ (prec_k @ m + c / (2.0 * s)) - c  # of V = Y - c
    d = m - c
    mass = (np.linalg.det(np.eye(n) + t * a / s) ** -0.5
            * math.exp(-(d @ np.linalg.solve(s * np.eye(n) + t * a, d)) / 4.0))
    front = math.exp(kernel.spec.reaction * t) * phi.amp * mass
    idx = tuple(j for j, k in enumerate(phi.powers) for _ in range(k))
    base = normal_moment(mean, cov, idx)
    first = np.array([normal_moment(mean, cov, (i,) + idx) for i in range(n)])
    grad = -np.linalg.solve(a, d * base - first) / (2.0 * t) * front
    return front * base, grad


def normal_cdf_between(lo, hi, mean, sd):
    return 0.5 * (erf((hi - mean) / (math.sqrt(2.0) * sd)) - erf((lo - mean) / (math.sqrt(2.0) * sd)))


def normal_pdf(v, mean, sd):
    return math.exp(-0.5 * ((v - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def box2_reference(kernel, box, x, t):
    """u and grad u for n = 2 box data and any SPD A.

    u = e^{ct} amp P(lo <= Y <= hi), Y ~ N(x + t b, 2tA): the inner axis in
    closed form with erf of the conditional law, the outer one by
    scipy.integrate.quad. du/dx_j = e^{ct} amp (F_j(lo_j) - F_j(hi_j)),
    F_j(v) the kernel integrated over the face y_j = v.
    """
    cov = 2.0 * t * kernel.spec.diffusion.entries
    m = np.asarray(x) + t * kernel.spec.drift
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    front = math.exp(kernel.spec.reaction * t) * box.amp

    def face(j, v):
        k = 1 - j
        sd_j = math.sqrt(cov[j, j])
        mean_k = m[k] + cov[k, j] / cov[j, j] * (v - m[j])
        sd_k = math.sqrt(cov[k, k] - cov[k, j] ** 2 / cov[j, j])
        return normal_pdf(v, m[j], sd_j) * normal_cdf_between(lo[k], hi[k], mean_k, sd_k)

    reach = 12.0 * math.sqrt(cov[0, 0])
    a, b = max(lo[0], m[0] - reach), min(hi[0], m[0] + reach)
    prob = 0.0
    if a < b:
        prob = integrate.quad(lambda v: face(0, v), a, b, epsabs=1e-15, epsrel=1e-12,
                              limit=200)[0]
    grad = np.array([face(j, lo[j]) - face(j, hi[j]) for j in range(2)])
    return front * prob, front * grad


def box_diagonal_reference(kernel, box, x, t):
    """u and grad u for box data and diagonal A: products of 1-D erf."""
    sd = np.sqrt(2.0 * t * np.diag(kernel.spec.diffusion.entries))
    m = np.asarray(x) + t * kernel.spec.drift
    probs = np.array([normal_cdf_between(l, h, mj, s)
                      for l, h, mj, s in zip(box.lo, box.hi, m, sd)])
    dens = np.array([normal_pdf(l, mj, s) - normal_pdf(h, mj, s)
                     for l, h, mj, s in zip(box.lo, box.hi, m, sd)])
    front = math.exp(kernel.spec.reaction * t) * box.amp
    grad = np.array([dens[j] * np.prod(np.delete(probs, j)) for j in range(len(m))])
    return front * float(np.prod(probs)), front * grad


def solve_both(kernel, data, x, t):
    return sv.solve_homogeneous(kernel, data, x, t), sv.gradient_homogeneous(kernel, data, x, t)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polygauss_matches_isserlis_moments(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(4):
        k = random_kernel(rng, n)
        powers = tuple(int(p) for p in rng.integers(0, 3, n))
        phi = PolynomialGaussian(center=tuple(rng.uniform(-1, 1, n)),
                                 spread=float(rng.uniform(0.05, 1.0)), powers=powers,
                                 amp=float(rng.uniform(-2, 2)))
        lam_max = float(k.dec.eigenvalues[-1])
        # from a narrow kernel to one 25 times wider than the data
        for tau in (0.1, 2.0, 25.0):
            t = min(tau * 2.0 * phi.spread / lam_max, 8.0)
            x = np.asarray(phi.center) - t * k.spec.drift + rng.uniform(-1, 1, n)
            u, grad = solve_both(k, phi, x, t)
            u_ref, grad_ref = polygauss_reference(k, phi, x, t)
            assert_within_contract(u, grad, u_ref, grad_ref,
                                   math.exp(k.spec.reaction * t) * phi.sup_norm(), t)


def test_isserlis_reference_reduces_to_gaussian_closed_form():
    rng = np.random.default_rng(7)
    k = random_kernel(rng, 2)
    phi = PolynomialGaussian(center=(0.3, -0.2), spread=0.4, powers=(0, 0), amp=1.5)
    bump = GaussianBump(center=(0.3, -0.2), spread=0.4, amp=1.5)
    u_ref, grad_ref = polygauss_reference(k, phi, [0.1, 0.5], 0.7)
    u_cf, grad_cf = gaussian_closed_form(k, bump, [0.1, 0.5], 0.7)
    assert u_ref == pytest.approx(u_cf, rel=1e-13)
    assert np.allclose(grad_ref, grad_cf, rtol=1e-12, atol=0.0)


def test_box_2d_nondiagonal_matches_conditional_erf():
    rng = np.random.default_rng(11)
    for _ in range(3):
        k = random_kernel(rng, 2)
        box = BoxIndicator(lo=(-0.5, -0.3), hi=(0.6, 0.4), amp=float(rng.uniform(0.5, 2)))
        for t in (0.01, 0.3, 2.0):
            for x in rng.uniform(-1.2, 1.2, (3, 2)):
                x = x - t * k.spec.drift
                u, grad = solve_both(k, box, x, t)
                u_ref, grad_ref = box2_reference(k, box, x, t)
                assert_within_contract(u, grad, u_ref, grad_ref,
                                       math.exp(k.spec.reaction * t) * box.amp, t)


def test_box_2d_one_axis_inside_the_window():
    # the box spans the kernel's whole window along y_2: that axis
    # integrates out and only y_1 takes the panel rule
    k = make_kernel([[1.0, 0.6], [0.6, 2.0]], [0.5, -1.0], -0.25)
    box = BoxIndicator(lo=(-0.2, -40.0), hi=(0.3, 40.0))
    for x, t in [([0.25, 0.0], 0.05), ([-0.2, 3.0], 0.4), ([1.0, 0.0], 1.5)]:
        u, grad = solve_both(k, box, x, t)
        u_ref, grad_ref = box2_reference(k, box, x, t)
        assert_within_contract(u, grad, u_ref, grad_ref, math.exp(-0.25 * t), t)


def test_box_3d_diagonal_with_drift_matches_erf_products():
    k = make_kernel(np.diag([0.4, 1.5, 2.5]), [0.7, -1.2, 0.3], 0.35)
    rng = np.random.default_rng(3)
    # the second box spans the kernel's whole window along y_3
    for box in (BoxIndicator(lo=(-0.4, -0.6, -1.0), hi=(0.5, 0.2, 1.3), amp=-1.7),
                BoxIndicator(lo=(-0.4, -0.6, -30.0), hi=(0.5, 0.2, 30.0), amp=-1.7)):
        for t in (0.02, 0.25, 1.0):
            for x in rng.uniform(-0.8, 0.8, (3, 3)):
                x = x - t * k.spec.drift
                u, grad = solve_both(k, box, x, t)
                u_ref, grad_ref = box_diagonal_reference(k, box, x, t)
                assert_within_contract(u, grad, u_ref, grad_ref, math.exp(0.35 * t) * 1.7, t)


def test_box_1d_next_to_an_edge_at_small_time():
    k = make_kernel([[0.8]], [0.6], -0.4)
    box = BoxIndicator(lo=(-1.0,), hi=(0.5,))
    for t in (1e-6, 1e-3):
        sd = math.sqrt(2.0 * 0.8 * t)
        for m in (0.5 - 1e-3 * sd, 0.5 + 1e-3 * sd, -1.0 + 1e-3 * sd, -1.0 - 1e-3 * sd):
            x = [m - 0.6 * t]
            u, grad = solve_both(k, box, x, t)
            u_ref, grad_ref = box_diagonal_reference(k, box, x, t)
            assert_within_contract(u, grad, u_ref, grad_ref, math.exp(-0.4 * t), t)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("tau", [15.0, 25.0])
def test_gaussian_data_under_a_wide_kernel(n, tau):
    # tau = t lam_max / (2 spread): the kernel is 15 to 25 times wider than the data
    rng = np.random.default_rng(int(tau) + n)
    for _ in range(3):
        k = random_kernel(rng, n, horizon=50.0)
        phi = GaussianBump(center=tuple(rng.uniform(-0.5, 0.5, n)), spread=0.1, amp=1.3)
        t = tau * 2.0 * phi.spread / float(k.dec.eigenvalues[-1])
        x = np.asarray(phi.center) - t * k.spec.drift + rng.uniform(-1, 1, n)
        u, grad = solve_both(k, phi, x, t)
        u_ref, grad_ref = gaussian_closed_form(k, phi, x, t)
        assert_within_contract(u, grad, u_ref, grad_ref, math.exp(k.spec.reaction * t) * 1.3, t)


def test_box_forcing_2d_answers():
    # u(x, t) is the homogeneous box solution integrated over kernel time s;
    # the points keep away from the box edges, where the time rule needs
    # grading (see ROADMAP)
    k = make_kernel(np.diag([1.3, 0.6]), [0.5, -1.0], -0.25)
    box = BoxIndicator(lo=(-0.5, -0.3), hi=(0.5, 0.4))
    forcing = TimeInvariantForcing(box)
    for x, t in [([0.3, 0.1], 1.0), ([0.0, 0.0], 0.5), ([0.9, -0.6], 0.8)]:
        u = sv.solve_nonhomogeneous(k, forcing, x, t)
        grad = sv.gradient_nonhomogeneous(k, forcing, x, t)
        u_ref = integrate.quad(lambda s: box_diagonal_reference(k, box, x, s)[0], 0.0, t,
                               epsabs=1e-15, epsrel=1e-12, limit=200)[0]
        grad_ref = np.array([
            integrate.quad(lambda s: box_diagonal_reference(k, box, x, s)[1][j], 0.0, t,
                           epsabs=1e-15, epsrel=1e-12, limit=200)[0]
            for j in range(2)
        ])
        mass = (math.exp(-0.25 * t) - 1.0) / -0.25
        assert abs(u - u_ref) <= TARGET * max(abs(u_ref), 1e-3 * mass)
        grad_scale = max(np.linalg.norm(grad_ref), 1e-3 * mass / math.sqrt(t))
        assert np.linalg.norm(grad - grad_ref) <= TARGET * grad_scale


def duhamel_reference(reference, kernel, profile, x, t):
    """u and grad u for TimeInvariantForcing(profile): the homogeneous reference over kernel time s."""
    def both(s):
        u, grad = reference(kernel, profile, x, s)
        return np.concatenate([[u], grad])

    out = integrate.quad_vec(both, 0.0, t, epsabs=1e-15, epsrel=1e-12, limit=400)[0]
    return out[0], out[1:]


def assert_duhamel_within_contract(kernel, profile, reference, x, t):
    forcing = TimeInvariantForcing(profile)
    u = sv.solve_nonhomogeneous(kernel, forcing, x, t)
    grad = sv.gradient_nonhomogeneous(kernel, forcing, x, t)
    u_ref, grad_ref = duhamel_reference(reference, kernel, profile, x, t)
    c = kernel.spec.reaction
    mass = math.expm1(c * t) / c if c else t
    assert_within_contract(u, grad, u_ref, grad_ref, mass * profile.sup_norm(), t)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polygauss_forcing_matches_time_integral_of_isserlis_moments(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(2):
        k = random_kernel(rng, n)
        phi = PolynomialGaussian(center=tuple(rng.uniform(-1, 1, n)), spread=float(rng.uniform(0.2, 0.8)),
                                 powers=tuple(int(p) for p in rng.integers(0, 3, n)),
                                 amp=float(rng.uniform(0.5, 2.0)))
        t = float(rng.uniform(0.3, 2.0))
        x = np.asarray(phi.center) - 0.5 * t * k.spec.drift + rng.uniform(-1, 1, n)
        assert_duhamel_within_contract(k, phi, polygauss_reference, x, t)


def test_box_forcing_1d_near_an_edge():
    # x at 0.15 to 0.3 sqrt(2 a t) inside or outside either face; closer
    # in, the uniform sigma panels need grading (see ROADMAP)
    a = 0.8
    k = make_kernel([[a]], [0.3], -0.4)
    box = BoxIndicator(lo=(-1.0,), hi=(0.5,), amp=1.5)
    for t, edge, offset in [(0.5, 0.5, -0.15), (1.0, 0.5, 0.2), (0.2, -1.0, 0.25), (2.0, -1.0, -0.3)]:
        x = [edge + offset * math.sqrt(2.0 * a * t)]
        assert_duhamel_within_contract(k, box, box_diagonal_reference, x, t)


def linear_cells_moments(values, origin, h, mean, sd):
    """E f(Y) and its derivative in mean, cell by cell, for Y ~ N(mean, sd^2).

    f is the piecewise-linear interpolant of values at origin + h k, zero
    outside. On a cell f(y) = alpha + beta y; with y = mean + sd z and
    level = alpha + beta mean the cell gives
    level dPhi + beta sd (phi(z_a) - phi(z_b)), and since
    d/dmean N(y; mean, sd^2) = (y - mean) / sd^2 N, the derivative is
    [level (phi(z_a) - phi(z_b)) + beta sd (dPhi + z_a phi(z_a) - z_b phi(z_b))] / sd.
    """
    values = np.asarray(values, dtype=float)
    ys = origin + h * np.arange(values.size)
    beta = np.diff(values) / h
    level = values[:-1] - beta * ys[:-1] + beta * mean
    za, zb = (ys[:-1] - mean) / sd, (ys[1:] - mean) / sd
    mass = 0.5 * (erf(zb / math.sqrt(2.0)) - erf(za / math.sqrt(2.0)))
    pa = np.exp(-0.5 * za**2) / math.sqrt(2.0 * math.pi)
    pb = np.exp(-0.5 * zb**2) / math.sqrt(2.0 * math.pi)
    value = np.sum(level * mass + beta * sd * (pa - pb))
    slope = np.sum(level * (pa - pb) + beta * sd * (mass + za * pa - zb * pb)) / sd
    return float(value), float(slope)


def grid_reference(kernel, grid, factors, x, t):
    """u and grad u for grid data with samples outer(*factors) and a diagonal A.

    In n dimensions the multilinear interpolant of an outer product is the
    product of the 1-D interpolants, so u is e^{ct} times the product of the
    1-D cell sums (linear_cells_moments) and grad u follows by the product
    rule. A 1-D grid is its own single factor.
    """
    m = np.asarray(x) + t * kernel.spec.drift
    sd = np.sqrt(2.0 * t * np.diag(kernel.spec.diffusion.entries))
    parts = [linear_cells_moments(f, grid.origin[j], grid.spacing[j], m[j], sd[j])
             for j, f in enumerate(factors)]
    vals = np.array([p[0] for p in parts])
    front = math.exp(kernel.spec.reaction * t)
    grad = np.array([parts[j][1] * np.prod(np.delete(vals, j)) for j in range(len(parts))])
    return front * float(np.prod(vals)), front * grad


def _gaussian_grid_1d(h, half=8.0):
    xs = np.arange(-half, half + h / 2, h)
    return GridData([xs[0]], [h], np.exp(-(xs**2) / 2.0))


@pytest.mark.parametrize("b, c", [(0.0, 0.0), (0.5, -0.25)])
def test_grid_1d_matches_linear_cells(b, c):
    # 1601 and 21 nodes; from a kernel narrower than a cell to one wider than the grid
    k = make_kernel([[1.3]], [b], c)
    for grid in (_gaussian_grid_1d(0.01), _gaussian_grid_1d(0.8)):
        for x, t in [(0.5, 2.0), (0.3, 0.7), (-1.2, 1e-4), (7.9, 0.01), (3.0, 8.0)]:
            u, grad = solve_both(k, grid, [x], t)
            u_ref, grad_ref = grid_reference(k, grid, [grid.values], [x], t)
            assert_within_contract(u, grad, u_ref, grad_ref, math.exp(c * t), t)


def test_grid_2d_separable_matches_product_of_linear_cells():
    k = make_kernel(np.diag([0.7, 1.6]), [0.4, -0.3], 0.2)
    ax, ay = np.linspace(-4.0, 4.0, 41), np.linspace(-3.0, 5.0, 33)
    a, b = np.exp(-(ax**2) / 2.0) * (1.0 + 0.3 * ax), np.cos(ay / 2.0) ** 2
    grid = GridData([ax[0], ay[0]], [ax[1] - ax[0], ay[1] - ay[0]], np.outer(a, b))
    sup = float(np.abs(grid.values).max())
    for x, t in [([0.3, -0.2], 0.05), ([1.0, 2.0], 0.7), ([-3.5, 4.8], 0.3)]:
        u, grad = solve_both(k, grid, x, t)
        u_ref, grad_ref = grid_reference(k, grid, [a, b], x, t)
        assert_within_contract(u, grad, u_ref, grad_ref, math.exp(0.2 * t) * sup, t)


def test_grid_forcing_matches_time_integral_of_linear_cells():
    # u(x, t) is the homogeneous grid solution integrated over kernel time s
    k = make_kernel([[1.0]], [0.0], 0.0)
    grid = _gaussian_grid_1d(0.01)
    x, t = [0.5], 1.0
    u = sv.solve_nonhomogeneous(k, TimeInvariantForcing(grid), x, t)
    u_ref = integrate.quad(lambda s: grid_reference(k, grid, [grid.values], x, s)[0], 0.0, t,
                           epsabs=1e-15, epsrel=1e-12, limit=200)[0]
    assert abs(u - u_ref) <= TARGET * u_ref


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("c", [-0.7, 0.0, 0.45])
def test_constant_data_is_v_exp_ct(n, c):
    rng = np.random.default_rng(30 + n)
    k = random_kernel(rng, n)
    k = make_kernel(k.spec.diffusion.entries, k.spec.drift, c)
    v = -1.7
    for t in (1e-3, 0.6, 3.0):
        x = rng.uniform(-2, 2, n)
        assert sv.solve_homogeneous(k, ConstantData(v, dim=n), x, t) == v * math.exp(c * t)
        assert np.all(sv.gradient_homogeneous(k, ConstantData(v, dim=n), x, t) == 0.0)
        forcing = TimeInvariantForcing(ConstantData(v, dim=n))
        mass = t if c == 0.0 else (math.exp(c * t) - 1.0) / c
        assert sv.solve_nonhomogeneous(k, forcing, x, t) == pytest.approx(v * mass, rel=1e-13)
        assert np.all(sv.gradient_nonhomogeneous(k, forcing, x, t) == 0.0)
