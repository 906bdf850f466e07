"""Solver tests: convolution identities, Duhamel bounds, error paths."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from parabound import solver as sv
from parabound.errors import DomainError, FloatOverflow, QuadratureFailure, UnsupportedData
from parabound.kernel import FundamentalSolution
from parabound.quadrature import panel_edges, panel_nodes
from parabound.verify import ExtremalTarget, extremal_forcing, extremal_initial_data
from parabound.sources import (
    BoxIndicator,
    ConstantData,
    GaussianBump,
    GridData,
    PolynomialGaussian,
    SourceFunction,
    SpaceTimeSource,
    TimeInvariantForcing,
)

from .test_kernel import HEAT_1D, make_kernel, random_kernel

ERF_HALF = 0.5204998778130465


class TestQuadratureConfig:
    def test_defaults(self):
        q = sv.QuadratureConfig()
        assert dataclasses.asdict(q) == {"target_rel_err": 1e-8}

    def test_validation(self):
        for target in (-1.0, 0.0, math.nan):
            with pytest.raises(DomainError):
                sv.QuadratureConfig(target_rel_err=target)


class TestSolveHomogeneous:
    def test_constant_data_gives_reaction_factor(self):
        k = make_kernel([[2.0]], [0.5], -0.5)
        for x, t in [([0.0], 2.0), ([3.0], 0.4)]:
            u = sv.solve_homogeneous(k, ConstantData(1.0), x, t)
            assert u == pytest.approx(math.exp(-0.5 * t), rel=1e-12)

    def test_zero_data_short_circuits(self):
        assert sv.solve_homogeneous(HEAT_1D, ConstantData(0.0), [0.0], 1.0) == 0.0
        g = sv.gradient_homogeneous(HEAT_1D, ConstantData(0.0), [0.0], 1.0)
        assert np.array_equal(g, [0.0])

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("t", [1e-18, 1e-20])
    def test_polygauss_gradient_at_tiny_t_is_the_data_gradient(self, k, t):
        # grad u = G * grad phi tends to phi'(x) with t, with no 1/sqrt(t) ~ 1e9 factor on
        # roundoff; the solver's scale floor, 1e-3 sup / sqrt(t), would not notice a miss
        phi = PolynomialGaussian(center=(0.0,), spread=1.0, powers=(k,))
        x = 0.3
        exact = (k * x ** (k - 1) - x ** (k + 1) / 2.0) * math.exp(-x * x / 4.0)
        du = sv.gradient_homogeneous(HEAT_1D, phi, [x], t)[0]
        assert abs(du - exact) <= 1e-13 * abs(exact)

    def test_gaussian_convolution_identity(self):
        # u(x,t) = e^{ct} sqrt(s/(s+a t)) exp(-(x+tb)^2/(4(s+a t)))
        a, b, c, s = 1.7, -0.6, 0.4, 0.9
        k = make_kernel([[a]], [b], c)
        phi = GaussianBump(center=(0.0,), spread=s)
        for x, t in [(0.0, 0.5), (1.2, 1.5), (-2.0, 3.0)]:
            u = sv.solve_homogeneous(k, phi, [x], t)
            width = s + a * t
            exact = math.exp(c * t) * math.sqrt(s / width) * math.exp(-((x + t * b) ** 2) / (4 * width))
            assert u == pytest.approx(exact, rel=1e-11)

    def test_gaussian_gradient_identity(self):
        a, s = 1.0, 1.3
        phi = GaussianBump(center=(0.0,), spread=s)
        for x, t in [(0.7, 0.8), (-1.1, 2.0)]:
            grad = sv.gradient_homogeneous(HEAT_1D, phi, [x], t)
            width = s + a * t
            exact = -x / (2 * width) * math.sqrt(s / width) * math.exp(-(x**2) / (4 * width))
            assert grad[0] == pytest.approx(exact, rel=1e-10)

    def test_2d_product_structure(self):
        k = make_kernel(np.eye(2), [0.0, 0.0], 0.0)
        phi = GaussianBump(center=(0.0, 0.0), spread=0.7)
        u2 = sv.solve_homogeneous(k, phi, [0.4, -0.3], 1.2)
        phi1 = GaussianBump(center=(0.0,), spread=0.7)
        ux = sv.solve_homogeneous(HEAT_1D, phi1, [0.4], 1.2)
        uy = sv.solve_homogeneous(HEAT_1D, phi1, [-0.3], 1.2)
        assert u2 == pytest.approx(ux * uy, rel=1e-11)

    def test_box_indicator_erf_value(self):
        u = sv.solve_homogeneous(HEAT_1D, BoxIndicator(lo=(-1.0,), hi=(1.0,)), [0.0], 1.0)
        assert u == pytest.approx(ERF_HALF, rel=1e-10)

    def test_box_solve_builds_no_kernel(self, monkeypatch):
        # the box route works on the normal law of y restricted to the axes
        # the box clips, not on the kernel of a marginal problem
        kernels = [make_kernel([[1.0, 0.6], [0.6, 2.0]], [0.5, -1.0], -0.25),
                   make_kernel([[1.0, 0.2, 0.1], [0.2, 1.5, 0.3], [0.1, 0.3, 2.0]],
                               [0.5, -1.0, 0.3], -0.25)]

        def refuse(self, spec):
            raise AssertionError("a box solve built a FundamentalSolution")

        monkeypatch.setattr(FundamentalSolution, "__init__", refuse)
        for k in kernels:
            n, x = k.n, np.full(k.n, 0.2)
            # a box that clips every axis, and one that clips the first only
            for box in (BoxIndicator(lo=(-0.5,) * n, hi=(0.5,) * n),
                        BoxIndicator(lo=(-0.5,) + (-50.0,) * (n - 1), hi=(0.5,) + (50.0,) * (n - 1))):
                assert math.isfinite(sv.solve_homogeneous(k, box, x, 0.3))
                assert np.all(np.isfinite(sv.gradient_homogeneous(k, box, x, 0.3)))
        forcing = TimeInvariantForcing(BoxIndicator(lo=(-0.5, -50.0), hi=(0.5, 50.0)))
        assert math.isfinite(sv.solve_nonhomogeneous(kernels[0], forcing, [0.2, 0.2], 0.3))

    def test_weak_maximum_bound_random(self):
        rng = np.random.default_rng(42)
        for trial in range(12):
            n = int(rng.integers(1, 3))
            k = random_kernel(rng, n)
            amp = float(rng.uniform(0.2, 3.0))
            phi = GaussianBump(
                center=tuple(rng.uniform(-1, 1, n)), spread=float(rng.uniform(0.3, 2.0)), amp=amp
            )
            t = float(rng.uniform(0.05, 4.0))
            x = rng.uniform(-2, 2, n)
            u = sv.solve_homogeneous(k, phi, x, t)
            assert abs(u) <= math.exp(k.spec.reaction * t) * amp * (1 + 1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        k = random_kernel(rng, 2)
        phi = GaussianBump(center=(0.3, -0.2), spread=0.8)
        x = np.array([0.5, 0.1])
        t = 0.9
        grad = sv.gradient_homogeneous(k, phi, x, t)
        h = 1e-5
        fd = np.empty(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[j] = (
                sv.solve_homogeneous(k, phi, x + e, t) - sv.solve_homogeneous(k, phi, x - e, t)
            ) / (2 * h)
        assert np.linalg.norm(fd - grad) <= 1e-5 * np.linalg.norm(grad)

    def test_initial_data_recovery(self):
        phi = GaussianBump(center=(0.0,), spread=1.0)
        xs = np.linspace(-2, 2, 21)
        sups = []
        for t in (0.1, 0.01, 1e-3, 1e-4):
            us = np.array([sv.solve_homogeneous(HEAT_1D, phi, [x], t) for x in xs])
            sups.append(np.abs(us - phi(xs[:, None])).max())
        assert sups[0] > sups[1] > sups[2] > sups[3]
        assert sups[-1] <= 1e-2 * phi.sup_norm()

    def test_semigroup_property(self):
        # evolve to s, resample as grid data, evolve the rest, compare
        k = make_kernel([[1.3]], [0.4], -0.6)
        phi = GaussianBump(center=(0.2,), spread=0.6)
        s_time, t_time = 0.5, 1.25
        h = 0.004
        xs = np.arange(-14.0, 14.0 + h / 2, h)
        mid = sv.solve_batch(k, phi, xs[:, None], np.full(xs.size, s_time))
        grid = GridData([xs[0]], [h], mid)
        for x in (0.0, 0.8):
            direct = sv.solve_homogeneous(k, phi, [x], t_time)
            composed = sv.solve_homogeneous(k, grid, [x], t_time - s_time)
            assert composed == pytest.approx(direct, rel=1e-6)


def gaussian_closed_form(kernel, phi, x, t):
    """u and grad u for GaussianBump data: the kernel and phi are both Gaussians.

    u = e^{ct} amp det(I + tA/s)^{-1/2} exp(-z.S^{-1}z / 4), S = sI + tA,
    z = x + tb - center, and grad u = -S^{-1}z u / 2.
    """
    n, s = kernel.n, phi.spread
    a = kernel.spec.diffusion.entries
    big_s = s * np.eye(n) + t * a
    z = np.asarray(x) + t * kernel.spec.drift - np.asarray(phi.center)
    s_inv_z = np.linalg.solve(big_s, z)
    u = (math.exp(kernel.spec.reaction * t) * phi.amp
         * np.linalg.det(np.eye(n) + t * a / s) ** -0.5 * math.exp(-(z @ s_inv_z) / 4.0))
    return u, -0.5 * s_inv_z * u


class _CountingSource(SourceFunction):
    """Wraps spatial data and records the batch size of every evaluation.

    It does not forward gaussian_factor, so Gaussian data wrapped in it
    takes the kernel-frame Hermite rule.
    """

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.sizes = []

    def __call__(self, pts):
        self.sizes.append(len(pts))
        return self.inner(pts)

    def lp_norm(self, p):
        return self.inner.lp_norm(p)


class _CountingGaussian(_CountingSource):
    """A counting wrapper that forwards gaussian_factor's (center, spread, degree) and
    gradient, recording gradient's batch sizes too: the product-frame rule."""

    def gaussian_factor(self):
        return self.inner.gaussian_factor()

    def gradient(self, pts):
        self.sizes.append(len(pts))
        return self.inner.gradient(pts)


class TestPrunedRule:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_constant_data_gradient_is_exactly_zero(self, n):
        # in the kernel frame (the wrapper hides the data kind) the +-xi pairs cancel exactly
        rng = np.random.default_rng(20 + n)
        k = random_kernel(rng, n)
        for t in (0.3, 2.0):
            data = _CountingSource(ConstantData(1.7, dim=n))
            grad = sv.gradient_homogeneous(k, data, rng.uniform(-2, 2, n), t)
            assert np.all(grad == 0.0) and data.sizes

    @pytest.mark.parametrize("n, band", [(1, (0.2, 1.0)), (2, (0.2, 1.0)), (3, (0.2, 1.0)),
                                         (1, (2.0, 4.0)), (2, (2.0, 4.0))])
    def test_gaussian_matches_closed_form(self, n, band):
        # kernel-frame rule (the wrapper hides the Gaussian factor);
        # tau = t lam_max / w^2 with w^2 = 2 spread: below 1 the first rule
        # converges, from 2 to 4 the solver escalates
        rng = np.random.default_rng(int(10 * band[0]) + n)
        quad = sv.DEFAULT_QUADRATURE
        for _ in range(3):
            k = random_kernel(rng, n)
            spread = 0.2
            lam_max = float(k.dec.eigenvalues[-1])
            t = float(rng.uniform(*band)) * 2.0 * spread / lam_max
            center = rng.uniform(-0.5, 0.5, n)
            phi = GaussianBump(center=tuple(center), spread=spread, amp=1.3)
            x = center - t * k.spec.drift + rng.uniform(-1, 1, n) * math.sqrt(spread + t * lam_max)
            u = sv.solve_homogeneous(k, _CountingSource(phi), x, t)
            grad = sv.gradient_homogeneous(k, _CountingSource(phi), x, t)
            u_ref, grad_ref = gaussian_closed_form(k, phi, x, t)
            if band[0] < 1.0:
                assert u == pytest.approx(u_ref, rel=1e-11)
                assert np.linalg.norm(grad - grad_ref) <= 1e-10 * np.linalg.norm(grad_ref)
            else:
                # the solver's error control: target_rel_err x its tolerance scale
                bound = math.exp(k.spec.reaction * t) * phi.amp
                tol = quad.target_rel_err * max(abs(u_ref), 1e-3 * bound)
                assert abs(u - u_ref) <= tol
                grad_scale = max(np.linalg.norm(grad_ref), 1e-3 * bound / math.sqrt(t))
                assert np.linalg.norm(grad - grad_ref) <= quad.target_rel_err * grad_scale

    def test_dropped_node_bound(self):
        rng = np.random.default_rng(4)
        k = random_kernel(rng, 2)
        phi = GaussianBump(center=(0.1, -0.2), spread=0.5, amp=-2.0)
        x, t, order = np.array([0.3, 0.4]), 0.7, 64
        _, _, mass, moment = sv.pruned_hermite_tensor(order, 2)
        assert mass > 0.0 and moment > 0.0
        front = math.exp(k.spec.reaction * t) / math.pi
        # the kernel's own frame: precision 0, center 0
        frame = sv._product_frame(k, x, t, np.zeros(2), 0.0)
        _, bound = sv._hermite_pass(k, phi, frame, order, False, 2.0)
        assert bound == pytest.approx(front * 2.0 * mass, rel=1e-14, abs=0.0)
        _, bound = sv._hermite_pass(k, phi, frame, order, True, 2.0)
        norm = 1.0 / math.sqrt(float(k.dec.eigenvalues[0]))
        expected = front / math.sqrt(t) * 2.0 * moment * norm
        assert bound == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_unbounded_data_takes_the_full_rule(self):
        class Unbounded(_CountingSource):
            def lp_norm(self, p):
                return math.inf

        data = Unbounded(GaussianBump(center=(0.0, 0.0), spread=1.0))
        k = make_kernel(np.eye(2), np.zeros(2), 0.0)
        u = sv.solve_homogeneous(k, data, [0.2, 0.1], 0.5)
        assert u == pytest.approx(gaussian_closed_form(k, data.inner, [0.2, 0.1], 0.5)[0],
                                  rel=1e-11)
        assert data.sizes == [48**2, 64**2]
        frame = sv._product_frame(k, np.zeros(2), 0.5, np.zeros(2), 0.0)
        value, bound = sv._hermite_pass(k, data, frame, 64, True, math.inf)
        assert bound == 0.0 and np.all(np.isfinite(value))

    @pytest.mark.parametrize("n", [1, 2])
    def test_rule_with_nan_weights_is_never_evaluated(self, n):
        # tau = 25 in the kernel frame: the ladder ends at order 256, below
        # the orders whose numpy weights are NaN, and the unmet estimate is
        # what the failure reports
        k = make_kernel(np.eye(n), np.zeros(n), 0.0)
        phi = GaussianBump(center=(0.0,) * n, spread=0.05)
        data = _CountingSource(phi)
        with pytest.raises(QuadratureFailure, match="error estimate"):
            sv.solve_homogeneous(k, data, np.full(n, 0.3), 2.5)
        # the coarse order-48 pass, then orders 64, 128 and 256
        assert data.sizes == [len(sv.pruned_hermite_tensor(order, n)[1])
                              for order in (48, 64, 128, 256)]
        # the bare bump takes the product frame and answers
        u = sv.solve_homogeneous(k, phi, np.full(n, 0.3), 2.5)
        u_ref = gaussian_closed_form(k, phi, np.full(n, 0.3), 2.5)[0]
        assert abs(u - u_ref) <= sv.DEFAULT_QUADRATURE.target_rel_err * abs(u_ref)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gaussian_factor_takes_the_product_frame(self, n):
        # the rule of order m = (degree + 3) // 2 is exact for the leftover polynomial and
        # its gradient, so u and grad u take one pass of m^n nodes and no ladder
        rng = np.random.default_rng(60 + n)
        k = random_kernel(rng, n)
        powers = tuple(int(p) for p in rng.integers(0, 3, n))
        data = _CountingGaussian(PolynomialGaussian(center=tuple(rng.uniform(-1, 1, n)),
                                                    spread=0.3, powers=powers))
        order = (sum(powers) + 3) // 2
        sv.solve_homogeneous(k, data, rng.uniform(-1, 1, n), 0.8)
        assert data.sizes == [order**n]
        data.sizes.clear()
        sv.gradient_homogeneous(k, data, rng.uniform(-1, 1, n), 0.8)
        assert data.sizes == [order**n]
        # Gaussian data takes one node
        bump = _CountingGaussian(GaussianBump(center=tuple(rng.uniform(-1, 1, n)), spread=0.3))
        sv.gradient_homogeneous(k, bump, rng.uniform(-1, 1, n), 0.8)
        assert bump.sizes == [1]


class TestFarField:
    @pytest.mark.parametrize("x, spread", [(1e151, 1e307), (1e160, 1e300), (1e160, 1.0)])
    def test_gaussian_far_from_its_center_matches_closed_form(self, x, spread):
        # the heat kernel on spread s: u = (s / (s + t))^{1/2} exp(-x^2 / (4 (s + t))), and
        # du/dx = -x u / (2 (s + t)); at 1e151 the wide bump is far but its u near 1, so the
        # frame computes it as it stands, while at 1e160 its bound says 0
        data = GaussianBump(center=(0.0,), spread=spread)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = sv.solve_homogeneous(HEAT_1D, data, np.array([x]), 1.0)
            du = sv.gradient_homogeneous(HEAT_1D, data, np.array([x]), 1.0)[0]
        width = spread + 1.0
        z = min(x / (2.0 * math.sqrt(width)), 40.0)  # exp(-40^2) is 0 in float64
        u_ref = math.sqrt(spread / width) * math.exp(-z * z)
        assert u == pytest.approx(u_ref, rel=1e-12, abs=0.0)
        assert du == pytest.approx(-x * u_ref / (2.0 * width), rel=1e-12, abs=0.0)
        assert (u == 0.0) == (x == 1e160)

    def test_far_times_of_a_sigma_panel_answer_zero(self):
        # a drift of 3e149 takes the late kernel times of the Duhamel rule past the far
        # limit and leaves the early ones near: their sum is 0 without a warning
        k = make_kernel([[1.0]], [3e149], 0.0)
        forcing = TimeInvariantForcing(PolynomialGaussian(center=(0.0,), spread=1.0, powers=(2,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sv.solve_nonhomogeneous(k, forcing, np.zeros(1), 8.0) == 0.0
            assert sv.gradient_nonhomogeneous(k, forcing, np.zeros(1), 8.0).tolist() == [0.0]


class TestGridSolve:
    def _grid_1d(self, h=0.01, half=6.0):
        xs = np.arange(-half, half + h / 2, h)
        return GridData([xs[0]], [h], np.exp(-(xs**2) / 2.0))

    def test_matches_closed_form(self):
        # the exact convolution of the interpolant, cell by cell
        from .test_references import grid_reference

        grid = self._grid_1d()
        u = sv.solve_homogeneous(HEAT_1D, grid, [0.3], 0.7)
        u_ref = grid_reference(HEAT_1D, grid, [grid.values], [0.3], 0.7)[0]
        assert abs(u - u_ref) <= sv.DEFAULT_QUADRATURE.target_rel_err * u_ref

    def test_dimension_guard(self):
        k4 = make_kernel(np.eye(4), np.zeros(4), 0.0)
        with pytest.raises(UnsupportedData):
            sv.solve_homogeneous(k4, ConstantData(1.0, dim=4), np.zeros(4), 1.0)


class TestSolveNonhomogeneous:
    def test_constant_forcing_reaction_mass(self):
        f = TimeInvariantForcing(ConstantData(1.0))
        for c in (-0.8, 0.6):
            k = make_kernel([[1.5]], [0.3], c)
            for t in (0.4, 1.7):
                u = sv.solve_nonhomogeneous(k, f, [0.7], t)
                assert u == pytest.approx((math.exp(c * t) - 1.0) / c, rel=1e-10)

    def test_constant_forcing_zero_reaction(self):
        f = TimeInvariantForcing(ConstantData(1.0))
        u = sv.solve_nonhomogeneous(HEAT_1D, f, [0.0], 0.7)
        assert u == pytest.approx(0.7, rel=1e-11)
        g = sv.gradient_nonhomogeneous(HEAT_1D, f, [0.4], 0.7)
        assert abs(g[0]) <= 1e-11

    def test_time_invariant_gaussian_vs_composed_hom(self):
        # semigroup composition oracle: u(x,t) = integral of hom solves
        k = make_kernel([[1.0]], [0.2], -0.4)
        g = GaussianBump(center=(0.0,), spread=0.8)
        f = TimeInvariantForcing(g)
        x, t = np.array([0.3]), 1.1
        u = sv.solve_nonhomogeneous(k, f, x, t)
        # plain Gauss-Legendre in tau (no endpoint substitution): the
        # integrand s -> hom-solve at kernel time s is smooth
        nodes, weights = np.polynomial.legendre.leggauss(40)
        taus = 0.5 * t * (nodes + 1.0)
        acc = 0.0
        for tau, w in zip(taus, weights):
            acc += 0.5 * t * w * sv.solve_homogeneous(k, g, x, t - tau)
        assert u == pytest.approx(acc, rel=1e-9)

    def test_odd_forcing_extremizes_gradient_at_symmetry_point(self):
        # f odd in y about x with b = 0: u(x, t) = 0 while du/dx != 0
        f = TimeInvariantForcing(PolynomialGaussian(center=(0.0,), spread=0.8, powers=(1,)))
        u = sv.solve_nonhomogeneous(HEAT_1D, f, [0.0], 0.9)
        g = sv.gradient_nonhomogeneous(HEAT_1D, f, [0.0], 0.9)
        assert abs(u) <= 1e-12
        assert abs(g[0]) > 0.01

    def test_sup_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            k = random_kernel(rng, 1)
            c = k.spec.reaction
            amp = float(rng.uniform(0.5, 2.0))
            f = TimeInvariantForcing(
                GaussianBump(center=(float(rng.uniform(-1, 1)),), spread=0.9, amp=amp)
            )
            t = float(rng.uniform(0.2, 2.0))
            u = sv.solve_nonhomogeneous(k, f, rng.uniform(-1, 1, 1), t)
            mass = (math.exp(c * t) - 1.0) / c if c != 0 else t
            assert abs(u) <= mass * amp * (1 + 1e-6)

    def test_duhamel_starts_from_four_panels_at_keys_one_and_zero(self, monkeypatch):
        # the adaptive sigma rule starts from four G7K15 panels of 15 nodes and
        # runs every node's spatial rule at keys 1 and 0 of its ladder; these
        # cases meet the target there. Every forcing hands each panel's 15
        # times to one route (a closed form's two keys are one rule, run once)
        used = []
        route = sv._route

        def recording(kernel, data, x, t, *rest):
            rule, keys = route(kernel, data, x, t, *rest)

            def rule_recorded(key):
                used.append((np.size(t), key))
                return rule(key)

            return rule_recorded, keys

        monkeypatch.setattr(sv, "_route", recording)
        cases = [
            (BoxIndicator(lo=(-0.5,), hi=(0.7,)), ["closed form"]),
            (GaussianBump(center=(0.0,), spread=0.8), ["closed form"]),
            (ConstantData(2.0), ["closed form"]),
        ]
        for profile, keys in cases:
            used.clear()
            sv.solve_nonhomogeneous(HEAT_1D, TimeInvariantForcing(profile), [0.2], 0.4)
            assert used == [(15, key) for key in keys] * 4
        # a forcing that varies in time too, with its 15 forcing times
        used.clear()
        target = ExtremalTarget(x0=(0.2,), t0=0.4, p=math.inf, direction=(1.0,), mollify=0.3)
        sv.solve_nonhomogeneous(HEAT_1D, extremal_forcing(HEAT_1D, target), [0.2], 0.4)
        assert used == [(15, 12), (15, 8)] * 4


_K1 = make_kernel([[1.3]], [0.5], -0.25)
_K2 = make_kernel([[1.0, 0.6], [0.6, 2.0]], [0.5, -1.0], -0.25)
_K3 = make_kernel([[1.0, 0.2, 0.1], [0.2, 1.5, 0.3], [0.1, 0.3, 2.0]], [0.5, -1.0, 0.3], -0.25)
_KERNELS = {1: _K1, 2: _K2, 3: _K3}


def _grid(n):
    """A grid of exp(-|y|^2 / 2) over [-3, 3]^n, spacing 0.25."""
    ys = np.arange(-3.0, 3.125, 0.25)
    mesh = np.meshgrid(*[ys] * n, indexing="ij")
    return GridData([ys[0]] * n, [0.25] * n, np.exp(-0.5 * sum(m * m for m in mesh)))


def _extremal_forcing(n):
    """p = inf extremal forcing: kinks at n = 1, none named at n = 2."""
    target = ExtremalTarget(x0=(0.2, -0.1)[:n], t0=2.1, p=math.inf,
                            direction=(1.0,) if n == 1 else (0.6, 0.8), mollify=0.3)
    return extremal_forcing(_KERNELS[n], target)


# (data, the keys of its route); a forcing that varies in time takes its tau per kernel time
_CONTRACT_CASES = {
    "gaussian": lambda: (GaussianBump(center=(0.1, -0.2), spread=0.5), sv._CLOSED_FORM),
    "polygauss": lambda: (PolynomialGaussian(center=(0.1, -0.2), spread=0.5, powers=(1, 2)),
                          sv._CLOSED_FORM),
    "constant": lambda: (ConstantData(1.7, dim=2), sv._CLOSED_FORM),
    "box1": lambda: (BoxIndicator(lo=(-0.5,), hi=(0.5,), amp=1.3), sv._CLOSED_FORM),
    "box2": lambda: (BoxIndicator(lo=(-0.5,) * 2, hi=(0.5,) * 2, amp=1.3), sv._CLOSED_FORM),
    "box3": lambda: (BoxIndicator(lo=(-0.5,) * 3, hi=(0.5,) * 3, amp=1.3), None),
    "grid1": lambda: (_grid(1), sv._CLOSED_FORM),
    "grid2": lambda: (_grid(2), sv._GRID_ORDERS),
    "kinks1": lambda: (extremal_initial_data(_K1, ExtremalTarget(
        x0=(0.2,), t0=0.7, p=4.0, direction=(1.0,))), sv._KINK_RULES),
    "custom2": lambda: (_CountingSource(GaussianBump(center=(0.1, -0.2), spread=0.5)),
                        sv._hermite_keys(2)),
    "forcing_kinks1": lambda: (_extremal_forcing(1), sv._KINK_RULES),
    "forcing2": lambda: (_extremal_forcing(2), sv._hermite_keys(2)),
}


@pytest.mark.parametrize("want_gradient", [False, True])
@pytest.mark.parametrize("case", list(_CONTRACT_CASES))
def test_every_route_takes_every_kernel_time_at_once(case, want_gradient):
    # the contract of _route's rules, as a sigma panel hands them 15 kernel times: one call
    # gives values (15,) or gradients (15, n) and bounds (15,), each time as each time's own
    # one-element call gives it; n = 3 box u climbs its 1-D ladder, the n = 3 box gradient
    # is a closed form
    data, keys = _CONTRACT_CASES[case]()
    if keys is None:
        keys = sv._CLOSED_FORM if want_gradient else sv._BOX_RULES
    k, sup = _KERNELS[data.n], 1.7
    x = np.full(k.n, 0.2)
    times = np.geomspace(1e-4, 2.0, 15)
    taus = 2.1 - times if isinstance(data, SpaceTimeSource) else None
    rule, route_keys = sv._route(k, data, x, times, want_gradient, sup, taus)
    assert route_keys == keys
    # the box routes share one standardisation by time and hold 1e-15
    rtol = 1e-15 if isinstance(data, BoxIndicator) else 1e-14
    for key in keys[:3]:
        values, dropped = rule(key)
        assert np.shape(values) == ((15, k.n) if want_gradient else (15,))
        assert np.shape(dropped) == (15,)
        if keys == sv._CLOSED_FORM and data.gaussian_factor() is None:
            # exact but for the roundoff bound of the product frame's +-xi pairs
            assert np.array_equal(dropped, np.zeros(15))
        for i, s in enumerate(times.tolist()):
            tau = None if taus is None else taus[i:i + 1]
            one, one_dropped = sv._route(k, data, x, np.array([s]), want_gradient, sup, tau)[0](key)
            assert np.shape(one) == ((1, k.n) if want_gradient else (1,))
            assert np.all(np.abs(values[i] - one[0]) <= rtol * np.abs(one[0]))
            assert abs(dropped[i] - one_dropped[0]) <= rtol * abs(one_dropped[0])


class TestBox3Window:
    """n = 3 box u where a kernel window lies inside the box or misses it."""

    BOX = BoxIndicator(lo=(-2.0,) * 3, hi=(2.0,) * 3, amp=1.3)
    INSIDE = np.array([0.1, -0.1, 0.05])

    @pytest.mark.parametrize("t", [1e-6, 1e-3])
    def test_window_inside_the_box_gives_the_whole_mass(self, t):
        # the window, TRUNCATION_RADIUS sds about the mean of Y, lies inside the box on
        # every axis: u = amp e^{ct}
        u = sv.solve_homogeneous(_K3, self.BOX, self.INSIDE, t)
        assert u == pytest.approx(1.3 * math.exp(-0.25 * t), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("x", [(5.0, 0.0, 0.0), (0.0, 5.0, 0.0), (0.0, 0.0, 5.0)])
    @pytest.mark.parametrize("correlated", [False, True])
    def test_window_that_misses_the_box_gives_zero(self, x, correlated):
        # strongly correlated, the Z_0 rule grades toward sharp turns; a window that misses
        # the box leaves it no panel at all
        k = make_kernel([[0.7011, 0.9235, 1.2437], [0.9235, 1.2199, 1.6429],
                         [1.2437, 1.6429, 2.2187]], [0.0] * 3, 0.0) if correlated else _K3
        assert sv.solve_homogeneous(k, self.BOX, x, 1e-3) == 0.0

    def test_one_call_mixes_inside_and_clipping_windows(self):
        times = np.geomspace(1e-6, 2.0, 15)
        faces, _, _ = sv._standardise(_K3, self.BOX, self.INSIDE, times)
        radius = sv.TRUNCATION_RADIUS
        inside = (faces[:, 0] <= -radius).all(1) & (faces[:, 1] >= radius).all(1)
        assert inside.any() and not inside.all()
        rule, keys = sv._route(_K3, self.BOX, self.INSIDE, times, False, 1.3)
        for key in keys:
            values, _ = rule(key)
            for s, value in zip(times.tolist(), values):
                one, _ = sv._route(_K3, self.BOX, self.INSIDE, np.array([s]), False, 1.3)[0](key)
                assert value == pytest.approx(one[0], rel=1e-15, abs=0.0)


def _kink_reference(k, data, x, s, order, want_gradient, kinks, tau=None):
    """One kernel time's kink panels graded to 2^-44, node by node: the route's deep reference."""
    reach = sv.TRUNCATION_RADIUS * 2.0 * math.sqrt(float(k.dec.eigenvalues[-1]) * s)
    center = x[0] + float(k.spec.drift[0]) * s
    edges = panel_edges(center - reach, center + reach, kinks, levels=44)
    nodes, weights = panel_nodes(edges, order)
    args = (x[0] - nodes)[:, None]
    kern = k.gradient(args, s)[:, 0] if want_gradient else k.value(args, s)
    vals = data(nodes[:, None]) if tau is None else data(nodes[:, None], tau)
    return weights @ (kern * vals), edges.size - 1


class TestKinkRoute:
    @pytest.mark.parametrize("mollify", [0.3, 0.03])
    @pytest.mark.parametrize("want_gradient", [False, True])
    def test_batched_route_matches_per_node_scalar_tau(self, mollify, want_gradient):
        # one sigma panel of a p = inf extremal forcing: with b != 0 and x != x0 the kink
        # x0 + (t0 - tau) b moves with tau, and leaves the window of the smallest kernel
        # times, so the nodes' panel counts differ; the reference routes node by node,
        # graded 20 levels deeper than the route
        k = make_kernel([[1.3]], [0.5], -0.25)
        target = ExtremalTarget(x0=(0.2,), t0=0.9, p=math.inf, direction=(1.0,), mollify=mollify)
        forcing = extremal_forcing(k, target)
        x, t = np.array([-0.4]), 0.9
        sigmas = 0.06 + 0.06 * sv.GK15_NODES
        times = sigmas * sigmas
        rule, keys = sv._route(k, forcing, x, times, want_gradient, 1.0, t - times)
        assert keys == sv._KINK_RULES
        for order in keys:
            batched, dropped = rule(order)
            assert np.shape(batched) == ((15, 1) if want_gradient else (15,))
            assert np.array_equal(dropped, np.zeros(15))
            reference, panels = zip(*(
                _kink_reference(k, forcing, x, s, order, want_gradient,
                                forcing.spatial_kinks(tau), tau)
                for s, tau in zip(times.tolist(), (t - times).tolist())))
            assert len(set(panels)) > 1
            assert np.all(np.abs(np.ravel(batched) - reference) <= 1e-14 * np.abs(reference))

    # p = 4 and 16 give the algebraic kinks |k|^{1/3} and |k|^{1/15}, p = inf the jump -sign(k)
    @pytest.mark.parametrize("p", [4.0, 16.0, math.inf])
    @pytest.mark.parametrize("want_gradient", [False, True])
    def test_homogeneous_extremal_data_matches_deeper_grading(self, p, want_gradient):
        k = make_kernel([[1.3]], [0.5], -0.25)
        target = ExtremalTarget(x0=(0.2,), t0=0.7, p=p, direction=(1.0,))
        data = extremal_initial_data(k, target)
        # off x0, where u (an odd profile about the kink, at t = t0) is no roundoff-level 0
        x = np.array([-0.4])
        for t in (0.05, 0.7, 2.5):
            rule, keys = sv._route(k, data, x, np.array([t]), want_gradient, data.sup_norm())
            assert keys == sv._KINK_RULES
            for order in keys:
                value, dropped = rule(order)
                reference, _ = _kink_reference(k, data, x, t, order, want_gradient,
                                               data.kinks_1d())
                assert np.array_equal(dropped, [0.0])
                assert abs(float(np.ravel(value)[0]) - reference) <= 1e-14 * abs(reference)


class _AtTau(SourceFunction):
    """A forcing at one fixed time tau, as spatial data."""

    def __init__(self, forcing, tau):
        self.forcing, self.tau, self.n = forcing, tau, forcing.n

    def __call__(self, pts):
        return self.forcing(pts, self.tau)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("want_gradient", [False, True])
def test_time_varying_forcing_without_kinks_takes_the_kernel_frame_per_tau(n, want_gradient):
    # at n >= 2 the extremal forcing names no kinks: its sigma nodes take the Gauss-Hermite
    # pass in the kernel frame one time at a time, each at that node's tau, as node-by-node
    # routes of the forcing at a fixed tau do
    a = [[1.0, 0.3, 0.1], [0.3, 0.7, 0.2], [0.1, 0.2, 1.2]]
    k = make_kernel(np.asarray(a)[:n, :n], [0.5, -0.4, 0.2][:n], -0.25)
    ell = np.array([0.6, 0.8, 0.0][:n])
    target = ExtremalTarget(x0=(0.2, -0.1, 0.1)[:n], t0=0.9, p=math.inf, direction=tuple(ell),
                            mollify=0.3)
    forcing = extremal_forcing(k, target)
    x, t = np.array([-0.1, 0.3, 0.0][:n]), 0.9
    times = (0.3 + 0.3 * sv.GK15_NODES) ** 2
    rule, keys = sv._route(k, forcing, x, times, want_gradient, 1.0, t - times)
    assert keys == sv._hermite_keys(n)
    for key in keys[:2]:
        batched, dropped = rule(key)
        for i, (s, tau) in enumerate(zip(times, t - times)):
            one, one_dropped = sv._route(k, _AtTau(forcing, tau), x, np.array([s]), want_gradient,
                                         1.0)[0](key)
            assert np.allclose(batched[i], one[0], rtol=1e-14, atol=0.0)
            assert dropped[i] == one_dropped[0]


class _OneTauPerCall(SpaceTimeSource):
    """A forcing called with one scalar tau at a time, whatever its caller passes."""

    def __init__(self, forcing):
        self.forcing, self.n = forcing, forcing.n

    def __call__(self, pts, tau):
        taus = np.broadcast_to(np.asarray(tau, dtype=float), len(pts))
        out = np.empty(len(pts))
        for s in np.unique(taus).tolist():
            rows = taus == s
            out[rows] = self.forcing(pts[rows], s)
        return out

    def lp_norm(self, p, t):
        return self.forcing.lp_norm(p, t)

    def spatial_kinks(self, tau):
        return self.forcing.spatial_kinks(tau)


@pytest.mark.parametrize("n, t", [(1, 0.9), (1, 0.41), (2, 0.41)])
def test_time_varying_forcing_past_its_last_time(n, t):
    # past t0 the extremal forcing is 0, so the first sigma panels' nodes all have tau >= t0
    # (no kinks there) and later panels mix both sides; the solve answers, bitwise as when the
    # forcing is called with one scalar tau at a time. The target is loose: near tau = t0 the
    # forcing is narrower than the kernel window, which the default target does not resolve
    a = np.array([[1.3, 0.3], [0.3, 0.8]])[:n, :n]
    k = make_kernel(a, [0.5, -0.4][:n], -0.25)
    ell = np.array([0.6, 0.8][:n]) / np.linalg.norm([0.6, 0.8][:n])
    target = ExtremalTarget(x0=(0.2, -0.1)[:n], t0=0.4, p=math.inf, direction=tuple(ell),
                            mollify=0.3)
    forcing = extremal_forcing(k, target)
    x, quad = np.array([-0.3, 0.2][:n]), sv.QuadratureConfig(1e-4)
    du = sv.gradient_nonhomogeneous(k, forcing, x, t, quad)
    assert np.all(np.isfinite(du)) and np.all(du != 0.0)
    assert np.array_equal(du, sv.gradient_nonhomogeneous(k, _OneTauPerCall(forcing), x, t, quad))


# u and du/dx of a time-invariant Gaussian forcing exp(-(y - x0)^2 / (4 spread)) in 1-D,
# as (a, b, c, t, x, x0, spread, u, du/dx). With v = |c| s the Duhamel integral is
# (1/|c|) int_0^{|c| t} e^{-v} g(v / |c|) dv, g(s) = sqrt(spread / w) exp(-d^2 / (4 w)),
# w = spread + a s, d = x + s b - x0, and du/dx has the factor -d / (2 w); 30-digit
# mpmath quad in v, with breakpoints at v = 1, 4, 16, 64 and the range cut at v = 300.
STIFF_DECAY = [
    (1.0, 0.0, -1e2, 1.0, 0.3, 0.0, 1.0, 0.009731477172920419161, -0.0014454733861822315876),
    (1.0, 0.0, -1e4, 1.0, 0.3, 0.0, 1.0, 9.7770455624827348019e-5, -1.4664102150096553135e-5),
    (1.0, 0.0, -1e6, 1.0, 0.3, 0.0, 1.0, 9.7775077031778841436e-7, -1.4666246888541606436e-7),
    (1.0, 0.0, -1e9, 1.0, 0.3, 0.0, 1.0, 9.7775123672646015046e-10, -1.46662685362306332e-10),
    (1.0, 0.0, -1e12, 1.0, 0.3, 0.0, 1.0, 9.7775123719286948934e-13, -1.4666268557878375529e-13),
    (1.0, 0.0, -1e16, 1.0, 0.3, 0.0, 1.0, 9.7775123719333631887e-17, -1.4666268557900042774e-17),
    (1.0, 0.0, -1e18, 1.0, 0.3, 0.0, 1.0, 9.7775123719333636509e-19, -1.4666268557900044919e-19),
    (1.0, 0.0, -1e20, 1.0, 0.3, 0.0, 1.0, 9.7775123719333636555e-21, -1.466626855790004494e-21),
    (1.3, 0.5, -40.0, 2.5, -0.4, 0.2, 0.7, 0.021724720166052475119, 0.0087418727846287970398),
    (1.3, 0.5, -4e7, 2.5, -0.4, 0.2, 0.7, 2.1983768473844991373e-8, 9.4216144265035746325e-9),
    (1.3, 0.5, -4e19, 2.5, -0.4, 0.2, 0.7, 2.1983768735182649091e-20, 9.4216151722211364447e-21),
]


# The same for polygauss forcing (y - x0)^k exp(-(y - x0)^2 / (4 spread)), k = 1 or 2, as
# (a, b, c, t, x, x0, spread, k, u, du/dx): g(s) gains the factor E[Z^k] of
# Z ~ N(d spread / w, 2 a s spread / w), and du/dx differentiates the product in d.
STIFF_DECAY_POLYGAUSS = [
    (1.0, 0.0, -1e2, 1.0, 0.3, 0.0, 1.0, 1, 2.8909467723644631752e-3, 9.2070398025888989106e-3),
    (1.0, 0.0, -1e9, 1.0, 0.3, 0.0, 1.0, 1, 2.9332537072461266399e-10, 9.3375243018401582365e-10),
    (1.0, 0.0, -1e14, 1.0, 0.3, 0.0, 1.0, 1, 2.9332537115799656493e-15, 9.3375243151962287616e-15),
    (1.0, 0.0, -1e18, 1.0, 0.3, 0.0, 1.0, 1, 2.9332537115800089838e-19, 9.3375243151963623103e-19),
    (1.0, 0.0, -1e20, 1.0, 0.3, 0.0, 1.0, 1, 2.9332537115800089881e-21, 9.3375243151963623235e-21),
    (1.0, 0.0, -3e18, 1.0, 0.3, 0.0, 1.0, 1, 9.7775123719333632889e-20, 3.1125081050654541064e-19),
    (1.0, 0.0, -1e2, 1.0, 0.3, 0.0, 1.0, 2, 1.0488747406630405008e-3, 5.5704410707446994047e-3),
    (1.0, 0.0, -1e9, 1.0, 0.3, 0.0, 1.0, 2, 8.7997613084888653638e-11, 5.7345109891304093322e-10),
    (1.0, 0.0, -1e14, 1.0, 0.3, 0.0, 1.0, 2, 8.7997611347417641271e-16, 5.7345110061387474965e-15),
    (1.0, 0.0, -1e18, 1.0, 0.3, 0.0, 1.0, 2, 8.7997611347400268124e-20, 5.7345110061389175645e-19),
    (1.0, 0.0, -1e20, 1.0, 0.3, 0.0, 1.0, 2, 8.7997611347400266404e-22, 5.7345110061389175814e-21),
    (1.3, 0.5, -40.0, 2.5, -0.4, 0.2, 0.7, 1, -1.2238621898480315079e-2, 1.5866177554253767966e-2),
    (1.3, 0.5, -4e7, 2.5, -0.4, 0.2, 0.7, 1, -1.3190260197105003649e-8, 1.6330799177497362287e-8),
    (1.3, 0.5, -4e13, 2.5, -0.4, 0.2, 0.7, 1, -1.3190261241108546182e-14, 1.6330799631849512557e-14),
    (1.3, 0.5, -4e19, 2.5, -0.4, 0.2, 0.7, 1, -1.3190261241109590186e-20, 1.633079963184996691e-20),
    (1.3, 0.5, -6e17, 2.5, -0.4, 0.2, 0.7, 1, -8.7935074940730600782e-19, 1.0887199754566644586e-18),
    (1.3, 0.5, -40.0, 2.5, -0.4, 0.2, 0.7, 2, 8.2019596565181894932e-3, -2.0211746485567195942e-2),
    (1.3, 0.5, -4e7, 2.5, -0.4, 0.2, 0.7, 2, 7.9141570148866802192e-9, -2.2988737819729440952e-8),
    (1.3, 0.5, -4e13, 2.5, -0.4, 0.2, 0.7, 2, 7.9141567446660247723e-15, -2.2988741020216370386e-14),
    (1.3, 0.5, -4e19, 2.5, -0.4, 0.2, 0.7, 2, 7.9141567446657545517e-21, -2.2988741020219570874e-20),
    (1.3, 0.5, -1e19, 2.5, -0.4, 0.2, 0.7, 2, 3.165662697866301821e-20, -9.1954964080878283456e-20),
]


class TestStiffDecay:
    @pytest.mark.parametrize("a, b, c, t, x, x0, spread, u_ref, du_ref", STIFF_DECAY)
    def test_gaussian_forcing_matches_reference(self, a, b, c, t, x, x0, spread, u_ref, du_ref):
        # before the decay edges, |c| t from about 2e8 up gave u and du/dx 100% off with no error;
        # the order-1 product-frame rule has no +-xi node pairs whose difference loses digits
        # as sigma^2 ~ 1/|c| shrinks, so du/dx meets its target at every scale too
        k = make_kernel([[a]], [b], c)
        f = TimeInvariantForcing(GaussianBump(center=(x0,), spread=spread))
        target = sv.DEFAULT_QUADRATURE.target_rel_err
        assert abs(sv.solve_nonhomogeneous(k, f, [x], t) - u_ref) <= target * abs(u_ref)
        du = sv.gradient_nonhomogeneous(k, f, [x], t)[0]
        assert abs(du - du_ref) <= target * abs(du_ref)

    @pytest.mark.parametrize("a, b, c, t, x, x0, spread, k, u_ref, du_ref", STIFF_DECAY_POLYGAUSS)
    def test_polygauss_forcing_matches_reference_or_fails(self, a, b, c, t, x, x0, spread, k,
                                                          u_ref, du_ref):
        # every row answers (the name keeps the test's ids stable; no row may fail now): du/dx
        # is the exact rule's sum over the forcing's own gradient, so no +-xi pair
        # differences carry the values' roundoff times 1/sigma ~ sqrt|c| into it
        kern = make_kernel([[a]], [b], c)
        f = TimeInvariantForcing(PolynomialGaussian(center=(x0,), spread=spread, powers=(k,)))
        target = sv.DEFAULT_QUADRATURE.target_rel_err
        assert abs(sv.solve_nonhomogeneous(kern, f, [x], t) - u_ref) <= target * abs(u_ref)
        du = sv.gradient_nonhomogeneous(kern, f, [x], t)[0]
        assert abs(du - du_ref) <= target * abs(du_ref)

    @pytest.mark.parametrize("c, u_ref", [(-1e2, 0.0099207835424293970178),
                                          (-1e4, 9.9999999999999999995e-5),
                                          (-1e9, 1e-9), (-1e20, 1e-20)])
    def test_box_forcing_matches_reference(self, c, u_ref):
        # box [-0.5, 0.7], A = 1.3, b = 0.5, x = 0.2, t = 1: the same integral in v with
        # g(s) the normal probability of the box; at c = -1e2, du/dx = -5.1823701175319832966e-4
        k = make_kernel([[1.3]], [0.5], c)
        f = TimeInvariantForcing(BoxIndicator(lo=(-0.5,), hi=(0.7,)))
        target = sv.DEFAULT_QUADRATURE.target_rel_err
        assert abs(sv.solve_nonhomogeneous(k, f, [0.2], 1.0) - u_ref) <= target * u_ref
        if c == -1e2:
            du = sv.gradient_nonhomogeneous(k, f, [0.2], 1.0)[0]
            assert abs(du + 5.1823701175319832966e-4) <= target * 5.1823701175319832966e-4

    @pytest.mark.parametrize("c, t", [(0.0, 1.0), (1.0, 8.0), (-1.0, 1.5), (-4.0, 1.0), (-0.5, 8.0)])
    def test_no_decay_edges_while_ct_at_most_four(self, c, t):
        assert np.array_equal(sv._sigma_edges(t, c), math.sqrt(t) * sv._SIGMA_EDGES)

    def test_decay_edges_reach_eight_over_sqrt_c(self):
        edges = sv._sigma_edges(4.0, -1e6)
        assert edges[1:7] == pytest.approx(np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]) / 1e3, rel=1e-15)
        assert np.array_equal(edges[7:], 2.0 * sv._SIGMA_EDGES[1:])
        # only the edges below sqrt(t) / 8 join
        edges = sv._sigma_edges(1.0, -400.0)
        assert edges[1:5] == pytest.approx(np.array([0.25, 0.5, 1.0, 2.0]) / 20.0, rel=1e-15)
        assert np.array_equal(edges[5:], sv._SIGMA_EDGES[1:])


class TestErrorPaths:
    def test_gaussian_factor_without_gradient_is_unsupported(self):
        # grad u of data with a Gaussian factor is the exact rule's sum over grad phi
        class FactorOnly(_CountingGaussian):
            gradient = SourceFunction.gradient

        data = FactorOnly(GaussianBump(center=(0.0,), spread=1.0))
        assert sv.solve_homogeneous(HEAT_1D, data, [0.3], 0.5) == pytest.approx(
            gaussian_closed_form(HEAT_1D, data.inner, [0.3], 0.5)[0], rel=1e-14)
        with pytest.raises(UnsupportedData, match="declares gaussian_factor"):
            sv.gradient_homogeneous(HEAT_1D, data, [0.3], 0.5)
        with pytest.raises(UnsupportedData, match="declares gaussian_factor"):
            sv.gradient_nonhomogeneous(HEAT_1D, TimeInvariantForcing(data), [0.3], 0.5)

    def test_gradient_peak_overflow(self):
        # kernel peak e^708.2 fits in float64; the gradient peak e^709.84 does not
        k = make_kernel([[0.01]], [0.0], 1000.0, horizon=1.0)
        box = BoxIndicator(lo=(-1.0,), hi=(1.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(sv.solve_homogeneous(k, box, [0.95], 0.707))
            with pytest.raises(FloatOverflow):
                sv.gradient_homogeneous(k, box, [0.95], 0.707)
            # the Duhamel gradient's last sigma nodes meet the same peak
            with pytest.raises(FloatOverflow):
                sv.gradient_nonhomogeneous(k, TimeInvariantForcing(box), [0.95], 0.707)

    def test_unbounded_forcing_keeps_error_control(self):
        # the finite-p extremal forcing grows without bound as tau -> t0, so
        # sup|f| = inf; the uniform sigma panels stay about 3% short of the
        # true |grad u| = C = 1.22572576, while their consecutive-rung
        # estimates, 1.3e-2 down to 8.2e-3, pass a target of 1e-1 or 1e-2;
        # the solver rejects such a forcing before any quadrature
        target = ExtremalTarget(x0=(0.0,), t0=0.5, p=4, direction=(1.0,))
        forcing = extremal_forcing(HEAT_1D, target)
        assert forcing.sup_norm(0.5) == math.inf
        for tol in (1e-1, 1e-2, 1e-8, 1e-15):
            quad = sv.QuadratureConfig(target_rel_err=tol)
            with pytest.raises(QuadratureFailure, match="bounded forcing"):
                sv.gradient_nonhomogeneous(HEAT_1D, forcing, [0.0], 0.5, quad)
            with pytest.raises(QuadratureFailure, match="bounded forcing"):
                sv.solve_nonhomogeneous(HEAT_1D, forcing, [0.0], 0.5, quad)

    def test_sigma_panel_cap_is_quadrature_failure(self, monkeypatch):
        # box forcing just inside a face needs bisection in sigma; with no
        # panel to spare, the unmet estimate is a typed failure
        monkeypatch.setattr(sv, "_MAX_SIGMA_PANELS", 4)
        k = make_kernel(np.diag([1.3, 0.6]), [0.5, -1.0], -0.25)
        box = TimeInvariantForcing(BoxIndicator(lo=(-0.5, -0.3), hi=(0.5, 0.4)))
        with pytest.raises(QuadratureFailure, match="error estimate"):
            sv.gradient_nonhomogeneous(k, box, [0.49, 0.2], 0.3)

    def test_low_start_order_escalates_past_four_rules(self):
        # the kernel frame's ladder doubles up to 256 within the node budget
        assert sv._hermite_keys(1) == (48, 64, 128, 256)
        assert sv._hermite_keys(3) == (48, 64, 128)
        # kernel frame: orders 48/64/128 leave an estimate of 3e-8; the
        # ladder goes on to 256
        quad = sv.DEFAULT_QUADRATURE
        phi = GaussianBump(center=(0.0,), spread=0.3)
        data = _CountingSource(phi)
        u = sv.solve_homogeneous(HEAT_1D, data, [0.5], 2.0, quad)
        assert data.sizes[-1] == len(sv.pruned_hermite_tensor(256, 1)[1])
        exact = gaussian_closed_form(HEAT_1D, phi, [0.5], 2.0)[0]
        assert abs(u - exact) <= quad.target_rel_err * exact

    @pytest.mark.parametrize("powers", [(600,), (300, 300), (85, 85, 85)])
    def test_exact_order_beyond_the_budget_is_quadrature_failure(self, powers):
        # order 301 lies past 256, the top of every Hermite ladder (numpy's weights are NaN
        # from 384), and order 129 at n = 3 needs 129^3 > 2^21 nodes: the solve raises
        # before it evaluates the data at any node
        n = len(powers)
        data = _CountingGaussian(PolynomialGaussian(center=(0.0,) * n, spread=1e-3,
                                                    powers=powers))
        k = make_kernel(np.eye(n), np.zeros(n), 0.0)
        with pytest.raises(QuadratureFailure, match="over the budget"):
            sv.gradient_homogeneous(k, data, np.full(n, 0.1), 0.5)
        with pytest.raises(QuadratureFailure, match="over the budget"):
            sv.solve_nonhomogeneous(k, TimeInvariantForcing(data), np.full(n, 0.1), 0.5)
        assert data.sizes == []

    def test_quadrature_failure_on_underresolved_data(self):
        # in the kernel frame no rule up to order 256 resolves the bump
        narrow = GaussianBump(center=(0.0,), spread=0.01)
        rough = sv.QuadratureConfig(target_rel_err=1e-10)
        with pytest.raises(QuadratureFailure):
            sv.solve_homogeneous(HEAT_1D, _CountingSource(narrow), [0.0], 1.0, rough)
        # the product frame integrates even a far sharper bump exactly
        for phi in (narrow, GaussianBump(center=(0.0,), spread=2e-5)):
            u = sv.solve_homogeneous(HEAT_1D, phi, [0.0], 1.0, rough)
            u_ref = gaussian_closed_form(HEAT_1D, phi, [0.0], 1.0)[0]
            assert abs(u - u_ref) <= rough.target_rel_err * u_ref

    def test_nonfinite_finest_rule_is_quadrature_failure(self):
        # tau = t / width^2 = 25 in the kernel frame: the ladder stops at
        # order 256 (numpy's weights are NaN from 384), so the failure is the
        # unmet estimate, raised without a NaN or a warning
        narrow = GaussianBump(center=(0.0,), spread=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureFailure, match="error estimate"):
                sv.solve_homogeneous(HEAT_1D, _CountingSource(narrow), [0.3], 2.5)
            with pytest.raises(QuadratureFailure, match="error estimate"):
                sv.gradient_homogeneous(HEAT_1D, _CountingSource(narrow), [0.3], 2.5)
            u = sv.solve_homogeneous(HEAT_1D, narrow, [0.3], 2.5)
            grad = sv.gradient_homogeneous(HEAT_1D, narrow, [0.3], 2.5)
        u_ref, grad_ref = gaussian_closed_form(HEAT_1D, narrow, [0.3], 2.5)
        target = sv.DEFAULT_QUADRATURE.target_rel_err
        assert abs(u - u_ref) <= target * u_ref
        assert abs(grad[0] - grad_ref[0]) <= target * abs(grad_ref[0])

    def test_time_beyond_horizon(self):
        k = make_kernel([[1.0]], [0.0], 0.0, horizon=1.0)
        with pytest.raises(DomainError):
            sv.solve_homogeneous(k, ConstantData(1.0), [0.0], 1.5)
        with pytest.raises(DomainError):
            sv.solve_nonhomogeneous(k, TimeInvariantForcing(ConstantData(1.0)), [0.0], 1.5)
        assert sv.solve_homogeneous(k, ConstantData(1.0), [0.0], 1.0) == pytest.approx(1.0)

    def test_mismatched_dimensions(self):
        with pytest.raises(DomainError):
            sv.solve_homogeneous(HEAT_1D, GaussianBump(center=(0.0, 0.0), spread=1.0), [0.0], 1.0)
        with pytest.raises(DomainError):
            sv.solve_homogeneous(HEAT_1D, ConstantData(1.0), [0.0, 0.0], 1.0)


class TestBatch:
    def test_order_and_threading_agree(self):
        k = make_kernel([[1.0]], [0.1], -0.2)
        phi = GaussianBump(center=(0.0,), spread=1.0)
        pts = np.linspace(-1, 1, 9)[:, None]
        times = np.linspace(0.2, 1.4, 9)
        serial = sv.solve_batch(k, phi, pts, times)
        threaded = sv.solve_batch(k, phi, pts, times, jobs=4)
        assert np.array_equal(serial, threaded)

    def test_gradient_batch_shape(self):
        k = make_kernel(np.eye(2), [0.0, 0.0], 0.0)
        phi = GaussianBump(center=(0.0, 0.0), spread=1.0)
        out = sv.solve_batch(k, phi, np.zeros((3, 2)), [0.5, 1.0, 1.5], gradient=True)
        assert out.shape == (3, 2)

    def test_zero_points(self):
        k = make_kernel(np.eye(2), [0.0, 0.0], 0.0)
        phi = GaussianBump(center=(0.0, 0.0), spread=1.0)
        assert sv.solve_batch(k, phi, [], []).shape == (0,)
        assert sv.solve_batch(k, phi, [], [], gradient=True).shape == (0, 2)
        with pytest.raises(DomainError):
            sv.solve_batch(k, phi, [[0.0, 0.0, 0.0]], [1.0])
