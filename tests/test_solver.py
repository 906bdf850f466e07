"""Solver tests: convolution identities, Duhamel bounds, error paths."""

import math
import warnings

import numpy as np
import pytest

from parabound import solver as sv
from parabound.errors import DomainError, QuadratureFailure, UnsupportedData
from parabound.sources import (
    BoxIndicator,
    ConstantData,
    GaussianBump,
    GridData,
    TimeInvariantForcing,
)

from .test_kernel import HEAT_1D, make_kernel, random_kernel

ERF_HALF = 0.5204998778130465


class TestQuadratureConfig:
    def test_defaults(self):
        q = sv.QuadratureConfig()
        assert q.hermite_order == 64 and q.time_panels == 48
        assert q.truncation_radius == 12.0 and q.target_rel_err == 1e-8

    def test_validation(self):
        with pytest.raises(DomainError):
            sv.QuadratureConfig(hermite_order=4)
        with pytest.raises(DomainError):
            sv.QuadratureConfig(truncation_radius=-1.0)


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
        coarse_cfg = sv.QuadratureConfig(target_rel_err=1e-4)  # trapezoid estimate is O(h^2)-pessimistic
        for x in (0.0, 0.8):
            direct = sv.solve_homogeneous(k, phi, [x], t_time)
            composed = sv.solve_homogeneous(k, grid, [x], t_time - s_time, coarse_cfg)
            assert composed == pytest.approx(direct, rel=1e-6)


class TestGridSolve:
    def _grid_1d(self, h=0.01, half=6.0):
        xs = np.arange(-half, half + h / 2, h)
        return GridData([xs[0]], [h], np.exp(-(xs**2) / 2.0))

    def test_matches_closed_form(self):
        grid = self._grid_1d()
        cfg = sv.QuadratureConfig(target_rel_err=1e-4)
        u = sv.solve_homogeneous(HEAT_1D, grid, [0.3], 0.7, cfg)
        # phi = e^{-y^2/2} is a GaussianBump with spread 1/2
        width = 0.5 + 0.7
        exact = math.sqrt(0.5 / width) * math.exp(-(0.3**2) / (4 * width))
        assert u == pytest.approx(exact, rel=1e-6)

    def test_truncation_guard(self):
        grid = self._grid_1d(h=0.05, half=6.0)
        tight = sv.QuadratureConfig(truncation_radius=1.5, target_rel_err=1e-10)
        with pytest.raises(UnsupportedData):
            sv.solve_homogeneous(HEAT_1D, grid, [0.0], 0.5, tight)

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
        from parabound.sources import PolynomialGaussian

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


class TestErrorPaths:
    def test_quadrature_failure_on_underresolved_data(self):
        sharp = GaussianBump(center=(0.0,), spread=2e-5)
        rough = sv.QuadratureConfig(hermite_order=8, target_rel_err=1e-10)
        with pytest.raises(QuadratureFailure):
            sv.solve_homogeneous(HEAT_1D, sharp, [0.0], 1.0, rough)

    def test_nonfinite_finest_rule_is_quadrature_failure(self):
        # tau = t / width^2 = 25: the escalation reaches order 512, whose
        # numpy Hermite weights contain NaN; that must raise, not return NaN.
        narrow = GaussianBump(center=(0.0,), spread=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureFailure):
                sv.solve_homogeneous(HEAT_1D, narrow, [0.3], 2.5)
            with pytest.raises(QuadratureFailure):
                sv.gradient_homogeneous(HEAT_1D, narrow, [0.3], 2.5)

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
