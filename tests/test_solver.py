"""Solver tests: convolution identities, Duhamel bounds, error paths."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from parabound import solver as sv
from parabound.errors import DomainError, FloatOverflow, QuadratureFailure, UnsupportedData
from parabound.verify import ExtremalTarget, extremal_forcing
from parabound.sources import (
    BoxIndicator,
    ConstantData,
    GaussianBump,
    GridData,
    PolynomialGaussian,
    SourceFunction,
    TimeInvariantForcing,
)

from .test_kernel import HEAT_1D, make_kernel, random_kernel

ERF_HALF = 0.5204998778130465


class TestQuadratureConfig:
    def test_defaults(self):
        q = sv.QuadratureConfig()
        assert dataclasses.asdict(q) == {"hermite_order": 64, "target_rel_err": 1e-8}

    def test_validation(self):
        with pytest.raises(DomainError):
            sv.QuadratureConfig(hermite_order=4)
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
    """A counting wrapper that forwards gaussian_factor: the product-frame rule."""

    def gaussian_factor(self):
        return self.inner.gaussian_factor()


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
        _, bound = sv._hermite_pass(k, phi, x, t, order, False, 2.0)
        assert bound == pytest.approx(front * 2.0 * mass, rel=1e-14, abs=0.0)
        _, bound = sv._hermite_pass(k, phi, x, t, order, True, 2.0)
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
        value, bound = sv._hermite_pass(k, data, np.zeros(2), 0.5, 64, True, math.inf)
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
        # orders _coarse_order(8) = 4 and 8 agree on polygauss data, so the
        # ladder stops after them
        rng = np.random.default_rng(60 + n)
        k = random_kernel(rng, n)
        powers = tuple(int(p) for p in rng.integers(0, 3, n))
        data = _CountingGaussian(PolynomialGaussian(center=tuple(rng.uniform(-1, 1, n)),
                                                    spread=0.3, powers=powers))
        sv.solve_homogeneous(k, data, rng.uniform(-1, 1, n), 0.8)
        assert data.sizes == [4**n, 8**n]
        data.sizes.clear()
        sv.gradient_homogeneous(k, data, rng.uniform(-1, 1, n), 0.8)
        assert data.sizes == [4**n, 8**n]


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

    def test_duhamel_rung_k_runs_each_route_at_its_rung_k(self, monkeypatch):
        # rung k of the Duhamel ladder has 8 x 24 x 2^k sigma nodes, each
        # integrated at rung k of its route's ladder (constant data has one
        # closed form); these cases stop at rung 1, and the Hermite order
        # reaches only the kernel frame. A route over several times calls
        # itself at each; only the calls _duhamel_pass makes are recorded.
        used = []
        route = sv._route

        def recording(kernel, data, x, t, *rest):
            rule, keys = route(kernel, data, x, t, *rest)

            def rule_recorded(key):
                if np.ndim(t):
                    used.append((np.size(t), key))
                return rule(key)

            return rule_recorded, keys

        monkeypatch.setattr(sv, "_route", recording)
        cases = [
            (BoxIndicator(lo=(-0.5,), hi=(0.7,)), [(8, 1), (12, 1)]),
            (GaussianBump(center=(0.0,), spread=0.8), [4, 8]),
            (ConstantData(2.0), ["closed form"] * 2),
        ]
        for profile, keys in cases:
            used.clear()
            sv.solve_nonhomogeneous(HEAT_1D, TimeInvariantForcing(profile), [0.2], 0.4)
            assert used == list(zip((192, 384), keys))
        # a forcing that varies in time routes each sigma node on its own
        used.clear()
        target = ExtremalTarget(x0=(0.2,), t0=0.4, p=math.inf, direction=(1.0,), mollify=0.3)
        sv.solve_nonhomogeneous(HEAT_1D, extremal_forcing(HEAT_1D, target), [0.2], 0.4)
        assert used == [(1, 8)] * 192 + [(1, 12)] * 384


class TestErrorPaths:
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
        # sup|f| = inf and the scale is |grad u| alone; the uniform sigma
        # panels stay about 3% short of the true |grad u| = C = 1.22572576,
        # and their estimate, 8.2e-3, must fail the target
        target = ExtremalTarget(x0=(0.0,), t0=0.5, p=4, direction=(1.0,))
        forcing = extremal_forcing(HEAT_1D, target)
        assert forcing.sup_norm(0.5) == math.inf
        for tol in (1e-8, 1e-15):
            with pytest.raises(QuadratureFailure, match="error estimate"):
                sv.gradient_nonhomogeneous(HEAT_1D, forcing, [0.0], 0.5,
                                           sv.QuadratureConfig(target_rel_err=tol))

    def test_low_start_order_escalates_past_four_rules(self):
        # kernel frame: orders 16/32/64/128 leave an estimate of 3e-8; the
        # ladder goes on to 256
        quad = sv.QuadratureConfig(hermite_order=16)
        phi = GaussianBump(center=(0.0,), spread=0.3)
        u = sv.solve_homogeneous(HEAT_1D, _CountingSource(phi), [0.5], 2.0, quad)
        exact = gaussian_closed_form(HEAT_1D, phi, [0.5], 2.0)[0]
        assert abs(u - exact) <= quad.target_rel_err * exact

    def test_quadrature_failure_on_underresolved_data(self):
        # in the kernel frame no rule up to order 256 resolves the bump
        narrow = GaussianBump(center=(0.0,), spread=0.01)
        rough = sv.QuadratureConfig(hermite_order=8, target_rel_err=1e-10)
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

    def test_duhamel_with_nan_weight_order_is_quadrature_failure(self):
        # numpy's order-400 Hermite weights are NaN; the value must not be NaN or 0
        quad = sv.QuadratureConfig(hermite_order=400)
        gauss = TimeInvariantForcing(GaussianBump(center=(0.1,), spread=0.4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureFailure):
                sv.solve_nonhomogeneous(HEAT_1D, gauss, [0.0], 1.0, quad)
        # the kink-panel route does not use the Hermite order
        box = TimeInvariantForcing(BoxIndicator(lo=(-1.0,), hi=(1.0,)))
        assert math.isfinite(sv.solve_nonhomogeneous(HEAT_1D, box, [0.0], 1.0, quad))

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
