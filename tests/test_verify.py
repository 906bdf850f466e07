"""Tests for the oracle/verification layer."""

import json
import math

import numpy as np
import pytest

from parabound import verify as vf
from parabound.errors import DivergentIntegral, DomainError
from parabound.kernel import FundamentalSolution, ProblemSpec
from parabound.mathcore import SpdMatrix
from parabound.quadrature import (
    BLOCK_VALUES,
    TRUNCATION_RADIUS,
    hermite_tensor,
    panel_edges,
    panel_nodes,
)
from parabound.sharp_constants import (
    BoundQuery,
    conjugate_exponent,
    sharp_coefficient_hom,
    sharp_coefficient_nonhom,
    sphere_integral,
)
from parabound.solver import gradient_homogeneous
from parabound.sources import GaussianBump, SourceFunction

from .test_kernel import HEAT_1D, make_kernel, random_kernel


class TestMassOracle:
    def test_matches_identity_across_specs(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(3):
                k = FundamentalSolution(vf.random_problem(rng, n))
                t = float(rng.uniform(0.2, 3.0))
                mass = vf.mass_quadrature_oracle(k, t)
                assert abs(mass - k.total_mass(t)) <= 1e-10 * k.total_mass(t)

    def test_detects_broken_kernel(self):
        # scaling the kernel values must move the quadrature mass
        class ScaledKernel(FundamentalSolution):
            def value(self, x, t):
                return 1.001 * super().value(x, t)

        k = make_kernel([[1.0]], [0.0], 0.0)
        broken = ScaledKernel(k.spec)
        good = vf.mass_quadrature_oracle(k, 1.0)
        bad = vf.mass_quadrature_oracle(broken, 1.0)
        assert abs(bad / good - 1.001) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_order_32_meets_the_mass_to_roundoff(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(3):
            k = random_kernel(rng, n)
            t = float(rng.uniform(0.2, 3.0))
            assert abs(vf.mass_quadrature_oracle(k, t) / k.total_mass(t) - 1.0) <= 1e-14


class TestKernelGradNormOracle:
    def test_frozen_l2_value(self):
        # equals (sqrt(2 pi) / (16 pi))^{1/2}; this oracle is what the
        # closed form is checked against
        val = vf.kernel_grad_norm_oracle(HEAT_1D, 2.0, np.array([1.0]), 1.0)
        assert val == pytest.approx(0.22331096043450058, rel=1e-10)

    def test_l1_norm_equals_sup_coefficient(self):
        # 1D: integral of |dG/dx| = 2 max G = e^{ct}/sqrt(pi t)
        k = make_kernel([[1.0]], [0.0], -0.3)
        t = 0.8
        val = vf.kernel_grad_norm_oracle(k, 1.0, np.array([1.0]), t)
        assert val == pytest.approx(math.exp(-0.3 * t) / math.sqrt(math.pi * t), rel=1e-10)

    def test_time_scaling_quarter(self):
        v1 = vf.kernel_grad_norm_oracle(HEAT_1D, 1.0, np.array([1.0]), 0.5)
        v4 = vf.kernel_grad_norm_oracle(HEAT_1D, 1.0, np.array([1.0]), 2.0)
        assert v4 / v1 == pytest.approx(0.5, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
    def test_duality_against_closed_form(self, n, p):
        rng = np.random.default_rng(100 * n + int(p if p != math.inf else 99))
        k = random_kernel(rng, n)
        ell = vf.random_unit_vector(rng, n)
        t = float(rng.uniform(0.3, 2.0))
        oracle = vf.kernel_grad_norm_oracle(k, conjugate_exponent(p), ell, t)
        closed = sharp_coefficient_hom(k, p, t, ell).value
        assert abs(oracle - closed) <= 1e-6 * closed

    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 4.0, 8.0, math.inf])
    def test_n2_inner_rule_to_near_roundoff(self, p):
        # p' > 2 narrows the integrand's Gaussian below the Hermite weight's,
        # which is where the inner rule must grow
        rng = np.random.default_rng(7)
        k = random_kernel(rng, 2)
        ell = vf.random_unit_vector(rng, 2)
        oracle = vf.kernel_grad_norm_oracle(k, conjugate_exponent(p), ell, 0.9)
        closed = sharp_coefficient_hom(k, p, 0.9, ell).value
        assert abs(oracle - closed) <= 1e-12 * closed


class TestSpacetimeOracle:
    def test_frozen_l43_value(self):
        val = vf.spacetime_grad_norm_oracle(HEAT_1D, 4.0 / 3.0, np.array([1.0]), 1.0)
        assert val == pytest.approx(1.3366634215090237, rel=1e-9)

    def test_reduction_to_sup_forcing_coefficient(self):
        k = make_kernel([[1.8]], [0.7], -0.4)
        t = 1.2
        val = vf.spacetime_grad_norm_oracle(k, 1.0, np.array([1.0]), t)
        closed = sharp_coefficient_nonhom(k, math.inf, t, np.array([1.0])).value
        assert abs(val - closed) <= 1e-10 * closed

    @pytest.mark.parametrize(
        "n, p",
        [(1, 3.5), (1, 4.0), (1, 6.0), (1, 8.0), (1, math.inf),
         (2, 6.0), (2, 8.0), (2, math.inf)],
        ids=["3.5", "4.0", "6.0", "8.0", "inf", "n2-6.0", "n2-8.0", "n2-inf"],
    )
    def test_time_rule_to_near_roundoff(self, n, p):
        # n = 2 takes one blocked kernel_grad_power_integral pass per time node
        rng = np.random.default_rng(int(10 * min(p, 9.0)) + 100 * (n - 1))
        k = random_kernel(rng, n)
        t = float(rng.uniform(0.3, 2.0))
        ell = np.array([1.0]) if n == 1 else vf.random_unit_vector(rng, n)
        oracle = vf.spacetime_grad_norm_oracle(k, conjugate_exponent(p), ell, t)
        closed = sharp_coefficient_nonhom(k, p, t, ell).value
        assert abs(oracle - closed) <= 2e-13 * closed

    def test_inadmissible_exponent(self):
        with pytest.raises(DivergentIntegral):
            vf.spacetime_grad_norm_oracle(HEAT_1D, 1.5, np.array([1.0]), 1.0)


class TestExtremalInitialData:
    def test_p2_profile_proportional_to_kernel_gradient(self):
        target = vf.ExtremalTarget(x0=(0.4,), t0=0.9, p=2.0, direction=(1.0,))
        data = vf.extremal_initial_data(HEAT_1D, target)
        ys = np.linspace(-3, 3, 41)[:, None]
        k_vals = HEAT_1D.gradient(np.array([0.4]) - ys, 0.9)[:, 0]
        ratio = data(ys) / -k_vals
        assert np.allclose(ratio, ratio[0], rtol=1e-12)

    def test_pinf_profile_is_shifted_sign(self):
        target = vf.ExtremalTarget(x0=(0.3,), t0=1.0, p=math.inf, direction=(1.0,))
        data = vf.extremal_initial_data(HEAT_1D, target)
        vals = data(np.array([[-1.0], [0.2], [0.4], [2.0]]))
        # kernel gradient of G(x0 - y) changes sign once at y = x0
        assert vals[0] == -vals[2] and vals[1] == -vals[3]
        assert set(np.abs(vals)) == {1.0}
        assert data.kinks_1d() == (0.3,)

    @pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
    def test_unit_norm(self, p):
        rng = np.random.default_rng(5)
        k = random_kernel(rng, 1)
        target = vf.ExtremalTarget(x0=(0.1,), t0=0.7, p=p, direction=(1.0,))
        data = vf.extremal_initial_data(k, target)
        assert data.lp_norm(p) == pytest.approx(1.0, abs=1e-8)

    def test_mollified_sup_below_one(self):
        target = vf.ExtremalTarget(x0=(0.0,), t0=1.0, p=math.inf, direction=(1.0,), mollify=0.1)
        data = vf.extremal_initial_data(HEAT_1D, target)
        assert 0.5 < data.sup_norm() < 1.0

    def test_target_validation(self):
        with pytest.raises(DomainError):
            vf.ExtremalTarget(x0=(0.0,), t0=1.0, p=2.0, direction=(0.5,))
        with pytest.raises(DomainError):
            vf.ExtremalTarget(x0=(0.0,), t0=1.0, p=2.0, direction=(1.0,), mollify=0.1)
        with pytest.raises(DomainError):
            vf.ExtremalTarget(x0=(0.0,), t0=-1.0, p=2.0, direction=(1.0,))


class TestAttainmentHom:
    def test_exact_extremals(self):
        rng = np.random.default_rng(17)
        k = random_kernel(rng, 1)
        r2 = vf.attainment_ratio_hom(
            k, vf.ExtremalTarget(x0=(0.2,), t0=0.9, p=2.0, direction=(1.0,))
        )
        assert 0.9999 <= r2 <= 1.0001
        rinf = vf.attainment_ratio_hom(
            k, vf.ExtremalTarget(x0=(0.2,), t0=0.9, p=math.inf, direction=(1.0,))
        )
        assert 0.999 <= rinf <= 1.001

    def test_sign_convention_of_extremal_derivative(self):
        # the -sign(k) construction drives du/dl to -K ||phi||, not +K
        target = vf.ExtremalTarget(x0=(0.0,), t0=1.0, p=math.inf, direction=(1.0,))
        data = vf.extremal_initial_data(HEAT_1D, target)
        grad = gradient_homogeneous(HEAT_1D, data, np.array([0.0]), 1.0)
        coeff = sharp_coefficient_hom(HEAT_1D, math.inf, 1.0, [1.0]).value
        assert grad[0] == pytest.approx(-coeff, rel=1e-9)

    def test_non_extremal_data_strictly_below_one(self):
        phi = GaussianBump(center=(0.5,), spread=0.7)
        t = 0.9
        grad = gradient_homogeneous(HEAT_1D, phi, np.array([0.0]), t)
        for p in (2.0, 4.0, math.inf):
            coeff = sharp_coefficient_hom(HEAT_1D, p, t, [1.0]).value
            ratio = abs(grad[0]) / (coeff * phi.lp_norm(p))
            assert ratio < 0.999

    def test_holder_bound_monotone_domination(self):
        # the bound dominates the measured derivative for every p at once
        phi = GaussianBump(center=(-0.3,), spread=1.1, amp=1.4)
        t = 0.7
        grad = gradient_homogeneous(HEAT_1D, phi, np.array([0.4]), t)
        for p in (2.0, 4.0, 8.0, math.inf):
            bound = sharp_coefficient_hom(HEAT_1D, p, t, [1.0]).value * phi.lp_norm(p)
            assert abs(grad[0]) <= bound * (1 + 1e-6)


class TestAttainmentNonhom:
    def test_exact_extremal_p_n_plus_3(self):
        rng = np.random.default_rng(23)
        k = random_kernel(rng, 1)
        r = vf.attainment_ratio_nonhom(
            k, vf.ExtremalTarget(x0=(0.1,), t0=0.8, p=4.0, direction=(1.0,))
        )
        assert 0.999 <= r <= 1.001

    @pytest.mark.parametrize("x0", [0.3, 12.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_finite_p_ratio_is_one_to_roundoff_far_from_the_origin(self, seed, x0):
        # the oracle forms the offsets x0 - y itself, so its smallest-eta
        # nodes (window ~1e-10 wide) do not round to ulp(x0)
        k = FundamentalSolution(vf.random_problem(np.random.default_rng(seed), 1))
        target = vf.ExtremalTarget(x0=(x0,), t0=0.8, p=4.0, direction=(1.0,))
        assert abs(vf.attainment_ratio_nonhom(k, target) - 1.0) <= 1e-13

    def test_mollified_family_monotone(self):
        unit = FundamentalSolution(ProblemSpec(SpdMatrix([[1.0]]), np.zeros(1), 0.0, 8.0))
        ratios = [
            vf.attainment_ratio_nonhom(
                unit,
                vf.ExtremalTarget(x0=(0.0,), t0=0.5, p=math.inf, direction=(1.0,), mollify=eps),
            )
            for eps in (0.3, 0.1, 0.03)
        ]
        assert ratios[0] < ratios[1] < ratios[2] <= 1.0 + 1e-6
        assert ratios[2] >= 0.99

    @pytest.mark.parametrize("p, mollify", [(math.inf, 0.1), (6.0, 0.0)])
    def test_forcing_takes_one_tau_per_row(self, p, mollify):
        # a per-row tau equals row-by-row scalar calls bitwise, rows at tau >= t0 exact zeros
        k = make_kernel([[1.3]], [0.5], -0.25)
        forcing = vf.extremal_forcing(
            k, vf.ExtremalTarget(x0=(0.2,), t0=0.9, p=p, direction=(1.0,), mollify=mollify))
        pts = np.linspace(-1.0, 1.0, 7)[:, None]
        taus = np.array([0.0, 0.3, 0.899, 0.9, 1.2, 0.5, 0.9 - 1e-3])
        rows = forcing(pts, taus)
        assert np.array_equal(rows, [forcing(y[None], tau)[0] for y, tau in zip(pts, taus)])
        assert np.all(rows[[3, 4]] == 0.0) and np.all(rows[[0, 1, 2, 5, 6]] != 0.0)
        assert np.array_equal(forcing(pts[:3], taus[:3]), rows[:3])
        assert np.array_equal(forcing(pts, 1.2), np.zeros(7))
        assert np.array_equal(forcing(pts, np.full(7, 1.2)), np.zeros(7))

    def test_forcing_requires_mollification_at_pinf(self):
        with pytest.raises(DomainError):
            vf.extremal_forcing(
                HEAT_1D, vf.ExtremalTarget(x0=(0.0,), t0=0.5, p=math.inf, direction=(1.0,))
            )


class TestDriftInvariance:
    def test_constants_and_oracles(self):
        a = SpdMatrix([[1.3]])
        k0 = FundamentalSolution(ProblemSpec(a, np.zeros(1), -0.2, 8.0))
        kb = FundamentalSolution(ProblemSpec(a, np.array([3.0]), -0.2, 8.0))
        for kind, p in (("hom", 2.0), ("nonhom", 4.0)):
            query = BoundQuery(p=p, t=0.9, kind=kind, direction=(1.0,))
            report = vf.b_invariance_check(k0, kb, query)
            assert report.passed
            assert report.config["constants_bitwise_equal"]
            assert report.rel_err <= 1e-8


class _NoGaussianFactor(SourceFunction):
    """Forwards evaluation and norms only, so the solver takes the kernel frame."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n

    def __call__(self, pts):
        return self.inner(pts)

    def lp_norm(self, p):
        return self.inner.lp_norm(p)


class TestMaxPrinciple:
    def test_constant_data_attains_equality(self):
        from parabound.sources import ConstantData

        k = make_kernel([[1.0]], [0.4], -0.5)
        report = vf.max_principle_check(k, ConstantData(1.0), [(np.zeros(1), 1.0)])
        assert report.passed
        assert report.ratio == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_data_strict_inequality(self):
        k = make_kernel([[1.0]], [0.0], 0.3)
        phi = GaussianBump(center=(0.0,), spread=1.0)
        report = vf.max_principle_check(k, phi, [(np.array([0.5]), 0.7)])
        assert report.passed and report.ratio < 1.0

    def test_unresolved_samples_counted(self):
        # at t = 2.5 the spread-0.05 bump, hidden from the product frame,
        # needs a finer kernel-frame rule than the solver has: that sample
        # is counted, not compared
        phi = _NoGaussianFactor(GaussianBump(center=(0.0,), spread=0.05))
        resolved, unresolved = (np.array([0.3]), 0.1), (np.array([0.3]), 2.5)
        report = vf.max_principle_check(HEAT_1D, phi, [resolved, unresolved])
        assert report.passed and 0.0 < report.ratio < 1.0
        assert report.config["unresolved_samples"] == 1
        report = vf.max_principle_check(HEAT_1D, phi, [unresolved])
        assert not report.passed

    def test_shipped_check_resolves_every_sample(self):
        # seed 2000 draws samples up to tau = t lam_max / (2 spread) of about 15
        report = dict(vf.default_checks(seed=2000))["max_principle/s0"]()
        assert report.passed and report.config["unresolved_samples"] == 0

    def test_decay_with_negative_reaction(self):
        from parabound.sources import ConstantData

        k = make_kernel([[1.0]], [0.0], -1.0)
        from parabound.solver import solve_homogeneous

        u = [solve_homogeneous(k, ConstantData(1.0), np.zeros(1), t) for t in (1.0, 2.0, 4.0)]
        assert u[0] > u[1] > u[2]
        assert u[2] == pytest.approx(math.exp(-4.0), rel=1e-10)


class TestPdeResidualOrder:
    def test_order_at_least_1_8(self):
        rng = np.random.default_rng(31)
        for n in (1, 2):
            k = random_kernel(rng, n)
            order = vf.pde_residual_order(k, np.random.default_rng(77), points=20)
            assert order >= 1.8


class TestSphereSurfaceOracle:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_closed_form(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            v = vf.random_unit_vector(rng, n) * float(rng.uniform(0.5, 2.0))
            pc = float(rng.uniform(1.0, 2.5))
            closed = sphere_integral(n, pc, v)
            surf = vf.sphere_surface_oracle(n, pc, v)
            assert abs(closed - surf) <= 1e-13 * closed


class TestSuite:
    def test_default_suite_passes(self):
        reports = vf.run_checks(vf.default_checks())
        assert all(r.passed for r in reports)
        names = [r.check for r in reports]
        assert names == sorted(names)

    def test_perturbation_fails_duality(self):
        reports = vf.run_checks(vf.default_checks(perturb=1e-3))
        failed = {r.check for r in reports if not r.passed}
        assert any(name.startswith("duality_hom") for name in failed)
        assert any(name.startswith("duality_nonhom") for name in failed)

    def test_small_perturbation_fails_the_tight_checks(self):
        # the checks whose tolerance is below 1e-6; the loose ones must not notice
        reports = vf.run_checks(vf.default_checks(perturb=1e-6))
        failed = {r.check for r in reports if not r.passed}
        assert failed == {
            "duality_nonhom/pinf_reduction", "scaling/hom_pinf", "special_case/hom_pinf",
            "special_case/nonhom_pinf", "sphere_oracle/n2", "sphere_oracle/n3",
            *(f"mass/n{n}/s{i}" for n in (1, 2, 3) for i in (0, 1)),
        }

    @pytest.mark.parametrize("seed", [1000, 1001])
    def test_attainment_checks_honour_perturb(self, seed):
        # their closed form is the ratio 1, scaled by 1 + perturb like every other
        for perturb, passed in ((0.0, True), (0.05, False)):
            checks = [(name, fn) for name, fn in vf.default_checks(seed, perturb=perturb)
                      if name.startswith("attainment")]
            reports = vf.run_checks(checks)
            assert len(reports) == 4
            assert all(r.passed is passed for r in reports)
            assert all(r.closed_form == 1.0 + perturb for r in reports)

    def test_jobs_deterministic(self):
        serial = vf.run_checks(vf.default_checks())
        threaded = vf.run_checks(vf.default_checks(), jobs=4)
        for a, b in zip(serial, threaded):
            assert a.check == b.check and a.oracle == b.oracle and a.closed_form == b.closed_form

    def test_report_json_line_shape(self):
        reports = vf.run_checks(vf.default_checks()[:1])
        blob = json.loads(reports[0].json_line())
        assert set(blob) == {"check", "closed_form", "oracle", "rel_err", "ratio", "passed"}


class TestSolvedSolutionResidual:
    def test_solved_u_satisfies_pde_at_second_order(self):
        # residual of the solved u itself, not just the kernel
        from parabound.solver import solve_homogeneous

        k = make_kernel([[1.2]], [0.4], -0.3)
        phi = GaussianBump(center=(0.1,), spread=0.9)
        a = k.spec.diffusion.entries[0, 0]
        b = k.spec.drift[0]
        c = k.spec.reaction

        def u(x, t):
            return solve_homogeneous(k, phi, np.array([x]), t)

        def residual(x, t, h):
            ut = (u(x, t + h) - u(x, t - h)) / (2 * h)
            uxx = (u(x + h, t) - 2 * u(x, t) + u(x - h, t)) / h**2
            ux = (u(x + h, t) - u(x - h, t)) / (2 * h)
            return abs(ut - a * uxx - b * ux - c * u(x, t))

        points = [(-0.4, 0.6), (0.3, 1.1), (0.8, 0.9)]
        steps = (1e-2, 5e-3, 2.5e-3)
        sums = [np.mean([residual(x, t, h) for x, t in points]) for h in steps]
        order = math.log(sums[0] / sums[-1]) / math.log(steps[0] / steps[-1])
        assert order >= 1.8


# checks whose kernel calls come from the solver, not from an oracle pass
SOLVER_ROUTED = ("attainment_hom/", "attainment_nonhom/pinf_mollified", "b_invariance/attainment",
                 "max_principle/")


def one_pass_spacetime_norm(kernel, p_conj, t):
    """The n = 1 space-time oracle with all 80 time nodes in one kernel call."""
    s = p_conj - 0.5
    power = 1.0 / (1.0 - s)
    v, wv = panel_nodes(panel_edges(0.0, t ** (1.0 - s), base_panels=4), order=20)
    eta = v**power
    z, w = vf._window_rule()
    sigma = 2.0 * np.sqrt(eta * float(kernel.dec.eigenvalues[-1]))
    pts = np.outer(sigma, z) - (eta * kernel.spec.drift[0])[:, None]
    grads = kernel.gradient(pts.reshape(-1, 1), np.repeat(eta, z.size))[:, 0]
    spatial = sigma * ((np.abs(grads) ** p_conj).reshape(pts.shape) @ w)
    return float((wv * power * v ** (power - 1.0)) @ spatial) ** (1.0 / p_conj)


def one_pass_grad_power(kernel, p_conj, ell, t):
    """kernel_grad_power_integral at n >= 2 with every outer node in one kernel call."""
    n = kernel.n
    q_rot, shift, chol = vf._directional_kink_frame(kernel, ell, t)
    radius = TRUNCATION_RADIUS * 2.0 * math.sqrt(t * float(kernel.dec.eigenvalues[-1]))
    z1, w1 = panel_nodes(panel_edges(-radius, radius, kinks=(0.0,)), order=12)
    xi, wx = hermite_tensor(32 if p_conj <= 2.0 else 96, n - 1)
    inner = 2.0 * math.sqrt(t) * (xi @ chol.T) @ q_rot[:, 1:].T - t * kernel.spec.drift
    along = q_rot[:, 0] + q_rot[:, 1:] @ shift
    pts = (inner[None, :, :] + z1[:, None, None] * along).reshape(-1, n)
    vals = np.abs(kernel.gradient(pts, t) @ ell) ** p_conj
    sums = vals.reshape(z1.size, -1) @ np.exp(np.log(wx) + np.einsum("ij,ij->i", xi, xi))
    jac = (2.0 * math.sqrt(t)) ** (n - 1) * float(np.prod(np.diag(chol)))
    return float(w1 @ (jac * sums))


def one_pass_mass(kernel, t):
    """mass_quadrature_oracle over the whole cached tensor rule in one kernel call."""
    xi, w = hermite_tensor(32, kernel.n)
    scale = 2.0 * math.sqrt(t) * vf.MASS_NODE_SCALE
    vals = kernel.value(-t * kernel.spec.drift + scale * (xi @ kernel.sqrt), t)
    total_w = np.exp(np.log(w) + np.einsum("ij,ij->i", xi, xi))
    return float(scale**kernel.n * kernel.det_sqrt * (total_w @ vals))


def one_pass_sphere_n3(p_conj, v):
    """The n = 3 surface oracle over the whole 64 x theta grid at once."""
    rv = vf._rotation_to_axis(v).T @ v
    theta, w_th = panel_nodes(panel_edges(0.0, math.pi, kinks=(0.5 * math.pi,)))
    phi = np.linspace(0.0, 2.0 * math.pi, 65)[:-1, None]
    sin_th = np.sin(theta)
    dots = rv[0] * np.cos(theta) + sin_th * (rv[1] * np.cos(phi) + rv[2] * np.sin(phi))
    return 2.0 * math.pi / 64 * float((np.abs(dots) ** p_conj @ (w_th * sin_th)).sum())


class TestBlockedOracles:
    @pytest.mark.parametrize("seed", [20250810, 7])
    def test_no_kernel_call_exceeds_a_block(self, seed, monkeypatch):
        calls = []
        for method in ("value", "gradient"):
            def wrapped(self, x, t, original=getattr(FundamentalSolution, method)):
                calls.append((np.atleast_2d(x).shape[0], self.n))
                return original(self, x, t)

            monkeypatch.setattr(FundamentalSolution, method, wrapped)
        ran = [fn() for name, fn in vf.default_checks(seed) if not name.startswith(SOLVER_ROUTED)]
        assert len(ran) == 29 and all(r.passed for r in ran)
        assert all(rows <= BLOCK_VALUES // n for rows, n in calls), max(calls)

    @pytest.mark.parametrize("p_conj", [4.0 / 3.0, 6.0 / 5.0, 1.0], ids=["4/3", "6/5", "1"])
    def test_spacetime_oracle_matches_one_pass(self, p_conj):
        rng = np.random.default_rng(40)
        for _ in range(2):
            k = random_kernel(rng, 1)
            t = float(rng.uniform(0.3, 2.0))
            blocked = vf.spacetime_grad_norm_oracle(k, p_conj, np.array([1.0]), t)
            assert abs(blocked / one_pass_spacetime_norm(k, p_conj, t) - 1.0) <= 1e-15

    @pytest.mark.parametrize("p_conj", [1.0, 4.0 / 3.0, 2.0, 4.0], ids=["1", "4/3", "2", "4"])
    def test_n2_grad_power_matches_one_pass(self, p_conj):
        # p' = 4 takes the order-96 inner rule
        rng = np.random.default_rng(41)
        for _ in range(2):
            k = random_kernel(rng, 2)
            ell = vf.random_unit_vector(rng, 2)
            t = float(rng.uniform(0.3, 2.0))
            blocked = vf.kernel_grad_power_integral(k, p_conj, ell, t)
            assert abs(blocked / one_pass_grad_power(k, p_conj, ell, t) - 1.0) <= 1e-15

    def test_n3_mass_matches_one_pass(self):
        rng = np.random.default_rng(42)
        for _ in range(3):
            k = FundamentalSolution(vf.random_problem(rng, 3))
            t = float(rng.uniform(0.2, 3.0))
            blocked = vf.mass_quadrature_oracle(k, t)
            assert abs(blocked / one_pass_mass(k, t) - 1.0) <= 1e-15

    def test_n3_sphere_matches_one_pass(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            v = vf.random_unit_vector(rng, 3) * float(rng.uniform(0.5, 2.0))
            pc = float(rng.uniform(1.0, 2.5))
            blocked = vf.sphere_surface_oracle(3, pc, v)
            assert abs(blocked / one_pass_sphere_n3(pc, v) - 1.0) <= 1e-15
