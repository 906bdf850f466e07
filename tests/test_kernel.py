"""Tests for the fundamental solution: closed-form values, symmetries,
finite-difference consistency and the Fourier-side representation."""

import math

import numpy as np
import pytest

from parabound.errors import DomainError, NonpositiveTime
from parabound.kernel import FundamentalSolution, ProblemSpec
from parabound.mathcore import SpdMatrix


def make_kernel(a, b, c, horizon=8.0):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return FundamentalSolution(
        ProblemSpec(diffusion=SpdMatrix(a), drift=np.asarray(b, float), reaction=c, horizon=horizon)
    )


def random_kernel(rng, n, horizon=8.0):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    lam = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=n))
    return make_kernel((q * lam) @ q.T, rng.uniform(-2, 2, size=n), rng.uniform(-1, 1), horizon)


HEAT_1D = make_kernel([[1.0]], [0.0], 0.0)


class TestProblemSpec:
    def test_round_trip_dict(self):
        spec = ProblemSpec(
            diffusion=SpdMatrix([[2.0, 0.5], [0.5, 1.0]]),
            drift=np.array([0.3, -1.0]),
            reaction=-0.25,
            horizon=4.0,
        )
        again = ProblemSpec.from_dict(spec.to_dict())
        assert np.array_equal(again.diffusion.entries, spec.diffusion.entries)
        assert np.array_equal(again.drift, spec.drift)
        assert again.reaction == spec.reaction and again.horizon == spec.horizon

    def test_validation(self):
        with pytest.raises(DomainError):
            ProblemSpec(SpdMatrix([[1.0]]), np.array([0.0, 1.0]), 0.0, 1.0)
        with pytest.raises(DomainError):
            ProblemSpec(SpdMatrix([[1.0]]), np.array([0.0]), 0.0, -1.0)
        with pytest.raises(DomainError):
            ProblemSpec.from_dict({"n": 2, "A": [[1.0]], "b": [0.0], "c": 0.0, "T": 1.0})


class TestValue:
    def test_heat_kernel_origin(self):
        assert HEAT_1D.value([0.0], 1.0) == pytest.approx(0.28209479177387814, rel=1e-14)

    def test_drift_moves_the_peak(self):
        k = make_kernel([[1.0]], [1.0], 0.0)
        xs = np.linspace(-3, 3, 1201).reshape(-1, 1)
        vals = k.value(xs, 1.0)
        assert xs[np.argmax(vals), 0] == pytest.approx(-1.0, abs=6e-3)

    def test_anisotropic_reference_value(self):
        # e^{-1/2} / ((2 sqrt(pi))^2 * 2), frozen at 30-digit precision
        k = make_kernel(np.diag([1.0, 4.0]), [0.0, 0.0], -0.5)
        assert k.value([0.0, 0.0], 1.0) == pytest.approx(0.024133088157513477, rel=1e-13)

    def test_even_in_shifted_coordinate(self):
        rng = np.random.default_rng(0)
        k = random_kernel(rng, 3)
        t = 0.7
        for _ in range(10):
            z = rng.standard_normal(3)
            xp = z - t * k.spec.drift
            xm = -z - t * k.spec.drift
            assert k.value(xp, t) == pytest.approx(k.value(xm, t), rel=1e-12)

    def test_drift_covariance_exact(self):
        rng = np.random.default_rng(1)
        a = np.diag([0.5, 2.0])
        k_drift = make_kernel(a, [3.0, -1.0], 0.3)
        k_plain = make_kernel(a, [0.0, 0.0], 0.3)
        t = 1.3
        for _ in range(10):
            x = rng.standard_normal(2)
            assert k_drift.value(x, t) == k_plain.value(x + t * np.array([3.0, -1.0]), t)

    def test_positive_and_underflow_guard(self):
        assert HEAT_1D.value([5.0], 0.5) > 0.0
        assert HEAT_1D.value([1e6], 1e-3) == 0.0

    def test_time_validation(self):
        with pytest.raises(NonpositiveTime):
            HEAT_1D.value([0.0], 0.0)
        with pytest.raises(NonpositiveTime):
            HEAT_1D.gradient([0.0], -1.0)


class TestTimePerRow:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_match_scalar_calls_bitwise(self, n):
        rng = np.random.default_rng(40 + n)
        k = random_kernel(rng, n)
        t = np.exp(rng.uniform(np.log(1e-6), np.log(8.0), 60))
        t[20:35] = t[20]  # a run of rows that share one time
        x = rng.standard_normal((t.size, n)) * np.sqrt(t)[:, None]
        value, grad, log_pref = k.value(x, t), k.gradient(x, t), k.log_prefactor(t)
        assert value.shape == (t.size,) and grad.shape == (t.size, n) and log_pref.shape == (t.size,)
        for i in range(t.size):
            assert value[i] == k.value(x[i], t[i])
            assert np.array_equal(grad[i], k.gradient(x[i], t[i]))
            assert log_pref[i] == k.log_prefactor(t[i])

    def test_nonpositive_time_in_the_array(self):
        x = np.zeros((3, 1))
        for bad in (0.0, -1e-300, math.nan):
            t = np.array([0.5, bad, 1.0])
            for fn in (HEAT_1D.value, HEAT_1D.gradient):
                with pytest.raises(NonpositiveTime):
                    fn(x, t)
            with pytest.raises(NonpositiveTime):
                HEAT_1D.log_prefactor(t)

    def test_one_time_per_row(self):
        with pytest.raises(DomainError):
            HEAT_1D.value(np.zeros((3, 1)), np.ones(2))
        with pytest.raises(DomainError):
            HEAT_1D.gradient(np.zeros(1), np.ones(1))


# G and grad G at four points, with the scalar t = 0.7 and with the times (0.7, 1e-3, 2.5, 0.7)
# per row: (A, b, c, values, gradients, values per row, gradients per row), frozen bitwise
FROZEN = {
    1: ([[1.3]], [0.5], -0.25,
        [0.19372874031248913, 0.2450596547878937, 0.230687068293318, 0.16160260297484422],
        [[0.10112214466860696], [0.029173768427130205], [-0.06548808715286501],
         [-0.11099079874645894]],
        [0.19372874031248913, 1.32436795631965e-26, 0.07177493464452825, 0.16160260297484422],
        [[0.10112214466860696], [2.8838961202678536e-24], [-0.01564325498662795],
         [-0.11099079874645894]]),
    2: ([[1.0, 0.6], [0.6, 2.0]], [0.5, -1.0], -0.25,
        [0.04116763079435608, 0.06103742331951815, 0.06639176795864589, 0.05297976163777616],
        [[0.015932221474669918, 0.020004927607262378], [0.000227864945194817, 0.02297638197381065],
         [-0.02519846842631535, 0.01772154582768734], [-0.04041387989541664, 0.00833989528021241]],
        [0.04116763079435608, 6.148602246468527e-48, 0.006757845831142702, 0.05297976163777616],
        [[0.015932221474669918, 0.020004927607262378],
         [2.1125911760427236e-45, -8.325785881651043e-47],
         [-0.003091655601494904, 0.0024335308942459877],
         [-0.04041387989541664, 0.00833989528021241]]),
    3: ([[1.0, 0.2, 0.1], [0.2, 1.5, 0.3], [0.1, 0.3, 2.0]], [0.5, -1.0, 0.3], 0.45,
        [0.011823806483405542, 0.021773565318039166, 0.025723251355468293, 0.019496033031354783],
        [[0.006083682733540615, 0.009073840879288406, 0.0012484634719832177],
         [0.0031160107625795583, 0.012286346815093451, -0.00129888796088459],
         [-0.005872840953257155, 0.009289565708820762, -0.0057850993055491165],
         [-0.011692299763308841, 0.0030802136172889336, -0.007606201577572109]],
        [0.011823806483405542, 2.2879853223659772e-62, 0.005099616788853364, 0.019496033031354783],
        [[0.006083682733540615, 0.009073840879288406, 0.0012484634719832177],
         [7.37789072463441e-60, 2.647568073975665e-60, 9.482432554546378e-61],
         [-0.0014936267071703532, 0.0019826631809793886, -0.0007581779046179928],
         [-0.011692299763308841, 0.0030802136172889336, -0.007606201577572109]]),
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_value_and_gradient_match_frozen_values_bitwise(n):
    a, b, c, value, grad, row_value, row_grad = FROZEN[n]
    k = make_kernel(a, b, c)
    x = np.linspace(-1.3, 0.9, 4 * n).reshape(4, n)
    times = np.array([0.7, 1e-3, 2.5, 0.7])
    assert np.array_equal(k.value(x, 0.7), value)
    assert np.array_equal(k.gradient(x, 0.7), grad)
    assert np.array_equal(k.value(x, times), row_value)
    assert np.array_equal(k.gradient(x, times), row_grad)


class TestGradient:
    def test_vanishes_only_at_shifted_origin(self):
        k = make_kernel([[1.0]], [0.0], 0.0)
        assert k.gradient([0.0], 1.0)[0] == 0.0
        assert abs(k.gradient([0.3], 1.0)[0]) > 0.0

    def test_reference_value(self):
        # -e^{-1} / (2 sqrt(pi)) at x = 2, t = 1; matches central differences
        g = HEAT_1D.gradient([2.0], 1.0)[0]
        assert g == pytest.approx(-0.10377687435514868, rel=1e-13)
        h = 1e-5
        fd = (HEAT_1D.value([2.0 + h], 1.0) - HEAT_1D.value([2.0 - h], 1.0)) / (2 * h)
        assert g == pytest.approx(fd, rel=1e-8)

    def test_decay_direction_sign(self):
        rng = np.random.default_rng(2)
        k = random_kernel(rng, 2)
        t = 0.9
        for _ in range(20):
            x = rng.standard_normal(2) * 2
            z = x + t * k.spec.drift
            if np.linalg.norm(z) < 1e-8:
                continue
            assert float(k.gradient(x, t) @ z) < 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_finite_differences(self, n):
        rng = np.random.default_rng(10 + n)
        k = random_kernel(rng, n)
        t = 1.1
        h = 1e-5
        checked = 0
        while checked < 12:
            xi = rng.uniform(-1.5, 1.5, size=n)
            x = -t * k.spec.drift + 2 * math.sqrt(t) * (k.sqrt @ xi)
            grad = k.gradient(x, t)
            if np.linalg.norm(grad) < 1e-3 * k.value(x, t) / math.sqrt(t):
                continue
            fd = np.empty(n)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd[j] = (k.value(x + e, t) - k.value(x - e, t)) / (2 * h)
            assert np.linalg.norm(fd - grad) <= 1e-7 * np.linalg.norm(grad)
            checked += 1


def pde_residual(k, x, t, h):
    """Central-difference residual of u_t = tr(A D2 u) + b . grad u + c u."""
    n = k.n
    a = k.spec.diffusion.entries
    ut = (k.value(x, t + h) - k.value(x, t - h)) / (2 * h)
    val = k.value(x, t)
    acc = ut - k.spec.reaction * val
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = h
        d2 = (k.value(x + ej, t) - 2 * val + k.value(x - ej, t)) / h**2
        d1 = (k.value(x + ej, t) - k.value(x - ej, t)) / (2 * h)
        acc -= a[j, j] * d2 + k.spec.drift[j] * d1
        for m in range(j + 1, n):
            em = np.zeros(n)
            em[m] = h
            djm = (
                k.value(x + ej + em, t)
                - k.value(x + ej - em, t)
                - k.value(x - ej + em, t)
                + k.value(x - ej - em, t)
            ) / (4 * h**2)
            acc -= 2 * a[j, m] * djm
    return acc


class TestPdeResidual:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_vanishes_at_second_order(self, n):
        rng = np.random.default_rng(100 + n)
        k = random_kernel(rng, n)
        steps = (1e-2, 5e-3, 2.5e-3)
        sums = []
        points = []
        for _ in range(20):
            t = rng.uniform(0.5, 2.0)
            xi = rng.uniform(-1.5, 1.5, size=n)
            points.append((-t * k.spec.drift + 2 * math.sqrt(t) * (k.sqrt @ xi), t))
        for h in steps:
            sums.append(np.mean([abs(pde_residual(k, x, t, h)) for x, t in points]))
        order = math.log(sums[0] / sums[-1]) / math.log(steps[0] / steps[-1])
        assert order >= 1.8


class TestFourierSymbol:
    def test_zero_frequency(self):
        k = make_kernel(np.diag([1.0, 2.0]), [0.5, 0.0], -0.3)
        assert k.fourier_symbol([0.0, 0.0], 2.0) == pytest.approx(math.exp(-0.6), rel=1e-14)

    def test_unit_cases(self):
        assert HEAT_1D.fourier_symbol([1.0], 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        k = make_kernel([[1.0]], [2.0], 0.0)
        expected = math.exp(-1.0) * complex(math.cos(2.0), math.sin(2.0))
        got = k.fourier_symbol([1.0], 1.0)
        assert got.real == pytest.approx(expected.real, rel=1e-14)
        assert got.imag == pytest.approx(expected.imag, rel=1e-14)

    def test_modulus_identity(self):
        rng = np.random.default_rng(3)
        k = random_kernel(rng, 2)
        t = 0.8
        for _ in range(10):
            xi = rng.standard_normal(2)
            quad = float(xi @ k.spec.diffusion.entries @ xi)
            assert abs(k.fourier_symbol(xi, t)) == pytest.approx(
                math.exp((k.spec.reaction - quad) * t), rel=1e-12
            )

    def test_inverse_transform_matches_convolution(self):
        # Multiply the transform of a Gaussian by the symbol, invert on a
        # fine periodic grid, and compare with direct quadrature of the
        # convolution integral.
        k = make_kernel([[1.0]], [0.7], -0.2)
        t = 0.5
        length = 40.0
        m = 4096
        xs = -length / 2 + length / m * np.arange(m)
        h = length / m
        phi = np.exp(-(xs**2) / 2.0)
        omega = 2 * math.pi * np.fft.fftfreq(m, d=h)
        symbol = k.fourier_symbol(omega.reshape(-1, 1), t)
        u_fft = np.fft.ifft(np.fft.fft(phi) * symbol).real
        mid = slice(m // 2 - 200, m // 2 + 200)
        diff = xs[mid][:, None] - xs[None, :]
        u_quad = (k.value(diff.reshape(-1, 1), t).reshape(diff.shape) * phi) @ np.full(m, h)
        assert np.max(np.abs(u_fft[mid] - u_quad)) <= 1e-6


class TestMass:
    @pytest.mark.parametrize(
        "c, t, expected",
        [(0.0, 1.0, 1.0), (-0.5, 2.0, math.exp(-1.0)), (1.0, 0.3, math.exp(0.3))],
    )
    def test_identity(self, c, t, expected):
        k = make_kernel([[1.0]], [0.0], c)
        assert k.total_mass(t) == pytest.approx(expected, rel=1e-15)

    def test_trapezoid_confirms_identity_1d(self):
        k = make_kernel([[2.5]], [1.5], -0.4)
        t = 0.8
        xs = np.linspace(-40, 40, 20001).reshape(-1, 1)
        mass = np.trapezoid(k.value(xs, t), xs[:, 0])
        assert mass == pytest.approx(k.total_mass(t), rel=1e-12)
