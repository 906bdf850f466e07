"""Tests for the SPD linear algebra and special-function kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabound import mathcore as mc
from parabound.errors import (
    AsymmetricInput,
    DivergentIntegral,
    DomainError,
    NotPositiveDefinite,
    QuadratureFailure,
)

from .panel_quadrature import duhamel_time_integral_quadrature

SQRT_PI = 1.7724538509055160273


def random_spd(rng, n, cond=None):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if cond is None:
        lam = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=n))
    else:
        lam = np.exp(np.linspace(0.0, np.log(cond), n))
    return mc.SpdMatrix((q * lam) @ q.T)


class TestSpdMatrix:
    def test_identity(self):
        d = mc.decompose(mc.SpdMatrix.identity(2))
        assert np.allclose(d.eigenvalues, [1.0, 1.0])
        assert np.allclose(d.sqrt.entries, np.eye(2))

    def test_diagonal(self):
        d = mc.decompose(mc.SpdMatrix.diagonal([1.0, 4.0]))
        assert np.allclose(d.sqrt.entries, np.diag([1.0, 2.0]), atol=1e-14)
        assert np.allclose(d.inv_sqrt.entries, np.diag([1.0, 0.5]), atol=1e-14)
        assert d.det_sqrt == pytest.approx(2.0, rel=1e-14)

    def test_known_eigenbasis_2x2(self):
        d = mc.decompose(mc.SpdMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(d.eigenvalues, [1.0, 3.0], atol=1e-14)
        v0 = d.eigenvectors[:, 0]
        v1 = d.eigenvectors[:, 1]
        assert abs(abs(v0 @ [1, -1]) / math.sqrt(2) - 1.0) < 1e-12
        assert abs(abs(v1 @ [1, 1]) / math.sqrt(2) - 1.0) < 1e-12

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricInput):
            mc.SpdMatrix([[1.0, 0.1], [0.2, 1.0]])

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            mc.SpdMatrix([[1.0, 0.0], [0.0, -2.0]])
        with pytest.raises(NotPositiveDefinite):
            mc.SpdMatrix([[1.0, 1.0], [1.0, 1.0]])  # singular

    def test_stored_entries_exactly_symmetric_and_frozen(self):
        m = mc.SpdMatrix([[2.0, 1.0 + 5e-15], [1.0, 2.0]])
        assert np.array_equal(m.entries, m.entries.T)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 3.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_reconstruction_and_roots_random(self, n):
        rng = np.random.default_rng(1234 + n)
        for _ in range(10):
            m = random_spd(rng, n)
            d = mc.decompose(m)
            a = m.entries
            scale = np.linalg.norm(a)
            recon = (d.eigenvectors * d.eigenvalues) @ d.eigenvectors.T
            assert np.linalg.norm(recon - a) <= 1e-12 * scale
            assert np.linalg.norm(d.sqrt.entries @ d.sqrt.entries - a) <= 1e-10 * scale
            inv_err = d.inv_sqrt.entries @ a @ d.inv_sqrt.entries - np.eye(n)
            assert np.linalg.norm(inv_err) <= 1e-10
            assert d.det_sqrt == pytest.approx(
                float(np.prod(np.sqrt(d.eigenvalues))), rel=1e-14
            )

    def test_high_condition_number(self):
        rng = np.random.default_rng(77)
        m = random_spd(rng, 4, cond=1e6)
        d = mc.decompose(m)
        a = m.entries
        assert np.linalg.norm(d.sqrt.entries @ d.sqrt.entries - a) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(d.inv_sqrt.entries @ a @ d.inv_sqrt.entries - np.eye(4)) <= 1e-10

    def test_decomposition_deterministic(self):
        m1 = mc.SpdMatrix([[3.0, 0.7, -0.2], [0.7, 2.0, 0.4], [-0.2, 0.4, 1.5]])
        m2 = mc.SpdMatrix([[3.0, 0.7, -0.2], [0.7, 2.0, 0.4], [-0.2, 0.4, 1.5]])
        d1, d2 = mc.decompose(m1), mc.decompose(m2)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
        assert d1.det_sqrt == d2.det_sqrt

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_eigenvector_sign_canonical(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(10):
            q = mc.decompose(random_spd(rng, n)).eigenvectors
            lead = q[np.argmax(np.abs(q), axis=0), np.arange(n)]
            assert np.all(lead > 0.0)
        # exact tie: the first of the equal-magnitude components is positive
        v0 = mc.decompose(mc.SpdMatrix([[2.0, 1.0], [1.0, 2.0]])).eigenvectors[:, 0]
        assert v0[0] > 0.0 > v0[1]

    def test_derived_matrices_reuse_eigenpairs(self):
        rng = np.random.default_rng(11)
        m = random_spd(rng, 3)
        d = mc.decompose(m)
        lam, q = d.eigenvalues, d.eigenvectors
        assert np.array_equal(d.sqrt._eigvals, np.sqrt(lam))
        assert np.array_equal(d.sqrt._eigvecs, q)
        # decreasing powers keep the ascending order by reversing the pairs
        assert np.array_equal(d.inv_sqrt._eigvals, 1.0 / np.sqrt(lam)[::-1])
        assert np.array_equal(d.inverse._eigvals, 1.0 / lam[::-1])
        assert np.array_equal(d.inverse._eigvecs, q[:, ::-1])
        assert np.linalg.norm(d.inverse.entries @ m.entries - np.eye(3)) <= 1e-12
        for derived in (d.sqrt, d.inv_sqrt, d.inverse):
            assert np.array_equal(derived.entries, derived.entries.T)
            with pytest.raises(ValueError):
                derived.entries[0, 0] = 1.0


class TestSpectralNorm:
    @pytest.mark.parametrize(
        "diag, expected",
        [([1.0, 1.0, 1.0], 1.0), ([1.0, 4.0], 1.0), ([0.25, 9.0], 2.0)],
    )
    def test_known_values(self, diag, expected):
        d = mc.decompose(mc.SpdMatrix.diagonal(diag))
        assert mc.spectral_norm_inv_sqrt(d) == pytest.approx(expected, rel=1e-14)

    def test_matches_max_over_directions(self):
        rng = np.random.default_rng(5)
        m = random_spd(rng, 3)
        d = mc.decompose(m)
        norm = mc.spectral_norm_inv_sqrt(d)
        for _ in range(500):
            ell = rng.standard_normal(3)
            ell /= np.linalg.norm(ell)
            assert np.linalg.norm(d.inv_sqrt.entries @ ell) <= norm * (1 + 1e-12)
        # attained at the lowest eigendirection
        v0 = d.eigenvectors[:, 0]
        assert np.linalg.norm(d.inv_sqrt.entries @ v0) == pytest.approx(norm, rel=1e-12)

    def test_product_with_sqrt_lambda_min(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 4, 8):
            d = mc.decompose(random_spd(rng, n))
            prod = mc.spectral_norm_inv_sqrt(d) * math.sqrt(d.eigenvalues[0])
            assert prod == pytest.approx(1.0, abs=1e-12)


class TestGamma:
    @pytest.mark.parametrize(
        "x, expected",
        [
            (0.5, SQRT_PI),
            (1.5, SQRT_PI / 2.0),
            # High-precision series reference (30 digits).
            (7.0 / 6.0, 0.927719333630039200708349482535),
        ],
    )
    def test_reference_values(self, x, expected):
        assert mc.gamma(x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.5, 10.3])
    def test_functional_equation(self, x):
        assert mc.gamma(x + 1.0) / (x * mc.gamma(x)) == pytest.approx(1.0, rel=1e-12)

    def test_integer_factorials(self):
        for k in range(1, 20):
            assert mc.gamma(k + 1) == pytest.approx(math.factorial(k), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            mc.gamma(0.0)
        with pytest.raises(DomainError):
            mc.gamma(-1.3)
        with pytest.raises(DomainError):
            mc.gamma(180.0)
        with pytest.raises(DomainError):
            mc.gamma(math.inf)
        with pytest.raises(DomainError):
            mc.gamma(math.nan)
        with pytest.raises(DomainError):
            mc.log_gamma(0.0)
        mc.gamma(171.6)  # near the top but representable

    def test_against_compensated_quadrature_oracle(self):
        # independent fixed-precision oracle: gamma(x) = integral of
        # exp(x u - e^u) du over R (t = e^u), trapezoid with Kahan summation
        def gamma_oracle(x, h=0.005, lo=-80.0, hi=12.0):
            total = 0.0
            comp = 0.0
            u = lo
            while u <= hi:
                term = math.exp(x * u - math.exp(u)) * h
                y = term - comp
                t = total + y
                comp = (t - total) - y
                total = t
                u += h
            return total

        for x in (0.5, 7.0 / 6.0, 1.5, 4.2, 10.3):
            assert mc.gamma(x) == pytest.approx(gamma_oracle(x), rel=1e-12)

    def test_log_gamma_consistency(self):
        for x in (0.05, 0.7, 3.2, 42.0, 140.0):
            assert mc.log_gamma(x) == pytest.approx(math.log(mc.gamma(x)), rel=1e-13, abs=1e-13)
        # log form works far beyond the overflow cap
        assert mc.log_gamma(1e6) == pytest.approx(math.lgamma(1e6), rel=1e-14)


class TestLowerIncompleteGamma:
    def test_known_exponential(self):
        # a = 1 reduces to 1 - e^-x
        for x in (0.3, 1.0, 5.0):
            assert mc.lower_incomplete_gamma(1.0, x) == pytest.approx(
                1.0 - math.exp(-x), rel=1e-14
            )

    def test_full_mass_limit(self):
        assert mc.lower_incomplete_gamma(0.4, 80.0) == pytest.approx(
            mc.gamma(0.4), rel=1e-14
        )

    def test_regime_split_continuity(self):
        # Series (x < a+1) and continued fraction (x >= a+1) must agree
        # across the split.
        a = 0.35
        lo = mc.lower_incomplete_gamma(a, a + 1.0 - 1e-9)
        hi = mc.lower_incomplete_gamma(a, a + 1.0 + 1e-9)
        assert hi == pytest.approx(lo, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            mc.lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            mc.lower_incomplete_gamma(0.5, -1.0)


class TestDuhamelTimeIntegral:
    def test_power_rule_examples(self):
        assert mc.duhamel_time_integral(1.0, 1, 1.0, 0.0) == pytest.approx(2.0, rel=1e-12)
        assert mc.duhamel_time_integral(1.0, 1, 4.0 / 3.0, 0.0) == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("t", [0.1, 1.0, 7.3])
    @pytest.mark.parametrize("n, p_conj", [(1, 1.0), (1, 1.3), (2, 1.15), (3, 1.1)])
    def test_zero_reaction_closed_form(self, t, n, p_conj):
        s = 0.5 * (n * (p_conj - 1.0) + p_conj)
        assert mc.duhamel_time_integral(t, n, p_conj, 0.0) == pytest.approx(
            t ** (1.0 - s) / (1.0 - s), rel=1e-12
        )

    def test_negative_reaction_paths_agree(self):
        # Closed form (incomplete gamma) vs graded panel quadrature.
        cases = [(2.0, 2, 1.2, -1.0), (0.7, 1, 1.4, -0.3), (4.0, 3, 1.05, -2.0)]
        for t, n, p_conj, c in cases:
            cf = mc.duhamel_time_integral(t, n, p_conj, c)
            quad = duhamel_time_integral_quadrature(t, n, p_conj, c)
            assert abs(cf - quad) / cf <= 1e-9

    def test_negative_reaction_reference(self):
        # beta^(s-1) * gammainc_lower(1-s, beta t) at 30-digit precision.
        assert mc.duhamel_time_integral(2.0, 2, 1.2, -1.0) == pytest.approx(
            4.39202395407601510955, rel=1e-12
        )

    def test_positive_reaction_reference(self):
        # n = 1, p = 3.01, c = 20, t = 8: t^(1-s) 1F1(1-s; 2-s; p'ct)/(1-s)
        # at 30-digit precision. An adaptive quadrature of the integrand
        # returned -9.5e77 here.
        p_conj = 3.01 / 2.01
        assert mc.duhamel_time_integral(8.0, 1, p_conj, 20.0) == pytest.approx(
            4.81279883107963481845773e101, rel=1e-12
        )

    def test_positive_reaction_large_exponent(self):
        # p'ct = 800 and 2.1e6: past the float64 range, the log stays
        # finite and accurate (30-digit references) and the value raises.
        assert mc.log_duhamel_time_integral(1.0, 1, 1.0, 800.0) == pytest.approx(
            793.31601425191918468529308673, rel=1e-14
        )
        assert mc.log_duhamel_time_integral(2.0, 3, 1.05, 1e6) == pytest.approx(
            2099985.71981125533360703053744, rel=1e-14
        )
        with pytest.raises(DomainError):
            mc.duhamel_time_integral(1.0, 1, 1.0, 800.0)
        with pytest.raises(DomainError):
            mc.log_duhamel_time_integral(1.0, 1, 1.0, 1e308 * 10.0)

    def test_log_matches_value(self):
        for c in (-2.0, 0.0, 0.5, 30.0, 100.0):
            value = mc.duhamel_time_integral(3.0, 2, 1.1, c)
            assert mc.log_duhamel_time_integral(3.0, 2, 1.1, c) == pytest.approx(
                math.log(value), rel=1e-14, abs=1e-14
            )

    def test_positive_reaction_monotone_in_t(self):
        vals = [mc.duhamel_time_integral(t, 1, 1.2, 0.5) for t in (0.5, 1.0, 2.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_divergent_exponent(self):
        # s >= 1 i.e. p <= n + 2; p' = 1.5, n = 1 gives s = 1
        with pytest.raises(DivergentIntegral):
            mc.duhamel_time_integral(1.0, 1, 1.5, 0.0)
        with pytest.raises(DivergentIntegral):
            mc.duhamel_time_integral(1.0, 3, 1.4, -1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            mc.duhamel_time_integral(0.0, 1, 1.2, 0.0)
        with pytest.raises(DomainError):
            mc.duhamel_time_integral(1.0, 1, 0.8, 0.0)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("p_of_n", ["n+2.01", "n+3", "2n+5", "40", "1e4", "inf"])
def test_positive_reaction_series_vs_panels(n, p_of_n):
    p = {"n+2.01": n + 2.01, "n+3": n + 3.0, "2n+5": 2.0 * n + 5.0,
         "40": 40.0, "1e4": 1e4, "inf": math.inf}[p_of_n]
    p_conj = 1.0 if p == math.inf else p / (p - 1.0)
    checked = 0
    for c in (1e-6, 0.3, 1.0, 5.0, 20.0):
        for t in (0.01, 0.5, 2.0, 8.0):
            series = mc.duhamel_time_integral(t, n, p_conj, c)
            try:
                panels = duhamel_time_integral_quadrature(t, n, p_conj, c)
            except QuadratureFailure:
                continue
            assert abs(series - panels) <= 1e-9 * panels, (c, t)
            checked += 1
    assert checked > 0


@settings(max_examples=80, deadline=None)
@given(
    t=st.floats(0.01, 10.0),
    n=st.integers(1, 8),
    margin=st.floats(0.01, 0.95),
)
def test_duhamel_power_rule_property(t, n, margin):
    # any admissible exponent: with c = 0 the closed form is the power rule
    p_conj = 1.0 + margin / (n + 1.0)  # admissible range is [1, (n+2)/(n+1))
    s = 0.5 * (n * (p_conj - 1.0) + p_conj)
    value = mc.duhamel_time_integral(t, n, p_conj, 0.0)
    assert value == pytest.approx(t ** (1.0 - s) / (1.0 - s), rel=1e-12)
