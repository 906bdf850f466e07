"""Tests for the closed-form sharp coefficients and their building blocks.

Frozen reference values were computed with 30-digit mpmath arithmetic:
Gaussian-moment reductions for the norm oracles and direct quadrature for
the sphere/radial integrals.
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabound import sharp_constants as sc
from parabound.errors import (
    DomainError,
    ExponentTooSmall,
    InvalidExponent,
    NonpositiveTime,
)
from parabound.mathcore import duhamel_time_integral

from .test_kernel import HEAT_1D, make_kernel, random_kernel

INF = math.inf

# A = diag(FROZEN_DIAG[:n]): powers of 4, so that A^{-1/2}, det A^{1/2} and the
# amplitudes of the dyadic FROZEN_DIRECTIONS are exact and only exp, log and
# lgamma round.
FROZEN_DIAG = [1.0, 4.0, 0.25, 16.0, 0.0625, 64.0, 1.0 / 256.0, 256.0]
FROZEN_DIRECTIONS = {
    1: (-1.0,),
    2: (0.0, -1.0),
    3: (0.0, 1.0, 0.0),
    4: (0.5, -0.5, 0.5, 0.5),
    5: (0.5, 0.5, -0.5, 0.0, 0.5),
    6: (0.0, 0.5, 0.5, 0.5, 0.0, -0.5),
    7: (0.5, 0.0, 0.5, 0.0, -0.5, 0.0, 0.5),
    8: (0.0, 0.5, 0.0, 0.5, 0.0, -0.5, 0.5, 0.0),
}
FROZEN_T = 0.7
# One row per (kind, n, c, p) at t = FROZEN_T: gamma_factor, time_factor, then
# (prefactor, value) for FROZEN_DIRECTIONS[n] and for the maximum over directions.
with open(os.path.join(os.path.dirname(__file__), "sharp_constants_table.json")) as _fh:
    FROZEN_TABLE = json.load(_fh)


class TestSphereIntegral:
    def test_two_point_sphere_in_1d(self):
        assert sc.sphere_integral(1, 1.7, [2.0]) == pytest.approx(2 * 2.0**1.7, rel=1e-13)

    def test_circle_cos_squared(self):
        # angular quadrature oracle: integral of cos^2 over the circle = pi
        assert sc.sphere_integral(2, 2.0, [1.0, 0.0]) == pytest.approx(math.pi, rel=1e-13)

    def test_sphere_abs_cos(self):
        # surface quadrature oracle over S^2 = 2 pi
        assert sc.sphere_integral(3, 1.0, [1.0, 0.0, 0.0]) == pytest.approx(
            2 * math.pi, rel=1e-13
        )

    def test_zero_vector(self):
        assert sc.sphere_integral(4, 1.3, [0.0, 0.0, 0.0, 0.0]) == 0.0

    def test_scales_as_norm_power(self):
        base = sc.sphere_integral(3, 1.4, [0.3, -0.2, 0.9])
        scaled = sc.sphere_integral(3, 1.4, [0.9, -0.6, 2.7])
        assert scaled == pytest.approx(base * 3.0**1.4, rel=1e-13)


class TestRadialIntegral:
    def test_power_rule_case(self):
        # integral of rho e^{-rho^2/4} = 2
        assert sc.radial_integral(1, 1.0, 1.0) == pytest.approx(2.0, rel=1e-13)

    def test_quadrature_frozen_values(self):
        assert sc.radial_integral(1, 2.0, 1.0) == pytest.approx(1.2533141373155003, rel=1e-13)
        assert sc.radial_integral(2, 2.0, 0.5) == pytest.approx(0.5, rel=1e-13)

    def test_validation(self):
        with pytest.raises(NonpositiveTime):
            sc.radial_integral(1, 1.0, 0.0)
        with pytest.raises(DomainError):
            sc.radial_integral(1, 0.5, 1.0)


class TestHomogeneousCoefficient:
    def test_sup_data_special_case(self):
        k = sc.sharp_coefficient_hom(HEAT_1D, INF, 1.0, direction=[1.0])
        assert k.value == pytest.approx(0.5641895835477563, rel=1e-13)

    def test_l2_data_frozen_oracle(self):
        # equals the L^2 norm of the directional kernel gradient at t=1
        k = sc.sharp_coefficient_hom(HEAT_1D, 2.0, 1.0, direction=[1.0])
        assert k.value == pytest.approx(0.22331096043450058, rel=1e-12)

    def test_l1_data_sup_of_gradient(self):
        # grid-maximization oracle: sup_y |dG/dx(y, 1)|
        k = sc.sharp_coefficient_hom(HEAT_1D, 1.0, 1.0, direction=[1.0])
        assert k.value == pytest.approx(0.12098536225957167, rel=1e-12)
        ys = np.linspace(-6, 6, 200001).reshape(-1, 1)
        grid_max = np.abs(HEAT_1D.gradient(ys, 1.0)).max()
        assert k.value == pytest.approx(grid_max, rel=1e-8)

    def test_independent_of_drift(self):
        a = [[1.5, 0.2], [0.2, 0.8]]
        k0 = make_kernel(a, [0.0, 0.0], -0.3)
        kb = make_kernel(a, [3.0, -1.0], -0.3)
        ell = np.array([0.6, 0.8])
        for p in (1.0, 2.0, 4.0, INF):
            v0 = sc.sharp_coefficient_hom(k0, p, 0.7, ell).value
            vb = sc.sharp_coefficient_hom(kb, p, 0.7, ell).value
            assert v0 == vb  # bitwise

    def test_factor_product_reproduces_value(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 4):
            k = random_kernel(rng, n)
            for p in (1.0, 2.0, 7.3, 1e4, INF):
                ell = rng.standard_normal(n)
                ell /= np.linalg.norm(ell)
                s = sc.sharp_coefficient_hom(k, p, 1.3, ell)
                prod = s.prefactor * s.gamma_factor * s.time_factor
                assert abs(prod - s.value) <= 1e-14 * s.value

    def test_max_over_directions(self):
        k = make_kernel(np.diag([1.0, 4.0]), [0.0, 0.0], 0.0)
        kmax = sc.sharp_coefficient_hom(k, INF, 1.0)
        assert kmax.value == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
        # reported maximizer spans the lowest eigendirection and attains the max
        ell_star = np.asarray(kmax.maximizing_direction)
        attained = sc.sharp_coefficient_hom(k, INF, 1.0, ell_star)
        assert attained.value == pytest.approx(kmax.value, rel=1e-12)
        # diagonal ratio across axes equals the inv-sqrt amplitude ratio
        v1 = sc.sharp_coefficient_hom(k, 3.0, 1.0, [1.0, 0.0]).value
        v2 = sc.sharp_coefficient_hom(k, 3.0, 1.0, [0.0, 1.0]).value
        assert v1 / v2 == pytest.approx(2.0, rel=1e-13)

    def test_isotropic_direction_independent(self):
        k = make_kernel(np.eye(3) * 0.7, [0.0, 0.0, 0.0], 0.2)
        rng = np.random.default_rng(9)
        ref = sc.sharp_coefficient_hom(k, 5.0, 0.5).value
        for _ in range(10):
            ell = rng.standard_normal(3)
            ell /= np.linalg.norm(ell)
            assert sc.sharp_coefficient_hom(k, 5.0, 0.5, ell).value == pytest.approx(
                ref, rel=1e-12
            )

    def test_random_directions_below_max(self):
        rng = np.random.default_rng(11)
        k = random_kernel(rng, 3)
        kmax = sc.sharp_coefficient_hom(k, 4.0, 1.0)
        for _ in range(100):
            ell = rng.standard_normal(3)
            ell /= np.linalg.norm(ell)
            assert (
                sc.sharp_coefficient_hom(k, 4.0, 1.0, ell).value
                <= kmax.value * (1 + 1e-12)
            )
        ell_star = np.asarray(kmax.maximizing_direction)
        assert sc.sharp_coefficient_hom(k, 4.0, 1.0, ell_star).value == pytest.approx(
            kmax.value, rel=1e-12
        )

    def test_limit_consistency_large_p(self):
        k = make_kernel([[1.3]], [0.4], -0.2)
        v_inf = sc.sharp_coefficient_hom(k, INF, 0.8, [1.0]).value
        gaps = []
        for p in (1e3, 1e4):
            gaps.append(abs(sc.sharp_coefficient_hom(k, p, 0.8, [1.0]).value - v_inf))
        assert gaps[1] < gaps[0]
        assert gaps[1] <= 1e-3 * v_inf

    def test_limit_consistency_near_one(self):
        # The gap decays like (p-1) log(1/(p-1)): ~1.8e-3 at p-1 = 1e-3,
        # below 1e-3 from p-1 = 1e-4 on.
        k = make_kernel([[0.9]], [0.0], 0.3)
        v1 = sc.sharp_coefficient_hom(k, 1.0, 1.2, [1.0]).value
        gaps = [
            abs(sc.sharp_coefficient_hom(k, 1.0 + dp, 1.2, [1.0]).value - v1) / v1
            for dp in (1e-3, 1e-4, 1e-5)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] <= 1e-3

    def test_scaling_law_sup_data(self):
        # A -> a A scales the p = inf coefficient by a^{-1/2} exactly
        a0 = np.array([[1.1, 0.3], [0.3, 2.0]])
        ell = np.array([1.0, 0.0])
        base = sc.sharp_coefficient_hom(make_kernel(a0, [0, 0], 0.0), INF, 1.0, ell).value
        scaled = sc.sharp_coefficient_hom(make_kernel(4 * a0, [0, 0], 0.0), INF, 1.0, ell).value
        assert scaled == base / 2.0

    def test_time_power_law(self):
        k = make_kernel([[1.0]], [0.0], 0.0)
        for p in (2.0, 4.0):
            v1 = sc.sharp_coefficient_hom(k, p, 1.0, [1.0]).value
            v4 = sc.sharp_coefficient_hom(k, p, 4.0, [1.0]).value
            assert v4 / v1 == pytest.approx(4 ** (-(1 + p) / (2 * p)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidExponent):
            sc.sharp_coefficient_hom(HEAT_1D, 0.7, 1.0, [1.0])
        with pytest.raises(NonpositiveTime):
            sc.sharp_coefficient_hom(HEAT_1D, 2.0, 0.0, [1.0])
        with pytest.raises(DomainError):
            sc.sharp_coefficient_hom(HEAT_1D, 2.0, 100.0, [1.0])  # beyond horizon
        with pytest.raises(DomainError):
            sc.sharp_coefficient_hom(HEAT_1D, 2.0, 1.0, [0.5])  # not unit

    def test_overflow_raises_domain_error(self):
        k = make_kernel([[1.0]], [0.0], 800.0)
        for p in (1.0, 2.0, INF):
            with pytest.raises(DomainError):
                sc.sharp_coefficient_hom(k, p, 1.0, [1.0])

    def test_representable_value_with_overflowing_time_factor(self):
        # e^{ct} = e^800 overflows, but |A^{-1/2} l| = 1e-150 brings K back
        k = make_kernel([[1e300]], [0.0], 100.0)
        s = sc.sharp_coefficient_hom(k, 2.0, 8.0, [1.0])
        assert s.time_factor == INF
        log_value = (math.log(s.prefactor) + math.log(s.gamma_factor)
                     + 800.0 - 0.75 * math.log(8.0))
        assert s.value == pytest.approx(math.exp(log_value), rel=1e-13)


class TestNonhomogeneousCoefficient:
    def test_sup_forcing_special_case(self):
        c = sc.sharp_coefficient_nonhom(HEAT_1D, INF, 1.0, [1.0])
        assert c.value == pytest.approx(1.1283791670955126, rel=1e-13)

    def test_l4_forcing_frozen_oracle(self):
        # space-time L^{4/3} norm of the kernel gradient over R x (0,1)
        c = sc.sharp_coefficient_nonhom(HEAT_1D, 4.0, 1.0, [1.0])
        assert c.value == pytest.approx(1.3366634215090237, rel=1e-12)

    def test_large_positive_reaction(self):
        # n = 1, p = 3.01, c = 20, t = 8: the time factor is I^{1/p'} with
        # I = t^(1-s) 1F1(1-s; 2-s; p'ct)/(1-s) from 30-digit arithmetic
        k = make_kernel([[1.0]], [0.0], 20.0)
        s = sc.sharp_coefficient_nonhom(k, 3.01, 8.0, [1.0])
        p_conj = sc.conjugate_exponent(3.01)
        assert s.time_factor == pytest.approx(
            4.81279883107963481845773e101 ** (1.0 / p_conj), rel=1e-12
        )
        assert s.value == pytest.approx(s.prefactor * s.gamma_factor * s.time_factor, rel=1e-15)
        with pytest.raises(DomainError):
            sc.sharp_coefficient_nonhom(make_kernel([[1.0]], [0.0], 800.0), 4.0, 1.0, [1.0])

    def test_divergence_boundary(self):
        with pytest.raises(ExponentTooSmall):
            sc.sharp_coefficient_nonhom(HEAT_1D, 3.0, 1.0, [1.0])  # p = n + 2
        with pytest.raises(ExponentTooSmall):
            sc.sharp_coefficient_nonhom(HEAT_1D, 2.0, 1.0, [1.0])
        k2 = make_kernel(np.eye(2), [0, 0], 0.0)
        with pytest.raises(ExponentTooSmall):
            sc.sharp_coefficient_nonhom(k2, 4.0, 1.0, [1.0, 0.0])

    def test_scaled_identity_quadrature_free_case(self):
        # A = a I, p = inf: (1/sqrt(a pi)) * integral of e^{c tau}/sqrt(tau)
        a, c_rate, t = 2.5, -0.7, 1.8
        k = make_kernel(np.eye(2) * a, [0.1, 0.2], c_rate)
        cmax = sc.sharp_coefficient_nonhom(k, INF, t)
        expected = duhamel_time_integral(t, 2, 1.0, c_rate) / math.sqrt(a * math.pi)
        assert cmax.value == pytest.approx(expected, rel=1e-12)

    def test_sqrt_t_growth_without_reaction(self):
        cmax = sc.sharp_coefficient_nonhom(make_kernel(np.eye(1), [0.0], 0.0), INF, 4.0)
        assert cmax.value == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-13)

    def test_direction_ratio_matches_amplitude(self):
        k = make_kernel(np.diag([0.25, 1.0]), [0.0, 0.0], 0.0, horizon=4.0)
        v1 = sc.sharp_coefficient_nonhom(k, 6.0, 1.0, [1.0, 0.0]).value
        v2 = sc.sharp_coefficient_nonhom(k, 6.0, 1.0, [0.0, 1.0]).value
        assert v1 / v2 == pytest.approx(2.0, rel=1e-12)

    def test_independent_of_drift(self):
        a = [[2.0]]
        k0 = make_kernel(a, [0.0], 0.4)
        kb = make_kernel(a, [-1.7], 0.4)
        for p in (4.0, 8.0, INF):
            assert (
                sc.sharp_coefficient_nonhom(k0, p, 1.1, [1.0]).value
                == sc.sharp_coefficient_nonhom(kb, p, 1.1, [1.0]).value
            )

    def test_limit_consistency_large_p(self):
        k = make_kernel([[1.0]], [0.0], -0.5)
        v_inf = sc.sharp_coefficient_nonhom(k, INF, 1.0, [1.0]).value
        v_large = sc.sharp_coefficient_nonhom(k, 1e4, 1.0, [1.0]).value
        assert abs(v_large - v_inf) <= 1e-3 * v_inf


class TestFrozenTable:
    """K and C for n = 1..8, c of both signs, given and maximizing directions.

    Every field is compared with ==: the one checked path for a direction
    must leave value, factors, query and maximizer unchanged to the bit.
    """

    @pytest.mark.parametrize("row", FROZEN_TABLE, ids=lambda r: f"{r[0]}-n{r[1]}-c{r[2]}-p{r[3]}")
    def test_every_field_is_bitwise_frozen(self, row):
        kind, n, c, p_text, gamma_factor, time_factor, dir_pre, dir_value, max_pre, max_value = row
        p = INF if p_text == "inf" else p_text
        k = make_kernel(np.diag(FROZEN_DIAG[:n]), np.zeros(n), c)
        fn = sc.sharp_coefficient_hom if kind == "hom" else sc.sharp_coefficient_nonhom
        direction = FROZEN_DIRECTIONS[n]
        # the eigenvector of the smallest eigenvalue, with its canonical positive sign
        axis = tuple(1.0 if i == int(np.argmin(FROZEN_DIAG[:n])) else 0.0 for i in range(n))
        for given, prefactor, value in ((direction, dir_pre, dir_value), (None, max_pre, max_value)):
            s = fn(k, p, FROZEN_T, None if given is None else np.array(given))
            assert s.value == value
            assert s.factors() == {"prefactor": prefactor, "gamma_factor": gamma_factor,
                                   "time_factor": time_factor}
            assert s.query == sc.BoundQuery(p=p, t=FROZEN_T, kind=kind, direction=given)
            if given is None:
                assert s.query.direction is None
                assert s.maximizing_direction == axis
                assert all(type(v) is float for v in s.maximizing_direction)
            else:
                assert s.query.direction == given
                assert all(type(v) is float for v in s.query.direction)
                assert s.maximizing_direction is None


class TestInvalidInput:
    """Each invalid input raises one type with one message, checked in a fixed order:
    t, then p, then the direction's length, then its norm."""

    K2 = make_kernel(np.diag([1.0, 4.0]), [0.0, 0.0], 0.5)

    @pytest.mark.parametrize("kind, p, t, direction, error, message", [
        ("hom", 2.0, 1.0, (1.0,), DomainError, "direction length 1 != n = 2"),
        ("hom", 2.0, 1.0, (1.0, 0.0, 0.0), DomainError, "direction length 3 != n = 2"),
        ("nonhom", 5.0, 1.0, (0.0,), DomainError, "direction length 1 != n = 2"),
        ("hom", 2.0, 1.0, (0.6, 0.7), DomainError, "direction must be a unit vector"),
        ("nonhom", 5.0, 1.0, (1.0, 1e-5), DomainError, "direction must be a unit vector"),
        ("hom", 2.0, 1.0, (math.nan, 0.0), DomainError, "direction must be a unit vector"),
        ("hom", 2.0, 1.0, (math.inf, 0.0), DomainError, "direction must be a unit vector"),
        ("hom", 2.0, 0.0, None, NonpositiveTime, "sharp coefficient requires t > 0, got 0.0"),
        ("hom", 2.0, -1.0, (1.0, 0.0), NonpositiveTime, "sharp coefficient requires t > 0, got -1.0"),
        ("nonhom", 5.0, 0.0, None, NonpositiveTime, "sharp coefficient requires t > 0, got 0.0"),
        ("hom", 2.0, math.nan, None, NonpositiveTime, "sharp coefficient requires t > 0, got nan"),
        ("hom", 2.0, 8.5, None, DomainError, "t = 8.5 beyond the problem horizon T = 8.0"),
        ("nonhom", 5.0, 9.0, (1.0, 0.0), DomainError, "t = 9.0 beyond the problem horizon T = 8.0"),
        ("hom", 0.5, 1.0, None, InvalidExponent, "Lebesgue exponent must satisfy p >= 1, got 0.5"),
        ("hom", math.nan, 1.0, (1.0, 0.0), InvalidExponent,
         "Lebesgue exponent must satisfy p >= 1, got nan"),
        ("nonhom", 4.0, 1.0, None, ExponentTooSmall,
         "nonhomogeneous bound requires p > n + 2 = 4, got 4.0"),
        ("nonhom", 3.5, 1.0, (1.0, 0.0), ExponentTooSmall,
         "nonhomogeneous bound requires p > n + 2 = 4, got 3.5"),
        ("hom", 0.5, 0.0, (1.0,), NonpositiveTime, "sharp coefficient requires t > 0, got 0.0"),
        ("nonhom", 4.0, 1.0, (1.0,), ExponentTooSmall,
         "nonhomogeneous bound requires p > n + 2 = 4, got 4.0"),
    ])
    def test_type_and_message(self, kind, p, t, direction, error, message):
        fn = sc.sharp_coefficient_hom if kind == "hom" else sc.sharp_coefficient_nonhom
        with pytest.raises(error) as caught:
            fn(self.K2, p, t, direction)
        assert type(caught.value) is error
        assert str(caught.value) == message


class TestBoundQuery:
    def test_validation(self):
        with pytest.raises(InvalidExponent):
            sc.BoundQuery(p=0.5, t=1.0)
        with pytest.raises(NonpositiveTime):
            sc.BoundQuery(p=2.0, t=0.0)
        with pytest.raises(DomainError):
            sc.BoundQuery(p=2.0, t=1.0, kind="weird")
        with pytest.raises(DomainError):
            sc.BoundQuery(p=2.0, t=1.0, direction=(0.7, 0.3))
        with pytest.raises(DomainError):
            sc.BoundQuery(p=2.0, t=1.0, direction=(math.nan, 0.0))

    def test_direction_is_a_tuple_of_python_floats(self):
        for given in ((0.6, 0.8), np.array([0.6, 0.8]), [np.float64(0.6), np.float64(0.8)]):
            q = sc.BoundQuery(p=2.0, t=1.0, direction=given)
            assert q.direction == (0.6, 0.8)
            assert all(type(v) is float for v in q.direction)

    def test_evaluate_dispatch(self):
        q_hom = sc.BoundQuery(p=2.0, t=1.0, kind=sc.HOMOGENEOUS, direction=(1.0,))
        q_non = sc.BoundQuery(p=4.0, t=1.0, kind=sc.NONHOMOGENEOUS, direction=(1.0,))
        assert sc.evaluate_query(HEAT_1D, q_hom).value == pytest.approx(
            0.22331096043450058, rel=1e-12
        )
        assert sc.evaluate_query(HEAT_1D, q_non).value == pytest.approx(
            1.3366634215090237, rel=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(
    p=st.one_of(st.floats(1.0, 200.0), st.just(math.inf)),
    t=st.floats(0.05, 8.0),
    c=st.floats(-1.0, 1.0),
)
def test_hom_coefficient_positive_and_factored(p, t, c):
    k = make_kernel([[1.7]], [0.3], c)
    s = sc.sharp_coefficient_hom(k, p, t, [1.0])
    assert s.value > 0.0 and math.isfinite(s.value)
    assert abs(s.prefactor * s.gamma_factor * s.time_factor - s.value) <= 1e-14 * s.value


@settings(max_examples=40, deadline=None)
@given(p=st.one_of(st.floats(3.001, 500.0), st.just(math.inf)), t=st.floats(0.05, 8.0))
def test_nonhom_coefficient_positive(p, t):
    k = make_kernel([[0.8]], [0.0], -0.4)
    s = sc.sharp_coefficient_nonhom(k, p, t, [1.0])
    assert s.value > 0.0 and math.isfinite(s.value)
