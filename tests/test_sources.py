"""Tests for data presets, grid sampling/interpolation and the grid file format."""

import math
import warnings

import numpy as np
import pytest

from parabound.errors import DomainError, FloatOverflow, MalformedGridFile
from parabound.sources import (
    BoxIndicator,
    ConstantData,
    GaussianBump,
    GridData,
    PolynomialGaussian,
    TimeInvariantForcing,
    read_grid,
    write_grid,
)


class TestPresets:
    def test_gaussian_norms_match_quadrature(self):
        g = GaussianBump(center=(0.3,), spread=0.8, amp=1.7)
        ys = np.linspace(-30, 30, 400001)
        vals = g(ys[:, None])
        for p in (1.0, 2.0, 4.0):
            quad = np.trapezoid(np.abs(vals) ** p, ys) ** (1.0 / p)
            assert g.lp_norm(p) == pytest.approx(quad, rel=1e-10)
        assert g.sup_norm() == pytest.approx(1.7, rel=1e-15)

    def test_gaussian_2d_norm(self):
        g = GaussianBump(center=(0.0, 1.0), spread=0.5, amp=2.0)
        assert g.lp_norm(2.0) == pytest.approx(
            2.0 * (4 * math.pi * 0.5 / 2.0) ** (2 / 4), rel=1e-14
        )

    def test_box_norms(self):
        b = BoxIndicator(lo=(-1.0, 0.0), hi=(1.0, 3.0), amp=-2.0)
        assert b.lp_norm(3.0) == pytest.approx(2.0 * 6.0 ** (1 / 3), rel=1e-14)
        assert b.sup_norm() == 2.0
        vals = b(np.array([[0.0, 1.0], [0.0, 4.0], [-2.0, 1.0]]))
        assert np.array_equal(vals, [-2.0, 0.0, 0.0])

    def test_gaussian_factor(self):
        g = GaussianBump(center=(0.5, -1.0), spread=0.3, amp=2.0)
        assert g.gaussian_factor() == ((0.5, -1.0), 0.3, 0)
        pg = PolynomialGaussian(center=(0.2,), spread=0.6, powers=(2,))
        assert pg.gaussian_factor() == ((0.2,), 0.6, 2)
        # the total degree, not the largest power: A's eigenframe mixes the axes
        pg = PolynomialGaussian(center=(0.2, 0.1, 0.0), spread=0.6, powers=(2, 3, 0))
        assert pg.gaussian_factor() == ((0.2, 0.1, 0.0), 0.6, 5)
        assert BoxIndicator(lo=(-1.0,), hi=(1.0,)).gaussian_factor() is None
        assert ConstantData(1.0).gaussian_factor() is None

    def test_polynomial_gaussian_norms_match_quadrature(self):
        pg = PolynomialGaussian(center=(0.2,), spread=0.6, powers=(2,), amp=0.9)
        ys = np.linspace(-30, 30, 400001)
        vals = pg(ys[:, None])
        for p in (1.0, 2.0):
            quad = np.trapezoid(np.abs(vals) ** p, ys) ** (1.0 / p)
            assert pg.lp_norm(p) == pytest.approx(quad, rel=1e-10)
        assert pg.sup_norm() == pytest.approx(np.abs(vals).max(), rel=1e-6)

    def test_polynomial_gaussian_norms_at_high_powers(self):
        # in logs: a power whose float factors overflow gives the norm when it is finite
        # (30-digit mpmath references), FloatOverflow only when the norm itself is not
        cases = [(0.001, (600,), 1.0, math.inf, 2.9243492828988805224e-107),
                 (1.0, (300,), 1e-300, math.inf, 3.7889185732774593539e+51),
                 (0.1, (200,), 1.0, 2.0, 6.328607615874211382e+116),
                 (0.1, (200, 3), 1.0, 2.0, 6.9007892800285754389e+115)]
        for spread, powers, amp, p, reference in cases:
            pg = PolynomialGaussian(center=(0.0,) * len(powers), spread=spread, powers=powers,
                                    amp=amp)
            assert pg.lp_norm(p) == pytest.approx(reference, rel=1e-12)
        for amp in (1.0, 1e-300):
            with pytest.raises(FloatOverflow):
                PolynomialGaussian(center=(0.0,), spread=1.0, powers=(600,), amp=amp).sup_norm()
        zero = PolynomialGaussian(center=(0.0,), spread=1.0, powers=(600,), amp=0.0)
        assert zero.sup_norm() == 0.0

    def test_constant(self):
        c = ConstantData(3.0, dim=2)
        assert c.sup_norm() == 3.0
        assert c.lp_norm(2.0) == math.inf
        assert ConstantData(0.0).lp_norm(4.0) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            GaussianBump(center=(0.0,), spread=-1.0)
        with pytest.raises(DomainError):
            BoxIndicator(lo=(1.0,), hi=(0.0,))
        with pytest.raises(DomainError):
            PolynomialGaussian(center=(0.0,), spread=1.0, powers=(-1,))
        # NaN or infinite parameters; only box bounds may be infinite
        for make in (lambda: GaussianBump(center=(math.nan,), spread=1.0),
                     lambda: GaussianBump(center=(0.0,), spread=math.inf),
                     lambda: PolynomialGaussian(center=(0.0,), spread=1.0, powers=(1,),
                                                amp=math.inf),
                     lambda: ConstantData(math.nan),
                     lambda: BoxIndicator(lo=(math.nan,), hi=(1.0,)),
                     lambda: BoxIndicator(lo=(0.0,), hi=(1.0,), amp=-math.inf)):
            with pytest.raises(DomainError):
                make()
        assert BoxIndicator(lo=(-math.inf,), hi=(math.inf,)).sup_norm() == 1.0


def _points_with_centre_rows(rng, center):
    """Random points around center, a row at the centre and rows with one axis on it."""
    n = len(center)
    pts = center + rng.uniform(-2.0, 2.0, (6, n))
    on_axis = center + rng.uniform(-2.0, 2.0, (n, n))
    on_axis[np.arange(n), np.arange(n)] = center
    return np.vstack([pts, [center], on_axis])


class TestGradient:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gaussian_gradient_matches_closed_form(self, n):
        rng = np.random.default_rng(70 + n)
        center = rng.uniform(-1.0, 1.0, n)
        g = GaussianBump(center=tuple(center), spread=0.7, amp=-1.3)
        pts = _points_with_centre_rows(rng, center)
        d = pts - center
        exact = -1.3 * np.exp(-(d * d).sum(1) / 2.8)[:, None] * (-d / 1.4)
        grad = g.gradient(pts)
        assert grad.shape == (len(pts), n)
        assert np.allclose(grad, exact, rtol=1e-14, atol=0.0)
        assert np.all(grad[6] == 0.0)

    @pytest.mark.parametrize("powers", [(0,), (1,), (3,), (1, 0), (2, 1), (0, 2, 1), (1, 1, 0),
                                        (3, 0, 2)])
    def test_polygauss_gradient_matches_the_product_rule(self, powers):
        # d/dy_j of amp prod_i d_i^k_i e^{-|d|^2 / (4 s)}: the factor's derivative
        # -d_j / (2 s), plus k_j d_j^(k_j - 1) from the monomial when k_j > 0
        n = len(powers)
        rng = np.random.default_rng(sum(powers) + 10 * n)
        center = rng.uniform(-1.0, 1.0, n)
        pg = PolynomialGaussian(center=tuple(center), spread=0.6, powers=powers, amp=0.9)
        pts = _points_with_centre_rows(rng, center)
        grad = pg.gradient(pts)
        assert grad.shape == (len(pts), n)
        for row, y in zip(grad, pts):
            d = [float(v) for v in y - center]
            factor = 0.9 * math.exp(-sum(v * v for v in d) / 2.4)
            for j in range(n):
                others = math.prod(d[i] ** powers[i] for i in range(n) if i != j)
                own = -d[j] ** (powers[j] + 1) / 1.2
                if powers[j]:
                    own += powers[j] * d[j] ** (powers[j] - 1)
                assert row[j] == pytest.approx(factor * others * own, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("powers", [(2,), (2, 0), (0, 2), (2, 0, 0), (0, 0, 2)])
    def test_polygauss_gradient_far_out_is_zero_without_a_warning(self, powers):
        # d^3 = 1e444 overflows float64, but the factor e^{-|d|^2 / 4} is 0 first
        pg = PolynomialGaussian(center=(0.0,) * len(powers), spread=1.0, powers=powers)
        pts = np.full((2, len(powers)), 1e148)
        pts[1] *= -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(pg(pts) == 0.0)
            assert np.all(pg.gradient(pts) == 0.0)


class TestGridData:
    def _gaussian_grid(self, h=0.01, half_width=8.0):
        xs = np.arange(-half_width, half_width + h / 2, h)
        return GridData([xs[0]], [h], np.exp(-(xs**2) / 2.0)), xs

    def test_interpolation_exact_at_nodes_and_outside_zero(self):
        grid, xs = self._gaussian_grid(h=0.25, half_width=2.0)
        assert np.allclose(grid(xs[:, None]), np.exp(-(xs**2) / 2.0), atol=1e-15)
        assert grid(np.array([[5.0]]))[0] == 0.0

    def test_interpolation_midpoint_error_second_order(self):
        grid, _ = self._gaussian_grid(h=0.1, half_width=4.0)
        mids = np.arange(-3.95, 4.0, 0.1)
        err = np.abs(grid(mids[:, None]) - np.exp(-(mids**2) / 2.0)).max()
        assert err < 0.1**2 / 8 * 1.1  # h^2/8 * max|f''| with |f''| <= 1

    def test_lp_norm_richardson(self):
        # The stored norm is the norm of the interpolant; against the
        # smooth profile it carries the O(h^2) interpolation bias, while
        # the stored self-consistency estimate must be <= 1e-8.
        grid, _ = self._gaussian_grid(h=0.01)
        for p in (1.0, 2.0, 3.0):
            exact = (math.sqrt(2 * math.pi / p)) ** (1.0 / p)
            assert grid.lp_norm(p) == pytest.approx(exact, rel=2e-5)
            assert grid.norm_error_estimate <= 1e-8
        assert grid.lp_norm(math.inf) == pytest.approx(1.0, rel=1e-15)

    def test_error_estimate_follows_the_last_norm(self):
        grid, _ = self._gaussian_grid(h=0.1, half_width=6.0)
        grid.lp_norm(2.0)
        first = grid.norm_error_estimate
        grid.lp_norm(4.0)
        assert grid.norm_error_estimate != first
        grid.lp_norm(2.0)  # cached value: the estimate must be p = 2's again
        assert grid.norm_error_estimate == first

    def test_2d_norm(self):
        h = 0.05
        xs = np.arange(-5, 5 + h / 2, h)
        vx, vy = np.meshgrid(np.exp(-xs**2 / 2), np.exp(-xs**2 / 2), indexing="ij")
        grid = GridData([xs[0], xs[0]], [h, h], vx * vy)
        assert grid.lp_norm(2.0) == pytest.approx(math.sqrt(math.pi), rel=5e-4)
        assert grid.norm_error_estimate <= 1e-8

    def test_cell_centers(self):
        rng = np.random.default_rng(3)
        grid = GridData([-1.0, 0.5], [0.5, 0.25], rng.normal(size=(4, 3)))
        centers = grid.cell_centers(1)
        assert centers.shape == (3 * 2, 2)
        assert np.array_equal(centers[0], [-0.75, 0.625])
        # the multilinear interpolant at a cell centre is the mean of its corners
        v = grid.values
        corner_mean = (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:]) / 4.0
        assert np.allclose(grid(centers), corner_mean.reshape(-1), rtol=0.0, atol=1e-14)
        fine = grid.cell_centers(2)
        assert fine.shape == (6 * 4, 2)
        assert np.array_equal(fine[:2], [[-0.875, 0.5625], [-0.875, 0.6875]])

    def test_validation(self):
        with pytest.raises(DomainError):
            GridData([0.0], [0.0], np.ones(4))
        with pytest.raises(DomainError):
            GridData([0.0], [1.0], np.ones(1))
        with pytest.raises(DomainError):
            GridData([0.0, 0.0], [1.0, 1.0], np.ones(4))
        for origin, spacing in ((math.nan, 1.0), (-math.inf, 1.0), (0.0, math.inf)):
            with pytest.raises(DomainError):
                GridData([origin], [spacing], np.ones(4))


class TestGridFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = GridData([-1.0, 2.0], [0.5, 0.25], rng.standard_normal((7, 9)))
        path = tmp_path / "data.pbgr"
        write_grid(path, grid)
        back = read_grid(path)
        assert np.array_equal(back.values, grid.values)
        assert np.array_equal(back.origin, grid.origin)
        assert np.array_equal(back.spacing, grid.spacing)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pbgr"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(MalformedGridFile):
            read_grid(path)

    def test_truncated_payload(self, tmp_path):
        grid = GridData([0.0], [1.0], np.arange(8.0))
        path = tmp_path / "trunc.pbgr"
        write_grid(path, grid)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(MalformedGridFile):
            read_grid(path)

    def test_dimension_mismatch(self, tmp_path):
        import struct

        path = tmp_path / "dims.pbgr"
        payload = (
            b"PBGR"
            + struct.pack("<II", 1, 1)
            + struct.pack("<I", 5)
            + struct.pack("<d", 0.0)
            + struct.pack("<d", 1.0)
            + struct.pack("<3d", 1.0, 2.0, 3.0)  # too few samples
        )
        path.write_bytes(payload)
        with pytest.raises(MalformedGridFile):
            read_grid(path)


class TestTimeInvariantForcing:
    def test_norms(self):
        f = TimeInvariantForcing(GaussianBump(center=(0.0,), spread=1.0))
        t = 2.0
        assert f.lp_norm(4.0, t) == pytest.approx(
            t ** (1 / 4) * GaussianBump(center=(0.0,), spread=1.0).lp_norm(4.0), rel=1e-14
        )
        assert f.sup_norm(t) == 1.0
        assert f(np.array([[0.0]]), 0.5)[0] == 1.0
