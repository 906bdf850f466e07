"""Independent reference values for the benchmark's output checks.

Nothing here calls parabound: the closed forms, the sigma-quadrature and the
mpmath evaluation of the sharp coefficients are written from the
mathematics, with numpy's LAPACK for the matrix algebra. Every check
returns None when the result is within its documented tolerance and a
short reason otherwise.

Tolerances (relative to the solver's own error scale):
  * solutions: |u - ref| <= 1e-7 * max(|ref|, 1e-3 * S), with
    S = e^{ct} sup|phi| (homogeneous) or |(e^{ct} - 1)/c| sup|f|
    (nonhomogeneous), divided by sqrt(t) for gradients. The solvers
    target 1e-8 on the same scale.
  * bound-only checks: |u| <= e^{ct} sup|phi| * (1 + 1e-6).
  * sharp coefficients: relative error <= 1e-9 against the mpmath-based
    reference below.
"""

from __future__ import annotations

import math

import numpy as np

SOLUTION_RTOL = 1e-7
SCALE_FLOOR = 1e-3
BOUND_RTOL = 1e-6
COEFF_RTOL = 1e-9
MP_DPS = 20

_SQRT2 = math.sqrt(2.0)


def _close(value, ref, scale, what):
    err = float(np.linalg.norm(np.atleast_1d(np.asarray(value, float) - np.asarray(ref, float))))
    ref_norm = float(np.linalg.norm(np.atleast_1d(ref)))
    tol = SOLUTION_RTOL * max(ref_norm, SCALE_FLOOR * scale)
    if err > tol:
        return f"{what} off by {err:.3e} > {tol:.3e}"
    return None


# -- homogeneous closed forms -------------------------------------------------

def gaussian_hom(a, b, c, center, spread, amp, x, s):
    """u and grad u at (x, s) for data amp * exp(-|y - center|^2 / (4 spread)).

    u = e^{cs} amp (4 pi spread)^{n/2} N(center; x + s b, 2 (s A + spread I)).
    s may be an array of times; results then carry a leading time axis.
    """
    s = np.atleast_1d(np.asarray(s, float))
    n = len(center)
    cov = 2.0 * (s[:, None, None] * a[None] + spread * np.eye(n)[None])
    diff = np.asarray(center)[None, :] - (x[None, :] + s[:, None] * b[None, :])
    sol = np.linalg.solve(cov, diff[..., None])[..., 0]
    quad = np.einsum("ij,ij->i", diff, sol)
    _, logdet = np.linalg.slogdet(cov)
    dens = np.exp(-0.5 * quad - 0.5 * logdet - 0.5 * n * math.log(2.0 * math.pi))
    u = np.exp(c * s) * amp * (4.0 * math.pi * spread) ** (n / 2.0) * dens
    return u, u[:, None] * sol


def _phi(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _mass_between(lo, hi):
    """P(lo <= Z <= hi) for standard normal Z, without cancellation in the tails."""
    if lo > 0.0:
        return 0.5 * (math.erfc(lo / _SQRT2) - math.erfc(hi / _SQRT2))
    if hi < 0.0:
        return 0.5 * (math.erfc(-hi / _SQRT2) - math.erfc(-lo / _SQRT2))
    return 0.5 * (math.erf(hi / _SQRT2) - math.erf(lo / _SQRT2))


def box1d_hom(a, b, c, lo, hi, amp, x, s):
    """u and du/dx at (x, s) for n = 1 box data amp * 1[lo, hi] (erf form)."""
    m = x + s * b
    sd = math.sqrt(2.0 * s * a)
    zlo, zhi = (lo - m) / sd, (hi - m) / sd
    grow = math.exp(c * s) * amp
    return grow * _mass_between(zlo, zhi), grow * (_phi(zlo) - _phi(zhi)) / sd


def check_gaussian_hom(result, p, x, t):
    u, g = result
    ref_u, ref_g = gaussian_hom(p["A"], p["b"], p["c"], p["center"], p["spread"], p["amp"], x, t)
    scale = math.exp(p["c"] * t) * abs(p["amp"])
    return (_close(u, ref_u[0], scale, "u")
            or _close(g, ref_g[0], scale / math.sqrt(t), "grad u"))


def check_box1d_hom(result, p, x, t):
    u, g = result
    ref_u, ref_g = box1d_hom(p["A"][0, 0], p["b"][0], p["c"], p["lo"][0], p["hi"][0],
                             p["amp"], x[0], t)
    scale = math.exp(p["c"] * t) * abs(p["amp"])
    return _close(u, ref_u, scale, "u") or _close(g, [ref_g], scale / math.sqrt(t), "grad u")


def polygauss_sup(spread, powers, amp):
    """sup |amp prod_j z_j^{k_j} e^{-|z|^2/(4 spread)}| (per-axis maxima)."""
    out = abs(amp)
    for k in powers:
        if k:
            out *= (2.0 * spread * k) ** (k / 2.0) * math.exp(-k / 2.0)
    return out


def check_max_principle(result, c, t, sup):
    """Finite u and grad u, and |u| <= e^{ct} sup|phi|."""
    u, _ = result
    bound = math.exp(c * t) * sup * (1.0 + BOUND_RTOL)
    if abs(u) > bound:
        return f"|u| = {abs(u):.6e} exceeds e^(ct) sup|phi| = {bound:.6e}"
    return None


# -- nonhomogeneous references ------------------------------------------------

def _sigma_rule(t, graded):
    """Gauss-Legendre nodes/weights in r on (0, sqrt t); sigma = r^2.

    graded adds panels refined geometrically toward r = 0, where box
    data makes the integrand change over a width that shrinks with r.
    """
    x, w = np.polynomial.legendre.leggauss(24)
    top = math.sqrt(t)
    edges = list(np.linspace(0.0, top, 17))
    if graded:
        edges += [top * 0.5 ** k for k in range(5, 40)]
    edges = np.unique(np.asarray(edges))
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (lo + half * (x + 1.0)).ravel(), (half * w).ravel()


def duhamel_mass(c, t):
    return (math.expm1(c * t) / c) if c != 0.0 else t


def gaussian_nonhom(a, b, c, center, spread, amp, x, t):
    """u and grad u for time-invariant Gaussian forcing, by sigma-quadrature.

    u(x, t) = int_0^t U(x, sigma) d sigma with U the homogeneous closed
    form; with sigma = r^2 the integrand 2 r U(x, r^2) is smooth.
    """
    r, w = _sigma_rule(t, graded=False)
    u, g = gaussian_hom(a, b, c, center, spread, amp, x, r * r)
    ww = 2.0 * r * w
    return float(ww @ u), ww @ g


def box1d_nonhom(a, b, c, lo, hi, amp, x, t):
    """u and du/dx for time-invariant n = 1 box forcing, by sigma-quadrature."""
    r, w = _sigma_rule(t, graded=True)
    vals = np.array([box1d_hom(a, b, c, lo, hi, amp, x, rr * rr) for rr in r])
    ww = 2.0 * r * w
    return float(ww @ vals[:, 0]), float(ww @ vals[:, 1])


def check_nonhom(result, p, x, t):
    u, g = result
    kind, c, n = p["kind"], p["c"], len(x)
    mass = duhamel_mass(c, t)
    if kind == "constant":
        ref_u, ref_g = p["value"] * mass, np.zeros(n)
        sup = abs(p["value"])
    elif kind == "gaussian":
        ref_u, ref_g = gaussian_nonhom(p["A"], p["b"], c, p["center"], p["spread"],
                                       p["amp"], x, t)
        sup = abs(p["amp"])
    else:
        ref_u, ref_g = box1d_nonhom(p["A"][0, 0], p["b"][0], c, p["lo"][0], p["hi"][0],
                                    p["amp"], x[0], t)
        ref_g = [ref_g]
        sup = abs(p["amp"])
    scale = abs(mass) * sup
    return _close(u, ref_u, scale, "u") or _close(g, ref_g, scale / math.sqrt(t), "grad u")


# -- sharp coefficients (mpmath) -----------------------------------------------

class CoefficientReference:
    """Reference values of K and C from the L^{p'} norm of the kernel gradient.

    With v = A^{-1/2} l and s = (n (p' - 1) + p') / 2, the directional
    gradient of the kernel satisfies

      ||d_l G(., t)||_{p'}^{p'} = |v|^{p'} det(A)^{(1 - p')/2} e^{p' c t} t^{-s} k(n, p'),
      k = (4 pi)^{-n p'/2} 2^{-p'} Gamma((p' + 1)/2) (4/p')^{(p'+1)/2} (4 pi/p')^{(n-1)/2},

    so K is its p'-th root (p = 1, p' = inf: the sup of |d_l G|), and C^{p'}
    replaces e^{p' c t} t^{-s} by its integral over (0, t), which is
    t^{1-s}/(1-s) 1F1(1 - s; 2 - s; p' c t). p', log k and the log of that
    integral come from mpmath; the remaining sums of logs are float64,
    whose rounding (below 1e-13 relative here) is far inside COEFF_RTOL.
    """

    def __init__(self):
        import mpmath

        mpmath.mp.dps = MP_DPS
        self.mp = mpmath.mp
        self._exponents = {}
        self._integrals = {}

    def _exponent_terms(self, n, p):
        """(p', s, log k(n, p')) for finite p > 1 or p = inf."""
        key = (n, p)
        if key not in self._exponents:
            mp = self.mp
            pc = mp.mpf(1) if p == math.inf else mp.mpf(p) / (mp.mpf(p) - 1)
            log_k = (
                -n * pc / 2 * mp.log(4 * mp.pi) - pc * mp.log(2)
                + mp.loggamma((pc + 1) / 2) + (pc + 1) / 2 * mp.log(4 / pc)
                + mp.mpf(n - 1) / 2 * mp.log(4 * mp.pi / pc)
            )
            self._exponents[key] = (float(pc), float((n * (pc - 1) + pc) / 2), float(log_k))
        return self._exponents[key]

    def _log_time_integral(self, n, p, c, t):
        key = (n, p, c, t)
        if key not in self._integrals:
            if len(self._integrals) >= 4096:  # keys are per problem; keep memory flat
                self._integrals.clear()
            self._integrals[key] = self._log_time_integral_mp(n, p, c, t)
        return self._integrals[key]

    def _log_time_integral_mp(self, n, p, c, t):
        mp = self.mp
        pc = mp.mpf(1) if p == math.inf else mp.mpf(p) / (mp.mpf(p) - 1)
        s = (n * (pc - 1) + pc) / 2
        t_m = mp.mpf(t)
        value = mp.power(t_m, 1 - s) / (1 - s) * mp.hyp1f1(1 - s, 2 - s, pc * mp.mpf(c) * t_m)
        return float(mp.log(value))

    def scalar(self, kind, n, p, c, t, logdet):
        """The coefficient divided by |v|."""
        if kind == "hom" and p == 1.0:
            # sup_w |w . v| e^{-|w|^2/(4t)} = |v| sqrt(2t) e^{-1/2}
            return math.exp(c * t - 0.5 - 0.5 * n * math.log(4.0 * math.pi * t)
                            - 0.5 * logdet - 0.5 * math.log(2.0 * t))
        pc, s, log_k = self._exponent_terms(n, p)
        log_pow = 0.5 * (1.0 - pc) * logdet + log_k
        if kind == "hom":
            log_pow += pc * c * t - s * math.log(t)
        else:
            log_pow += self._log_time_integral(n, p, c, t)
        return math.exp(log_pow / pc)

    def check(self, result, kind, p, t, prob, direction):
        """Compare one SharpConstant with the reference; prob caches |v|."""
        cache = prob.setdefault("_coeff", {})
        if "logdet" not in cache:
            eig = prob["eig"]
            cache["logdet"] = float(np.sum(np.log(eig)))
            cache["amp_max"] = 1.0 / math.sqrt(float(eig[0]))
        if direction is None:
            amp = cache["amp_max"]
            if cache.get("maximizer") != result.maximizing_direction:
                best = np.asarray(result.maximizing_direction, float)
                eig0 = float(prob["eig"][0])
                if (abs(float(best @ prob["A"] @ best) - eig0) > COEFF_RTOL * eig0
                        or abs(float(best @ best) - 1.0) > 1e-12):
                    return "maximizer is not a unit eigenvector of the smallest eigenvalue"
                cache["maximizer"] = result.maximizing_direction
        else:
            if direction not in cache:
                ell = np.asarray(direction, float)
                cache[direction] = math.sqrt(float(ell @ np.linalg.solve(prob["A"], ell)))
            amp = cache[direction]
        ref = self.scalar(kind, len(prob["eig"]), p, prob["c"], t, cache["logdet"]) * amp
        rel = abs(result.value - ref) / ref
        if not rel <= COEFF_RTOL:
            return f"{kind} coefficient rel err {rel:.3e} > {COEFF_RTOL:.0e}"
        return None
