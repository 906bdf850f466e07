"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""

import json
import math
import time

import numpy as np
from scipy import integrate

from parabound import cli
from parabound import verify as vf
from parabound.kernel import FundamentalSolution, ProblemSpec
from parabound.mathcore import SpdMatrix
from parabound.sharp_constants import (
    BoundQuery,
    conjugate_exponent,
    sharp_coefficient_hom,
    sharp_coefficient_nonhom,
)
from parabound.solver import (
    gradient_homogeneous,
    gradient_nonhomogeneous,
    solve_homogeneous,
    solve_nonhomogeneous,
)
from parabound.sources import (
    BoxIndicator,
    ConstantData,
    GaussianBump,
    PolynomialGaussian,
    TimeInvariantForcing,
)

SEED = 20250810


def report(criterion, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail}; {elapsed:.1f}s < {budget:.0f}s)")
    assert passed, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded runtime budget"


def test_criterion_1_mass_identity():
    start = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(20):
        n = 1 + i % 3
        kernel = FundamentalSolution(vf.random_problem(rng, n))
        t = float(rng.uniform(0.2, 3.0))
        mass = vf.mass_quadrature_oracle(kernel, t)
        worst = max(worst, abs(mass - kernel.total_mass(t)) / kernel.total_mass(t))
    report("1 mass-identity", worst <= 1e-10, f"worst rel err {worst:.2e} <= 1e-10",
           time.time() - start, 5.0)


def test_criterion_2_pde_residual_order():
    start = time.time()
    rng = np.random.default_rng(SEED + 1)
    worst = math.inf
    for i in range(10):
        n = 1 + i % 3
        kernel = FundamentalSolution(vf.random_problem(rng, n))
        order = vf.pde_residual_order(kernel, np.random.default_rng(SEED + 100 + i), points=20)
        worst = min(worst, order)
    report("2 pde-residual-order", worst >= 1.8, f"min observed order {worst:.3f} >= 1.8",
           time.time() - start, 10.0)


def test_criterion_3_holder_duality():
    start = time.time()
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for n in (1, 2):
        for p in (2.0, 4.0, 8.0, math.inf):
            for _ in range(5):
                kernel = FundamentalSolution(vf.random_problem(rng, n))
                ell = vf.random_unit_vector(rng, n)
                t = float(rng.uniform(0.3, 2.0))
                closed = sharp_coefficient_hom(kernel, p, t, ell).value
                oracle = vf.kernel_grad_norm_oracle(kernel, conjugate_exponent(p), ell, t)
                worst = max(worst, abs(closed - oracle) / closed)
    report("3 holder-duality", worst <= 1e-6, f"worst rel err {worst:.2e} <= 1e-6",
           time.time() - start, 30.0)


def test_criterion_4_spacetime_duality():
    start = time.time()
    rng = np.random.default_rng(SEED + 3)
    worst_finite = 0.0
    for p in (4.0, 6.0):
        for _ in range(2):
            kernel = FundamentalSolution(vf.random_problem(rng, 1))
            t = float(rng.uniform(0.3, 2.0))
            closed = sharp_coefficient_nonhom(kernel, p, t, np.array([1.0])).value
            oracle = vf.spacetime_grad_norm_oracle(kernel, conjugate_exponent(p),
                                                   np.array([1.0]), t)
            worst_finite = max(worst_finite, abs(closed - oracle) / closed)
    kernel = FundamentalSolution(vf.random_problem(rng, 1))
    t = 1.3
    closed_inf = sharp_coefficient_nonhom(kernel, math.inf, t, np.array([1.0])).value
    oracle_inf = vf.spacetime_grad_norm_oracle(kernel, 1.0, np.array([1.0]), t)
    rel_inf = abs(closed_inf - oracle_inf) / closed_inf
    ok = worst_finite <= 1e-5 and rel_inf <= 1e-10
    report("4 spacetime-duality", ok,
           f"finite-p worst {worst_finite:.2e} <= 1e-5, p=inf {rel_inf:.2e} <= 1e-10",
           time.time() - start, 60.0)


def test_criterion_5_sharpness_attainment():
    start = time.time()
    rng = np.random.default_rng(SEED + 4)
    kernel = FundamentalSolution(vf.random_problem(rng, 1))
    gaps = []
    for p in (2.0, math.inf):
        r = vf.attainment_ratio_hom(
            kernel, vf.ExtremalTarget(x0=(0.2,), t0=0.9, p=p, direction=(1.0,))
        )
        gaps.append(abs(r - 1.0))
    r4 = vf.attainment_ratio_nonhom(
        kernel, vf.ExtremalTarget(x0=(0.2,), t0=0.8, p=4.0, direction=(1.0,))
    )
    gaps.append(abs(r4 - 1.0))
    unit = FundamentalSolution(ProblemSpec(SpdMatrix([[1.0]]), np.zeros(1), 0.0, 8.0))
    ratios = [
        vf.attainment_ratio_nonhom(
            unit, vf.ExtremalTarget(x0=(0.0,), t0=0.5, p=math.inf, direction=(1.0,), mollify=eps)
        )
        for eps in (0.3, 0.1, 0.03)
    ]
    monotone = ratios[0] < ratios[1] < ratios[2]
    ok = max(gaps) <= 1e-3 and monotone and ratios[-1] >= 0.99
    report("5 sharpness-attainment", ok,
           f"exact gaps max {max(gaps):.2e} <= 1e-3, mollified {['%.4f' % r for r in ratios]} "
           f"monotone, final >= 0.99",
           time.time() - start, 60.0)


def test_criterion_6_special_case_values():
    start = time.time()
    worst_exact = 0.0
    worst_limit = 0.0
    for a, c, t in ((1.0, 0.0, 1.0), (2.5, -0.7, 0.6), (0.8, 0.5, 2.0)):
        for n in (1, 2):
            kernel = FundamentalSolution(
                ProblemSpec(SpdMatrix(np.eye(n) * a), np.zeros(n), c, 8.0)
            )
            k_inf = sharp_coefficient_hom(kernel, math.inf, t).value
            k_lit = math.exp(c * t) / math.sqrt(a * math.pi * t)
            worst_exact = max(worst_exact, abs(k_inf - k_lit) / k_lit)
            # independent time integral: substitution tau = sigma^2
            integral = 2.0 * integrate.quad(
                lambda s: math.exp(c * s * s), 0.0, math.sqrt(t), epsabs=0, epsrel=1e-13
            )[0]
            c_inf = sharp_coefficient_nonhom(kernel, math.inf, t).value
            c_lit = integral / math.sqrt(a * math.pi)
            worst_exact = max(worst_exact, abs(c_inf - c_lit) / c_lit)
            k_big = sharp_coefficient_hom(kernel, 1e4, t).value
            c_big = sharp_coefficient_nonhom(kernel, 1e4, t).value
            worst_limit = max(worst_limit, abs(k_big - k_inf) / k_inf,
                              abs(c_big - c_inf) / c_inf)
    ok = worst_exact <= 1e-12 and worst_limit <= 1e-3
    report("6 special-case-values", ok,
           f"exact-branch worst {worst_exact:.2e} <= 1e-12, p=1e4 worst {worst_limit:.2e} <= 1e-3",
           time.time() - start, 30.0)


def test_criterion_7_drift_invariance():
    start = time.time()
    rng = np.random.default_rng(SEED + 5)
    ok = True
    details = []
    for kind, p in (("hom", 2.0), ("hom", math.inf), ("nonhom", 4.0)):
        spec = vf.random_problem(rng, 1)
        spec0 = ProblemSpec(spec.diffusion, np.zeros(1), spec.reaction, spec.horizon)
        spec_b = ProblemSpec(spec.diffusion, rng.uniform(-2, 2, 1), spec.reaction, spec.horizon)
        query = BoundQuery(p=p, t=float(rng.uniform(0.4, 1.5)), kind=kind, direction=(1.0,))
        rep = vf.b_invariance_check(
            FundamentalSolution(spec0), FundamentalSolution(spec_b), query
        )
        ok = ok and rep.passed and rep.config["constants_bitwise_equal"]
        details.append(f"{kind}/p{p:g}: rel {rep.rel_err:.1e}")
    report("7 drift-invariance", ok, "; ".join(details), time.time() - start, 30.0)


def test_criterion_8_constant_forcing_mass():
    start = time.time()
    worst = 0.0
    forcing = TimeInvariantForcing(ConstantData(1.0))
    for c in (-0.8, 0.0, 0.6):
        kernel = FundamentalSolution(ProblemSpec(SpdMatrix([[1.4]]), np.array([0.3]), c, 8.0))
        for t in (0.5, 1.7):
            u = solve_nonhomogeneous(kernel, forcing, np.zeros(1), t)
            expected = t if c == 0.0 else (math.exp(c * t) - 1.0) / c
            worst = max(worst, abs(u - expected) / abs(expected))
    report("8 constant-forcing-mass", worst <= 1e-9, f"worst rel err {worst:.2e} <= 1e-9",
           time.time() - start, 30.0)


def _random_hom_data(rng, n):
    kind = rng.integers(0, 3 if n == 1 else 2)
    center = tuple(rng.uniform(-1, 1, n))
    spread = float(rng.uniform(0.4, 1.5))
    amp = float(rng.uniform(0.5, 2.0))
    if kind == 0:
        return GaussianBump(center=center, spread=spread, amp=amp)
    if kind == 1:
        powers = tuple(int(v) for v in rng.integers(0, 3, n))
        if sum(powers) == 0:
            powers = (1,) + powers[1:]
        return PolynomialGaussian(center=center, spread=spread, powers=powers, amp=amp)
    lo = rng.uniform(-2, -0.2, n)
    hi = lo + rng.uniform(0.5, 2.0, n)
    return BoxIndicator(lo=tuple(lo), hi=tuple(hi), amp=amp)


def test_criterion_9_bound_domination():
    start = time.time()
    rng = np.random.default_rng(SEED + 6)
    worst_grad = 0.0
    worst_sup = 0.0
    for i in range(50):
        n = 1 + i % 2
        kernel = FundamentalSolution(vf.random_problem(rng, n))
        data = _random_hom_data(rng, n)
        t = float(rng.uniform(0.2, 2.5))
        x = rng.uniform(-1.5, 1.5, n)
        ell = vf.random_unit_vector(rng, n)
        u = solve_homogeneous(kernel, data, x, t)
        grad = gradient_homogeneous(kernel, data, x, t)
        sup_bound = math.exp(kernel.spec.reaction * t) * data.sup_norm()
        worst_sup = max(worst_sup, abs(u) / sup_bound)
        for p in (1.0, 2.0, 4.0, 8.0, math.inf):
            bound = sharp_coefficient_hom(kernel, p, t, ell).value * data.lp_norm(p)
            worst_grad = max(worst_grad, abs(float(grad @ ell)) / bound)
    # nonhomogeneous side: n = 1, p in {n+3, inf}
    for _ in range(10):
        kernel = FundamentalSolution(vf.random_problem(rng, 1))
        profile = GaussianBump(center=(float(rng.uniform(-1, 1)),),
                               spread=float(rng.uniform(0.4, 1.5)),
                               amp=float(rng.uniform(0.5, 2.0)))
        forcing = TimeInvariantForcing(profile)
        t = float(rng.uniform(0.3, 2.0))
        x = rng.uniform(-1.5, 1.5, 1)
        grad = gradient_nonhomogeneous(kernel, forcing, x, t)
        for p in (4.0, math.inf):
            bound = (sharp_coefficient_nonhom(kernel, p, t, np.array([1.0])).value
                     * forcing.lp_norm(p, t))
            worst_grad = max(worst_grad, abs(grad[0]) / bound)
    ok = worst_grad <= 1.0 + 1e-5 and worst_sup <= 1.0 + 1e-6
    report("9 bound-domination", ok,
           f"worst gradient ratio {worst_grad:.8f} <= 1+1e-5, "
           f"worst sup ratio {worst_sup:.8f} <= 1+1e-6",
           time.time() - start, 120.0)


def test_criterion_10_cli_round_trip(tmp_path):
    start = time.time()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n": 1, "A": [[1.0]], "b": [0.0], "c": 0.0, "T": 8.0}))

    def numeric(path):
        with open(path) as fh:
            return [line for line in fh
                    if not line.startswith("# manifest:") and not line.startswith('{"manifest"')]

    ok = True
    # exit-code contract
    ok &= cli.main(["constant", "--spec", str(spec_path), "--kind", "hom", "--p", "inf",
                    "--t", "1", "--dir", "1", "--out", str(tmp_path / "c.json")]) == 0
    ok &= cli.main(["constant", "--spec", str(spec_path), "--kind", "nonhom", "--p", "3",
                    "--t", "1", "--dir", "1"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    ok &= cli.main(["constant", "--spec", str(bad), "--kind", "hom", "--p", "2",
                    "--t", "1", "--dir", "1"]) == 2
    # no rule meets a target below roundoff: quadrature failure
    ok &= cli.main(["solve", "--spec", str(spec_path), "--kind", "nonhom",
                    "--data", "gaussian:spread=1", "--points", "0,1",
                    "--target-rel-err", "1e-300"]) == 4
    # the spread-2e-5 spike answers, at the Gaussian closed form
    spike = tmp_path / "spike.csv"
    ok &= cli.main(["solve", "--spec", str(spec_path), "--kind", "hom",
                    "--data", "gaussian:spread=0.00002", "--points", "0,1",
                    "--out", str(spike)]) == 0
    u_spike = float(spike.read_text().splitlines()[-1].split(",")[2])
    ok &= abs(u_spike - math.sqrt(2e-5 / 1.00002)) <= 1e-8 * math.sqrt(2e-5 / 1.00002)
    ok &= cli.main(["verify", "--check", "duality_hom/n1/*",
                    "--out", str(tmp_path / "v.jsonl")]) == 0
    ok &= cli.main(["verify", "--check", "duality_hom/n1/*", "--perturb", "1e-3",
                    "--out", str(tmp_path / "vp.jsonl")]) == 1

    # byte-identical reruns from embedded manifests
    for name, argv in {
        "s.csv": ["solve", "--spec", str(spec_path), "--kind", "hom",
                  "--data", "gaussian:spread=0.9,center=0.3", "--points", "0.1,0.8;0.4,1.2"],
        "w.csv": ["sweep", "--spec", str(spec_path), "--kind", "hom",
                  "--p-grid", "2,inf", "--t-grid", "0.5,2", "--max"],
    }.items():
        out1 = tmp_path / name
        assert cli.main(argv + ["--out", str(out1)]) == 0
        with open(out1) as fh:
            manifest = json.loads(fh.readline()[len("# manifest: "):])
        out2 = tmp_path / ("r_" + name)
        assert cli.main(cli.manifest_to_argv(manifest) + ["--out", str(out2)]) == 0
        ok &= numeric(out1) == numeric(out2)
    c1 = json.loads((tmp_path / "c.json").read_text())
    out2 = tmp_path / "c2.json"
    assert cli.main(cli.manifest_to_argv(c1["manifest"]) + ["--out", str(out2)]) == 0
    c2 = json.loads(out2.read_text())
    ok &= {k: v for k, v in c1.items() if k != "manifest"} == {
        k: v for k, v in c2.items() if k != "manifest"
    }
    report("10 cli-round-trip", bool(ok), "exit codes 0/1/2/3/4 and byte-identical reruns",
           time.time() - start, 60.0)
