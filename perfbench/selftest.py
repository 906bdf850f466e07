"""Self-tests of the benchmark: its checks must bite and its inputs must repeat.

    python3 perfbench/selftest.py          # or: python -m pytest perfbench/selftest.py

Takes about a minute on two cores.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import islice

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import parabound as pb  # noqa: E402
from reference import (  # noqa: E402
    CoefficientReference,
    check_box1d_hom,
    check_gaussian_hom,
    check_nonhom,
)
from run import Passes  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, HomField, VerifySuite, _kernel, _problem  # noqa: E402

SCALE = 1.0 + 1e-6


def _scaled(result):
    return tuple(np.asarray(part, float) * SCALE for part in result)


def test_verify_suite_with_perturbation_reports_failed_ops():
    timed = Passes(next(VerifySuite(pb, 3, perturb=1e-3).rounds())).run(1)
    assert sum(timed.failed.values()) > 0, timed.failed
    assert timed.failed["WrongResult"] == sum(timed.failed.values())


def test_reference_checks_flag_results_scaled_by_one_plus_1e_6():
    rng = np.random.default_rng(11)
    for n in (1, 2):
        prob = _problem(rng, n)
        kernel = _kernel(pb, prob)
        x = np.full(n, 0.1)
        t = 0.5
        gauss = {"center": np.zeros(n), "spread": 0.3, "amp": 1.5}
        data = pb.GaussianBump(center=(0.0,) * n, spread=0.3, amp=1.5)
        res = (pb.solve_homogeneous(kernel, data, x, t), pb.gradient_homogeneous(kernel, data, x, t))
        p = {**prob, **gauss}
        assert check_gaussian_hom(res, p, x, t) is None
        assert check_gaussian_hom(_scaled(res), p, x, t) is not None

        for kind in ("gaussian", "constant"):
            profile = data if kind == "gaussian" else pb.ConstantData(1.5, dim=n)
            forcing = pb.TimeInvariantForcing(profile)
            res = (pb.solve_nonhomogeneous(kernel, forcing, x, t),
                   pb.gradient_nonhomogeneous(kernel, forcing, x, t))
            q = {**p, "kind": kind, "value": 1.5}
            assert check_nonhom(res, q, x, t) is None
            assert check_nonhom(_scaled(res), q, x, t) is not None

    prob = _problem(rng, 1)
    kernel = _kernel(pb, prob)
    box = {"lo": np.array([-0.5]), "hi": np.array([0.7]), "amp": 1.5}
    data = pb.BoxIndicator(lo=(-0.5,), hi=(0.7,), amp=1.5)
    x, t = np.array([0.2]), 0.4
    res = (pb.solve_homogeneous(kernel, data, x, t), pb.gradient_homogeneous(kernel, data, x, t))
    assert check_box1d_hom(res, {**prob, **box}, x, t) is None
    assert check_box1d_hom(_scaled(res), {**prob, **box}, x, t) is not None
    forcing = pb.TimeInvariantForcing(data)
    res = (pb.solve_nonhomogeneous(kernel, forcing, x, t),
           pb.gradient_nonhomogeneous(kernel, forcing, x, t))
    q = {**prob, **box, "kind": "box"}
    assert check_nonhom(res, q, x, t) is None
    assert check_nonhom(_scaled(res), q, x, t) is not None

    ref = CoefficientReference()
    for n in (1, 3, 8):
        for c in (-0.7, 0.0, 3.0):
            prob = _problem(rng, n, c)
            kernel = _kernel(pb, prob)
            ell = rng.standard_normal(n)
            ell /= np.linalg.norm(ell)
            for kind, p in (("hom", 1.0), ("hom", 2.5), ("hom", math.inf),
                            ("nonhom", n + 2.5), ("nonhom", math.inf)):
                fn = pb.sharp_coefficient_hom if kind == "hom" else pb.sharp_coefficient_nonhom
                for direction in (tuple(ell), None):
                    res = fn(kernel, p, 1.3, direction)
                    assert ref.check(res, kind, p, 1.3, prob, direction) is None
                    bad = type(res)(res.value * SCALE, res.prefactor, res.gamma_factor,
                                    res.time_factor, res.query, res.maximizing_direction)
                    assert ref.check(bad, kind, p, 1.3, prob, direction) is not None


def test_same_seed_gives_same_inputs_and_same_fail_frac():
    for name, cls in WORKLOADS.items():
        keys = []
        for seed in (5, 5, 6):
            wl = cls(pb, seed)
            round_keys = []
            for groups in islice(wl.rounds(), 2):
                for group in groups:
                    ctx = group.setup() if name == "verify_suite" else None
                    round_keys += [op.key for op in group.ops(ctx)]
            keys.append(round_keys)
        assert keys[0] == keys[1], name
        assert keys[0] != keys[2], name
    # two passes of one list, and a second list from the same seed, fail alike
    groups = [[g for r in islice(HomField(pb, 5).rounds(), 2) for g in r] for _ in range(2)]
    first = Passes(groups[0]).run(2)
    again = Passes(groups[1]).run(1)
    assert sum(again.failed.values()) > 0, again.failed
    assert first.failed == again.failed + again.failed, (first.failed, again.failed)
    assert first.attempted == 2 * again.attempted


def test_tracer_restores_every_patched_name_and_splits_time():
    kernel_value = pb.FundamentalSolution.value
    solve = pb.solve_homogeneous
    tensor = pb.solver.hermite_tensor
    tracer = Tracer(pb).install()
    try:
        assert pb.solver.hermite_tensor is not tensor
        timed = Passes(next(HomField(pb, 2).rounds())).run(1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert pb.FundamentalSolution.value is kernel_value
    assert pb.solve_homogeneous is solve and pb.solver.hermite_tensor is tensor
    a = tracer.arrays()
    assert np.all(a["self"] >= 0)
    # self times partition the traced time; it cannot exceed the busy time
    assert a["self"].sum() <= timed.pass_s() * 1e9
    metrics = tracer.layer_metrics(timed.attempted, int(timed.pass_s() * 1e9), (0, 0))
    assert timed.attempted <= metrics["solver.calls"] <= 2 * timed.attempted


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
