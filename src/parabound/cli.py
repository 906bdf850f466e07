"""Command-line front end: constant, solve, verify, sweep.

Every output embeds the resolved run manifest (problem, command
parameters, quadrature settings, seed), and rebuilding the argument
vector from that manifest reproduces byte-identical numeric output.
Numbers are printed with 17 significant digits so float64 values
round-trip exactly.

Exit codes: 0 ok, 1 verification failure, 2 input error, 3 inadmissible
exponent, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fnmatch
import json
import math
import sys

import numpy as np

from .errors import (
    DivergentIntegral,
    DomainError,
    ExponentTooSmall,
    FloatOverflow,
    ParaboundError,
    QuadratureFailure,
)
from .kernel import FundamentalSolution, ProblemSpec
from .sharp_constants import sharp_coefficient_hom, sharp_coefficient_nonhom
from .solver import QuadratureConfig, solve_batch
from .sources import (
    BoxIndicator,
    ConstantData,
    GaussianBump,
    PolynomialGaussian,
    TimeInvariantForcing,
    read_grid,
)
from .verify import default_checks, run_checks

JOBS_HELP = "accepted and recorded in the manifest; the work runs serially"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BAD_EXPONENT = 3
EXIT_NUMERICAL = 4


def fmt(x: float) -> str:
    """17 significant digits: shortest text that round-trips float64.

    Adding 0.0 turns negative zero into 0, so no cell reads "-0".
    """
    return format(float(x) + 0.0, ".17g")


def dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        if math.isnan(obj):
            return '"nan"'
        return fmt(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{dumps(str(k))}:{dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return dumps(float(obj))
    if isinstance(obj, (np.integer,)):
        return dumps(int(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def parse_exponent(text: str) -> float:
    if text.strip().lower() == "inf":
        return math.inf
    return float(text)


def exponent_token(p: float):
    return "inf" if p == math.inf else p


def load_spec(args) -> ProblemSpec:
    if getattr(args, "spec_json", None):
        payload = json.loads(args.spec_json)
    elif getattr(args, "spec", None):
        with open(args.spec, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        raise ParaboundError("a problem spec is required (--spec or --spec-json)")
    return ProblemSpec.from_dict(payload)


def resolve_quadrature(args) -> QuadratureConfig:
    target = getattr(args, "target_rel_err", None)
    if target is None:
        return QuadratureConfig()
    return QuadratureConfig(target_rel_err=float(target))


def parse_direction(text):
    """--dir as an array, or None (maximize over directions) when absent."""
    return None if text is None else np.array([float(v) for v in text.split(",")])


def parse_data(text: str, n: int):
    """Parse a data preset description.

    Forms: constant:value=V | gaussian:spread=S,center=X1 X2,amp=A |
    box:lo=L1 L2,hi=H1 H2,amp=A | polygauss:spread=S,center=...,powers=K1 K2,amp=A |
    grid:PATH
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "grid":
        return read_grid(rest)
    fields = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            fields[key.strip()] = value.strip()

    def vector(key, default=None):
        if key not in fields:
            if default is None:
                raise ParaboundError(f"data spec missing field {key!r}")
            return default
        return tuple(float(v) for v in fields[key].split())

    if kind == "constant":
        return ConstantData(float(fields.get("value", "1")), dim=n)
    if kind == "gaussian":
        return GaussianBump(
            center=vector("center", (0.0,) * n),
            spread=float(fields.get("spread", "1")),
            amp=float(fields.get("amp", "1")),
        )
    if kind == "box":
        return BoxIndicator(
            lo=vector("lo"), hi=vector("hi"), amp=float(fields.get("amp", "1"))
        )
    if kind == "polygauss":
        return PolynomialGaussian(
            center=vector("center", (0.0,) * n),
            spread=float(fields.get("spread", "1")),
            powers=tuple(int(float(v)) for v in fields.get("powers", "1").split()),
            amp=float(fields.get("amp", "1")),
        )
    raise ParaboundError(f"unknown data preset kind {kind!r}")


def parse_points(args, n: int):
    rows = []
    if getattr(args, "points", None):
        chunks = [c for c in args.points.split(";") if c.strip()]
    elif getattr(args, "points_file", None):
        with open(args.points_file, "r", encoding="utf-8") as fh:
            chunks = [line for line in fh if line.strip() and not line.startswith("#")]
    else:
        raise ParaboundError("evaluation points required (--points or --points-file)")
    for chunk in chunks:
        values = [float(v) for v in chunk.replace(",", " ").split()]
        if len(values) != n + 1:
            raise ParaboundError(
                f"point {chunk.strip()!r} must have {n} coordinates plus a time"
            )
        rows.append(values)
    return rows


def open_output(path):
    """The --out file, or stdout (left open) when no path is given."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def base_manifest(args, command: str, quad: QuadratureConfig, spec: ProblemSpec | None) -> dict:
    manifest = {
        "command": command,
        "quadrature": dataclasses.asdict(quad),
        "seed": getattr(args, "seed", None),
        "out": getattr(args, "out", None),
    }
    if spec is not None:
        manifest["problem"] = spec.to_dict()
    return manifest


def manifest_to_argv(manifest: dict) -> list:
    """Rebuild the argument vector that reproduces a manifest's run."""
    argv = [manifest["command"]]
    if "problem" in manifest:
        argv += ["--spec-json", dumps(manifest["problem"])]
    if manifest.get("kind"):
        argv += ["--kind", manifest["kind"]]
    if manifest.get("p") is not None:
        argv += ["--p", str(manifest["p"])]
    if manifest.get("t") is not None:
        argv += ["--t", fmt(manifest["t"])]
    if manifest.get("dir") is not None:
        argv += ["--dir", ",".join(fmt(v) for v in manifest["dir"])]
    if manifest.get("max"):
        argv += ["--max"]
    if manifest.get("data"):
        argv += ["--data", manifest["data"]]
    if manifest.get("points"):
        argv += ["--points", ";".join(",".join(fmt(v) for v in row) for row in manifest["points"])]
    if manifest.get("p_grid"):
        argv += ["--p-grid", ",".join(str(v) for v in manifest["p_grid"])]
    if manifest.get("t_grid"):
        argv += ["--t-grid", ",".join(fmt(v) for v in manifest["t_grid"])]
    if manifest.get("check"):
        argv += ["--check", manifest["check"]]
    if manifest.get("perturb"):
        argv += ["--perturb", fmt(manifest["perturb"])]
    if manifest.get("seed") is not None:
        argv += ["--seed", str(manifest["seed"])]
    if manifest.get("jobs"):
        argv += ["--jobs", str(manifest["jobs"])]
    argv += ["--target-rel-err", fmt(manifest["quadrature"]["target_rel_err"])]
    return argv


def cmd_constant(args) -> int:
    spec = load_spec(args)
    kernel = FundamentalSolution(spec)
    quad = resolve_quadrature(args)
    p = parse_exponent(args.p)
    direction = parse_direction(args.dir)
    fn = sharp_coefficient_hom if args.kind == "hom" else sharp_coefficient_nonhom
    constant = fn(kernel, p, args.t, direction)
    manifest = base_manifest(args, "constant", quad, spec)
    manifest.update(
        kind=args.kind,
        p=exponent_token(p),
        t=args.t,
        dir=None if direction is None else list(direction),
        max=direction is None,
    )
    record = {
        "manifest": manifest,
        "value": constant.value,
        "factors": constant.factors(),
        "maximizing_direction": (
            None if constant.maximizing_direction is None else list(constant.maximizing_direction)
        ),
    }
    with open_output(args.out) as fh:
        fh.write(dumps(record) + "\n")
    return EXIT_OK


def cmd_solve(args) -> int:
    spec = load_spec(args)
    kernel = FundamentalSolution(spec)
    quad = resolve_quadrature(args)
    data = parse_data(args.data, spec.n)
    points = parse_points(args, spec.n)
    if args.kind == "nonhom":
        data = TimeInvariantForcing(data)
    manifest = base_manifest(args, "solve", quad, spec)
    manifest.update(kind=args.kind, data=args.data, points=points, jobs=args.jobs)
    n = spec.n
    header = (
        [f"x_{j + 1}" for j in range(n)] + ["t", "u"] + [f"du_dx{j + 1}" for j in range(n)]
    )
    xs, ts = [row[:n] for row in points], [row[n] for row in points]
    values = solve_batch(kernel, data, xs, ts, quad, jobs=args.jobs, kind=args.kind)
    grads = solve_batch(kernel, data, xs, ts, quad, jobs=args.jobs, kind=args.kind,
                        gradient=True)
    with open_output(args.out) as fh:
        fh.write("# manifest: " + dumps(manifest) + "\n")
        fh.write(",".join(header) + "\n")
        for row, u, grad in zip(points, values, grads):
            cells = [fmt(v) for v in row[:n]] + [fmt(row[n]), fmt(u)] + [fmt(g) for g in grad]
            fh.write(",".join(cells) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    quad = resolve_quadrature(args)
    seed = args.seed if args.seed is not None else 20250810
    checks = default_checks(seed=seed, perturb=args.perturb, quad=quad)
    if args.check:
        checks = [(name, fn) for name, fn in checks if fnmatch.fnmatch(name, args.check)]
        if not checks:
            raise DomainError(f"--check {args.check!r} matches no check")
    manifest = base_manifest(args, "verify", quad, spec=None)
    manifest.update(seed=seed, check=args.check, perturb=args.perturb, jobs=args.jobs)
    reports = run_checks(checks, jobs=args.jobs)
    passed = sum(1 for r in reports if r.passed)
    with open_output(args.out) as fh:
        fh.write(dumps({"manifest": manifest}) + "\n")
        for report in reports:
            fh.write(dumps(report.record()) + "\n")
        fh.write(
            dumps({"summary": {"total": len(reports), "passed": passed,
                               "failed": len(reports) - passed}}) + "\n"
        )
    return EXIT_OK if passed == len(reports) else EXIT_VERIFY_FAILED


def cmd_sweep(args) -> int:
    spec = load_spec(args)
    kernel = FundamentalSolution(spec)
    quad = resolve_quadrature(args)
    p_grid = [parse_exponent(v) for v in args.p_grid.split(",")]
    t_grid = [float(v) for v in args.t_grid.split(",")]
    direction = parse_direction(args.dir)
    fn = sharp_coefficient_hom if args.kind == "hom" else sharp_coefficient_nonhom
    label = "k" if args.kind == "hom" else "c"

    def cell(p, t):
        """(dir value, max value) of one grid cell; NaN and a warning where none exists."""
        dir_val = math.nan
        max_val = math.nan
        try:
            if direction is not None:
                dir_val = fn(kernel, p, t, direction).value
            max_val = fn(kernel, p, t).value
        except (ExponentTooSmall, DivergentIntegral, FloatOverflow) as exc:
            print(f"warning: p={exponent_token(p)} t={t}: {exc}", file=sys.stderr)
        return dir_val, max_val

    cells = [(p, t) for p in p_grid for t in t_grid]
    results = [cell(p, t) for p, t in cells]
    manifest = base_manifest(args, "sweep", quad, spec)
    manifest.update(
        kind=args.kind,
        p_grid=[exponent_token(p) for p in p_grid],
        t_grid=t_grid,
        dir=None if direction is None else list(direction),
        max=direction is None,
        jobs=args.jobs,
    )
    with open_output(args.out) as fh:
        fh.write("# manifest: " + dumps(manifest) + "\n")
        fh.write(f"p,t,{label}_dir,{label}_max,t_trend\n")
        for idx, ((p, t), (dir_val, max_val)) in enumerate(zip(cells, results)):
            trend = ""
            if idx % len(t_grid) > 0:
                prev = results[idx - 1][1]
                if math.isfinite(prev) and math.isfinite(max_val):
                    delta = max_val - prev
                    trend = "0" if delta == 0 else ("+1" if delta > 0 else "-1")
            cells_text = [
                str(exponent_token(p)) if p == math.inf else fmt(p),
                fmt(t),
                fmt(dir_val) if math.isfinite(dir_val) else "NaN",
                fmt(max_val) if math.isfinite(max_val) else "NaN",
                trend,
            ]
            fh.write(",".join(cells_text) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parabound",
        description="Sharp gradient bounds and solvers for constant-coefficient "
        "parabolic Cauchy problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, spec=True):
        if spec:
            p.add_argument("--spec", help="path to problem spec JSON")
            p.add_argument("--spec-json", help="inline problem spec JSON")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--quad-order", type=int, help="accepted so that older command lines "
                       "run, and ignored: every data kind has its own fixed rules")
        p.add_argument("--target-rel-err", type=float,
                       help="quadrature error target (default 1e-8)")

    p_const = sub.add_parser("constant", help="evaluate a sharp coefficient")
    add_common(p_const)
    p_const.add_argument("--kind", choices=["hom", "nonhom"], required=True)
    p_const.add_argument("--p", required=True, help="Lebesgue exponent (number or 'inf')")
    p_const.add_argument("--t", type=float, required=True)
    group = p_const.add_mutually_exclusive_group(required=True)
    group.add_argument("--dir", help="unit direction, comma-separated floats")
    group.add_argument("--max", action="store_true", help="maximize over directions")
    p_const.set_defaults(fn=cmd_constant)

    p_solve = sub.add_parser("solve", help="evaluate u and grad u at points")
    add_common(p_solve)
    p_solve.add_argument("--kind", choices=["hom", "nonhom"], required=True)
    p_solve.add_argument("--data", required=True, help="data preset or grid:PATH")
    p_solve.add_argument("--points", help="semicolon-separated 'x1,..,xn,t' tuples")
    p_solve.add_argument("--points-file", help="file with one point per line")
    p_solve.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p_solve.set_defaults(fn=cmd_solve)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    add_common(p_verify, spec=False)
    p_verify.add_argument("--seed", type=int, help="seed for the randomized suite")
    p_verify.add_argument("--check", help="glob filter on check names")
    p_verify.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p_verify.add_argument("--perturb", type=float, default=0.0,
                          help="test mode: scale closed forms by (1+perturb)")
    p_verify.set_defaults(fn=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="tabulate coefficients over p and t grids")
    add_common(p_sweep)
    p_sweep.add_argument("--kind", choices=["hom", "nonhom"], required=True)
    p_sweep.add_argument("--p-grid", required=True, help="comma-separated exponents")
    p_sweep.add_argument("--t-grid", required=True, help="comma-separated times")
    p_sweep.add_argument("--dir", help="unit direction, comma-separated floats")
    p_sweep.add_argument("--max", action="store_true")
    p_sweep.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p_sweep.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParaboundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ExponentTooSmall):
            return EXIT_BAD_EXPONENT
        if isinstance(exc, (QuadratureFailure, DivergentIntegral)):
            return EXIT_NUMERICAL
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
