"""A checked-in corpus of CLI runs: argument vectors with their exit codes, stdout and stderr.

Regenerate tests/cli_corpus.json from the code under src/ with

    python tests/cli_corpus.py --write

which prints every cell that moved against the file it replaces, with its
relative size, and every new entry. tests/test_cli_corpus.py reruns every
entry in process, under warnings as errors, and compares it with the file
(compare): exit codes, stderr and every non-numeric token exactly, numbers
to 1e-13 relative, and verify's rel_err cells, which are differences at
roundoff, to 1e-13 absolute. The grid files are written at run time; their
paths read {grid1} and {grid2}.
"""

import contextlib
import io
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).with_name("cli_corpus.json")
REL_TOL = 1e-13

SPECS = {
    1: {"n": 1, "A": [[1.3]], "b": [0.5], "c": -0.25, "T": 8},
    2: {"n": 2, "A": [[1, 0.6], [0.6, 2]], "b": [0.5, -1], "c": -0.25, "T": 8},
    3: {"n": 3, "A": [[1, 0.2, 0.1], [0.2, 1.5, 0.3], [0.1, 0.3, 2]], "b": [0.5, -1, 0.3],
        "c": -0.25, "T": 8},
}
# three points per solve: x = s (1, ..., 1) at time t
POINTS = ((0.2, 0.7), (-0.3, 0.2), (0.45, 1.6))
HEAT = {"n": 1, "A": [[1]], "b": [0], "c": 0, "T": 8}


def _data(kind, n):
    lo, hi = " ".join(["-0.5"] * n), " ".join(["0.5"] * n)
    return {
        "gaussian": "gaussian:spread=0.8",
        "polygauss": "polygauss:spread=0.8,powers=" + {1: "2", 2: "1 2", 3: "1 2 1"}[n],
        "box": f"box:lo={lo},hi={hi}",
        "constant": "constant:value=1.5",
    }[kind]


def _solve(name, spec, kind, data, points):
    return name, ["solve", "--spec-json", json.dumps(spec), "--kind", kind, "--data", data,
                  "--points", points]


def entries():
    """(name, argv) of every run; grid paths are the placeholders {grid1} and {grid2}."""
    out = []
    for n, spec in SPECS.items():
        points = ";".join(",".join([repr(s)] * n + [repr(t)]) for s, t in POINTS)
        for data in ("gaussian", "polygauss", "box", "constant"):
            for kind in ("hom", "nonhom"):
                out.append(_solve(f"solve/n{n}/{data}/{kind}", spec, kind, _data(data, n), points))
    for kind in ("hom", "nonhom"):
        out.append(_solve(f"solve/n1/grid/{kind}", SPECS[1], kind, "grid:{grid1}", "0.3,1;1,0.2"))
    out.append(_solve("solve/n2/grid/hom", SPECS[2], "hom", "grid:{grid2}", "0.2,0.2,0.7"))
    out += [
        ("constant/n2/hom/max", ["constant", "--spec-json", json.dumps(SPECS[2]), "--kind", "hom",
                                 "--p", "4", "--t", "0.7", "--max"]),
        ("constant/n3/nonhom/dir", ["constant", "--spec-json", json.dumps(SPECS[3]),
                                    "--kind", "nonhom", "--p", "inf", "--t", "0.7",
                                    "--dir", "0.6,0.8,0"]),
        ("sweep/nan_cell", ["sweep", "--spec-json", json.dumps(dict(HEAT, c=800)),
                            "--kind", "hom", "--p-grid", "2,inf", "--t-grid", "0.1,1",
                            "--dir", "1"]),
        ("verify/default", ["verify"]),
        ("verify/seed7", ["verify", "--seed", "7"]),
        ("verify/perturb1e-9", ["verify", "--perturb", "1e-9"]),
        ("exit2/beyond_horizon", ["solve", "--spec-json", json.dumps(SPECS[1]), "--kind", "hom",
                                  "--data", "gaussian:spread=0.8", "--points", "0,9"]),
        ("exit3/nonhom_p3", ["constant", "--spec-json", json.dumps(SPECS[1]), "--kind", "nonhom",
                             "--p", "3", "--t", "1", "--dir", "1"]),
        # exit 4 by the order budget: its message holds no roundoff-sized estimate
        _solve("exit4/polygauss_order_budget", HEAT, "hom", "polygauss:powers=600,spread=0.001",
               "0.1,0.5"),
        _solve("far_field/gaussian/x1e160", HEAT, "hom", "gaussian:spread=1", "1e160,1"),
        _solve("far_field/polygauss/b1e308", dict(HEAT, b=[1e308]), "nonhom",
               "polygauss:spread=1,powers=1", "0,7"),
    ]
    return out


def write_grids(directory):
    """The two grid files (the CI grids) in directory: {placeholder: path}."""
    from parabound.sources import GridData, write_grid

    y = np.arange(-6.0, 6.025, 0.05)
    s = np.arange(-3.0, 3.125, 0.25)
    x2, y2 = np.meshgrid(s, s, indexing="ij")
    grids = {
        "{grid1}": GridData([y[0]], [0.05], np.exp(-y**2 / 2)),
        "{grid2}": GridData([-3.0, -3.0], [0.25, 0.25],
                            np.exp(-(x2**2 + 2 * y2**2) / 2) * (1 + x2 * y2)),
    }
    paths = {}
    for key, grid in grids.items():
        paths[key] = str(Path(directory) / (key.strip("{}") + ".grid"))
        write_grid(paths[key], grid)
    return paths


def run(argv, paths):
    """One entry, in process and under warnings as errors: {exit, stdout, stderr}.

    Grid paths go in and come out as their placeholders.
    """
    from parabound import cli

    for key, path in paths.items():
        argv = [arg.replace(key, path) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    result = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    for key, path in paths.items():
        result = {k: v.replace(path, key) if isinstance(v, str) else v for k, v in result.items()}
    return result


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _tokens(text):
    """text as alternating text and number tokens: text at even places, numbers at odd."""
    parts = []
    last = 0
    for match in _NUMBER.finditer(text):
        parts += [text[last:match.start()], match.group()]
        last = match.end()
    return parts + [text[last:]]


def compare(expected, actual, tolerance=REL_TOL):
    """The differences of one run from its corpus entry, as a list of strings (empty: equal).

    Numbers count as equal within tolerance (relative; absolute for rel_err
    cells); tolerance 0 lists every moved number with its relative size.
    """
    diffs = [f"{key}: {expected[key]!r} != {actual[key]!r}"
             for key in ("exit", "stderr") if expected[key] != actual[key]]
    want, got = _tokens(expected["stdout"]), _tokens(actual["stdout"])
    if len(want) != len(got):
        return diffs + [f"stdout has {len(got)} tokens, expected {len(want)}"]
    for i, (a, b) in enumerate(zip(want, got)):
        if a == b:
            continue
        if i % 2 == 0:
            diffs.append(f"text {a!r} != {b!r}")
            continue
        x, y = float(a), float(b)
        absolute = want[i - 1].endswith('"rel_err":')
        size = abs(x - y) / (1.0 if absolute else max(abs(x), abs(y)))
        if not size <= tolerance:
            line = "".join(want[:i]).rsplit("\n", 1)[-1]  # the cell's line, up to the cell
            kind = "absolute" if absolute else "relative"
            diffs.append(f"{line[:48]}...{line[-12:]} {a} -> {b} ({size:.1e} {kind})")
    return diffs


def generate(directory):
    """Every entry run against the current code: {name: {argv, exit, stdout, stderr}}."""
    paths = write_grids(directory)
    return {name: {"argv": argv, **run(argv, paths)} for name, argv in entries()}


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/cli_corpus.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = generate(tmp)
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    for name in sorted(corpus.keys() | old.keys()):
        if name not in corpus or name not in old:
            print(f"{name}: {'new entry' if name in corpus else 'removed'}")
            continue
        for line in compare(old[name], corpus[name], 0.0):
            print(f"{name}: {line}")
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} entries to {CORPUS}")
