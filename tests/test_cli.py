"""CLI integration tests: output formats, exit codes, manifest round trips."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabound import cli
from parabound.kernel import FundamentalSolution, ProblemSpec
from parabound.solver import solve_batch
from parabound.sources import GaussianBump, GridData, read_grid, write_grid
from parabound.verify import default_checks, run_checks

from .test_kernel import HEAT_1D
from .test_references import grid_reference

SPEC_1D = {"n": 1, "A": [[1.0]], "b": [0.0], "c": 0.0, "T": 8.0}
SPEC_2D = {"n": 2, "A": [[1.0, 0.2], [0.2, 2.0]], "b": [0.5, -1.0], "c": -0.25, "T": 8.0}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_1D))
    return str(path)


def run_cli(argv):
    return cli.main(argv)


def child_env():
    """Environment for a child interpreter that imports the code under test.

    Children may run from "/", where a relative PYTHONPATH (such as "src")
    would not resolve; the directory of the imported package goes first so
    the child runs the code under test, not some installed copy.
    """
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([src_dir, *inherited])
    return env


def run_child(argv, env=None):
    return subprocess.run(
        [sys.executable, *argv], env=env or child_env(),
        capture_output=True, text=True, cwd="/", timeout=120,
    )


def read_manifest_from_csv(path):
    with open(path) as fh:
        first = fh.readline()
    assert first.startswith("# manifest: ")
    return json.loads(first[len("# manifest: "):])


def numeric_lines(path):
    with open(path) as fh:
        return [line for line in fh if not line.startswith("# manifest:")
                and not line.startswith('{"manifest"')]


class TestConstantCommand:
    def test_sup_data_reference_value(self, spec_path, tmp_path):
        out = tmp_path / "const.json"
        code = run_cli(["constant", "--spec", spec_path, "--kind", "hom",
                        "--p", "inf", "--t", "1", "--dir", "1", "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["value"] == pytest.approx(0.5641895835477563, rel=1e-15)
        prod = (record["factors"]["prefactor"] * record["factors"]["gamma_factor"]
                * record["factors"]["time_factor"])
        assert prod == pytest.approx(record["value"], rel=1e-14)

    def test_nonhom_reference_value(self, spec_path, tmp_path):
        out = tmp_path / "c4.json"
        code = run_cli(["constant", "--spec", spec_path, "--kind", "nonhom",
                        "--p", "4", "--t", "1", "--dir", "1", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(1.3366634215090237, rel=1e-12)

    def test_max_reports_direction(self, tmp_path):
        out = tmp_path / "max.json"
        code = run_cli(["constant", "--spec-json", json.dumps(SPEC_2D), "--kind", "hom",
                        "--p", "2", "--t", "0.5", "--max", "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        ell = np.array(record["maximizing_direction"])
        assert np.linalg.norm(ell) == pytest.approx(1.0, abs=1e-12)

    def test_exit_3_on_inadmissible_exponent(self, spec_path):
        code = run_cli(["constant", "--spec", spec_path, "--kind", "nonhom",
                        "--p", "3", "--t", "1", "--dir", "1"])
        assert code == 3

    def test_exit_2_on_bad_spec(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "A": [[1.0, 0.5], [0.0, 1.0]], "b": [0, 0],
                                   "c": 0.0, "T": 1.0}))
        code = run_cli(["constant", "--spec", str(bad), "--kind", "hom",
                        "--p", "2", "--t", "1", "--dir", "1,0"])
        assert code == 2
        notjson = tmp_path / "nope.json"
        notjson.write_text("{{{")
        code = run_cli(["constant", "--spec", str(notjson), "--kind", "hom",
                        "--p", "2", "--t", "1", "--dir", "1,0"])
        assert code == 2


class TestOverflow:
    SPEC = json.dumps({"n": 1, "A": [[1]], "b": [0], "c": 800, "T": 8})

    @pytest.mark.parametrize("kind, p", [("hom", "2"), ("nonhom", "4"), ("nonhom", "inf")])
    def test_exit_2_without_traceback(self, kind, p):
        result = run_child(["-m", "parabound", "constant", "--spec-json", self.SPEC,
                            "--kind", kind, "--p", p, "--t", "1", "--dir", "1"])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "overflows float64" in result.stderr

    def test_large_positive_reaction_is_finite(self, tmp_path):
        spec = {"n": 1, "A": [[1]], "b": [0], "c": 20, "T": 8}
        out = tmp_path / "c.json"
        code = run_cli(["constant", "--spec-json", json.dumps(spec), "--kind", "nonhom",
                        "--p", "3.01", "--t", "8", "--dir", "1", "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        p_conj = 3.01 / 2.01
        assert record["factors"]["time_factor"] == pytest.approx(
            4.81279883107963481845773e101 ** (1.0 / p_conj), rel=1e-12
        )
        assert math.isfinite(record["value"]) and record["value"] > 0.0

    def test_solve_reaction_overflow(self, capsys):
        def solve(spec):
            return run_cli(["solve", "--spec-json", spec, "--kind", "hom",
                            "--data", "constant:value=1", "--points", "0,1"])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve(self.SPEC) == 2
            assert "overflows float64" in capsys.readouterr().err
            # e^355 is finite, but its square (a naive norm) is not
            assert solve(json.dumps({"n": 1, "A": [[1]], "b": [0], "c": 355, "T": 8})) == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert float(row[2]) == pytest.approx(math.exp(355.0), rel=1e-12)

    def test_sweep_overflowing_cell_is_nan(self, capsys):
        code = run_cli(["sweep", "--spec-json", self.SPEC, "--kind", "hom",
                        "--p-grid", "2", "--t-grid", "0.1,1", "--dir", "1"])
        captured = capsys.readouterr()
        assert code == 0
        rows = [line.split(",") for line in captured.out.splitlines()[2:]]
        assert len(rows) == 2
        assert math.isfinite(float(rows[0][2])) and math.isfinite(float(rows[0][3]))
        assert rows[1][2:4] == ["NaN", "NaN"]
        assert "warning: p=2.0 t=1.0" in captured.err
        assert "overflows float64" in captured.err
        # a time beyond the horizon is still an input error
        assert run_cli(["sweep", "--spec-json", self.SPEC, "--kind", "hom",
                        "--p-grid", "2", "--t-grid", "0.1,9", "--dir", "1"]) == 2


    def test_solve_gradient_peak_overflow(self, capsys):
        # the kernel peak e^708.2 fits, the peak of its gradient does not
        spec = json.dumps({"n": 1, "A": [[0.01]], "b": [0], "c": 1000, "T": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["solve", "--spec-json", spec, "--kind", "hom",
                            "--data", "box:lo=-1,hi=1", "--points", "0.95,0.707"])
        assert code == 2
        assert "overflows float64" in capsys.readouterr().err


    @pytest.mark.parametrize("data", ["constant:value=1e300", "box:lo=-1,hi=1,amp=1e300"])
    def test_solve_answer_beyond_float64(self, capsys, data):
        # e^{ct} = e^700 and sup|phi| = 1e300 fit, their product does not
        spec = json.dumps({"n": 1, "A": [[1]], "b": [0], "c": 10, "T": 80})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["solve", "--spec-json", spec, "--kind", "hom",
                            "--data", data, "--points", "0,70"])
        assert code == 2
        assert "overflows float64" in capsys.readouterr().err


class TestSolveCommand:
    def test_exit_2_beyond_horizon(self):
        spec = dict(SPEC_1D, T=1.0)
        for kind in ("hom", "nonhom"):
            code = run_cli(["solve", "--spec-json", json.dumps(spec), "--kind", kind,
                            "--data", "constant:value=1", "--points", "0,5"])
            assert code == 2

    @pytest.mark.parametrize("kind, data, point", [
        ("nonhom", "constant:value=inf", "0,1"),
        ("hom", "constant:value=nan", "0,1"),
        ("hom", "gaussian:amp=nan", "0,1"),
        ("hom", "gaussian:spread=inf", "0,1"),
        ("hom", "gaussian:center=nan", "0,1"),
        ("hom", "polygauss:spread=1,amp=inf", "0,1"),
        ("hom", "box:lo=nan,hi=1", "0,1"),
        ("hom", "box:lo=-1,hi=1,amp=inf", "0,1"),
        ("hom", "gaussian:spread=1", "inf,1"),
        ("nonhom", "gaussian:spread=1", "nan,1"),
    ])
    def test_exit_2_on_nonfinite_input(self, spec_path, kind, data, point):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["solve", "--spec", spec_path, "--kind", kind, "--data", data,
                            "--points", point])
        assert code == 2

    def test_infinite_box_bound_answers(self, spec_path, capsys):
        # a half-line is a box: u = P(Y <= 1), Y ~ N(0, 2)
        code = run_cli(["solve", "--spec", spec_path, "--kind", "hom",
                        "--data", "box:lo=-inf,hi=1", "--points", "0,1"])
        assert code == 0
        u = float(capsys.readouterr().out.splitlines()[-1].split(",")[2])
        assert u == pytest.approx(0.5 * (1.0 + math.erf(0.5)), rel=1e-10)

    def test_no_negative_zero(self, spec_path, tmp_path):
        assert cli.fmt(-0.0) == "0"
        assert cli.fmt(-1e-300) == "-1e-300"
        out = tmp_path / "z.csv"
        code = run_cli(["solve", "--spec", spec_path, "--kind", "hom",
                        "--data", "constant:value=1", "--points", "0,5", "--out", str(out)])
        assert code == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[3] == "0"

    def test_box_indicator_value(self, spec_path, tmp_path):
        out = tmp_path / "solve.csv"
        code = run_cli(["solve", "--spec", spec_path, "--kind", "hom",
                        "--data", "box:lo=-1,hi=1", "--points", "0,1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "x_1,t,u,du_dx1"
        u = float(lines[2].split(",")[2])
        assert u == pytest.approx(0.5204998778130465, rel=1e-10)

    # FOUND point: heat kernel, Gaussian data of spread 0.3, x = 0.5, t = 2
    FOUND_ARGV = ["solve", "--spec-json", '{"n":1,"A":[[1]],"b":[0],"c":0,"T":8}',
                  "--data", "gaussian:center=0,spread=0.3", "--points", "0.5,2"]

    def test_hom_quad_order_8_has_error_control(self, capsys):
        # the comparison rule sits below order 8, so the first estimate is not 0
        assert run_cli(self.FOUND_ARGV + ["--kind", "hom", "--quad-order", "8"]) == 0
        u = float(capsys.readouterr().out.splitlines()[2].split(",")[2])
        exact = math.sqrt(0.3 / 2.3) * math.exp(-0.25 / 9.2)
        assert abs(u - exact) <= 1e-8 * exact

    def test_nonhom_quad_order_8_is_within_target_or_fails(self, capsys):
        default = 0.98543206238686565
        code = run_cli(self.FOUND_ARGV + ["--kind", "nonhom", "--quad-order", "8"])
        if code == 0:
            u = float(capsys.readouterr().out.splitlines()[2].split(",")[2])
            assert abs(u - default) <= 1e-8 * default
        else:
            assert code == 4

    def test_constant_forcing_columns(self, tmp_path):
        spec = dict(SPEC_1D)
        spec["c"] = -0.5
        out = tmp_path / "nh.csv"
        code = run_cli(["solve", "--spec-json", json.dumps(spec), "--kind", "nonhom",
                        "--data", "constant:value=1", "--points", "0,2;1.5,2",
                        "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        expected = (math.exp(-1.0) - 1.0) / -0.5
        for row in rows:
            assert float(row[2]) == pytest.approx(expected, rel=1e-9)
            assert abs(float(row[3])) < 1e-9

    def test_gaussian_matches_closed_form(self, spec_path, tmp_path):
        out = tmp_path / "g.csv"
        code = run_cli(["solve", "--spec", spec_path, "--kind", "hom",
                        "--data", "gaussian:spread=0.8,center=0.2", "--points", "0.5,1.2",
                        "--out", str(out)])
        assert code == 0
        u = float(out.read_text().splitlines()[2].split(",")[2])
        width = 0.8 + 1.2
        exact = math.sqrt(0.8 / width) * math.exp(-((0.5 - 0.2) ** 2) / (4 * width))
        assert u == pytest.approx(exact, rel=1e-8)

    def test_grid_file_solve_and_malformed(self, spec_path, tmp_path):
        h = 0.02
        xs = np.arange(-8.0, 8.0 + h / 2, h)
        grid_path = tmp_path / "data.pbgr"
        write_grid(grid_path, GridData([xs[0]], [h], np.exp(-(xs**2) / 2)))
        out = tmp_path / "grid.csv"
        # numpy cannot build the order-400 Hermite rule: quadrature failure
        code = run_cli(["solve", "--spec", spec_path, "--kind", "hom",
                        "--data", "gaussian:spread=1", "--points", "0,1",
                        "--quad-order", "400", "--out", str(out)])
        assert code == 4
        code = run_cli(["solve", "--spec", spec_path, "--kind", "hom",
                        "--data", f"grid:{grid_path}", "--points", "0.3,1", "--out", str(out)])
        assert code == 0
        u, du = (float(v) for v in out.read_text().splitlines()[2].split(",")[2:])
        # the exact convolution of the interpolant, at the solver's own contract
        grid = read_grid(grid_path)
        u_ref, grad_ref = grid_reference(HEAT_1D, grid, [grid.values], [0.3], 1.0)
        assert abs(u - u_ref) <= 1e-8 * u_ref
        assert abs(du - grad_ref[0]) <= 1e-8 * max(abs(grad_ref[0]), 1e-3 * grid.sup_norm())
        bad = tmp_path / "bad.pbgr"
        bad.write_bytes(b"WRNG" + bytes(32))
        code = run_cli(["solve", "--spec", spec_path, "--kind", "hom",
                        "--data", f"grid:{bad}", "--points", "0,1"])
        assert code == 2

    def test_jobs_output_identical(self, spec_path, tmp_path):
        argv = ["solve", "--spec", spec_path, "--kind", "hom",
                "--data", "gaussian:spread=1", "--points", "0,1;0.5,1;1,2;-1,0.5"]
        out1, out4 = tmp_path / "serial.csv", tmp_path / "jobs.csv"
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--jobs", "4", "--out", str(out4)]) == 0
        assert numeric_lines(out1) == numeric_lines(out4)

    def test_empty_point_list(self, spec_path, tmp_path):
        out = tmp_path / "empty.csv"
        for kind in ("hom", "nonhom"):
            code = run_cli(["solve", "--spec", spec_path, "--kind", kind,
                            "--data", "constant:value=1", "--points", ";", "--out", str(out)])
            assert code == 0
            lines = out.read_text().splitlines()
            assert len(lines) == 2 and lines[1] == "x_1,t,u,du_dx1"

    def test_points_file(self, spec_path, tmp_path):
        pts = tmp_path / "points.txt"
        pts.write_text("# x, t\n0,1\n0.5,1\n")
        out = tmp_path / "pf.csv"
        code = run_cli(["solve", "--spec", spec_path, "--kind", "hom",
                        "--data", "gaussian:spread=1", "--points-file", str(pts),
                        "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_exit_4_on_unresolvable_data(self, spec_path, tmp_path, capsys):
        # numpy cannot build the order-400 Hermite rule
        code = run_cli(["solve", "--spec", spec_path, "--kind", "hom",
                        "--data", "gaussian:spread=1", "--points", "0,1", "--quad-order", "400"])
        assert code == 4
        # a spike of spread 2e-5 is integrated in the product frame and answers
        code = run_cli(["solve", "--spec", spec_path, "--kind", "hom",
                        "--data", "gaussian:spread=0.00002", "--points", "0,1",
                        "--quad-order", "8"])
        assert code == 0
        u = float(capsys.readouterr().out.splitlines()[-1].split(",")[2])
        exact = math.sqrt(2e-5 / (2e-5 + 1.0))
        assert abs(u - exact) <= 1e-8 * exact


class TestVerifyCommand:
    def test_filtered_suite_passes(self, tmp_path):
        out = tmp_path / "verify.jsonl"
        code = run_cli(["verify", "--check", "duality_hom/n1/*", "--seed", "3",
                        "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["manifest"]["seed"] == 3
        summary = json.loads(lines[-1])["summary"]
        assert summary["failed"] == 0 and summary["total"] == 4
        for line in lines[1:-1]:
            blob = json.loads(line)
            assert set(blob) == {"check", "closed_form", "oracle", "rel_err", "ratio", "passed"}

    def test_perturbation_fails(self, tmp_path):
        out = tmp_path / "verify_bad.jsonl"
        code = run_cli(["verify", "--check", "duality_hom/*", "--perturb", "1e-3",
                        "--out", str(out)])
        assert code == 1
        summary = json.loads(out.read_text().splitlines()[-1])["summary"]
        assert summary["failed"] == summary["total"]

    def test_jobs_output_identical(self, tmp_path):
        out1, out4 = tmp_path / "v1.jsonl", tmp_path / "v4.jsonl"
        assert run_cli(["verify", "--check", "mass/*", "--out", str(out1)]) == 0
        assert run_cli(["verify", "--check", "mass/*", "--jobs", "4", "--out", str(out4)]) == 0
        assert numeric_lines(out1) == numeric_lines(out4)


class TestSweepCommand:
    def test_reference_row_and_time_power_law(self, spec_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--spec", spec_path, "--kind", "hom",
                        "--p-grid", "2,4,inf", "--t-grid", "0.25,1,4", "--max",
                        "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "p,t,k_dir,k_max,t_trend"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 9
        by_key = {(r[0], r[1]): float(r[3]) for r in rows}
        assert by_key[("inf", "1")] == pytest.approx(0.5641895835477563, rel=1e-15)
        # c = 0: each p-column scales as t^{-(n+p)/(2p)} across t rows
        for p_txt, p in (("2", 2.0), ("4", 4.0)):
            ratio = by_key[(p_txt, "4")] / by_key[(p_txt, "1")]
            assert ratio == pytest.approx(4 ** (-(1 + p) / (2 * p)), rel=1e-12)
        trends = [r[4] for r in rows]
        assert trends[0] == "" and set(trends[1:3]) == {"-1"}

    def test_nonhom_sqrt_t_scaling_and_nan_cells(self, spec_path, tmp_path):
        out = tmp_path / "sweep_nh.csv"
        code = run_cli(["sweep", "--spec", spec_path, "--kind", "nonhom",
                        "--p-grid", "2,inf", "--t-grid", "1,4", "--max", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert rows[0][3] == "NaN" and rows[1][3] == "NaN"  # p = 2 <= n + 2
        vals = {r[1]: float(r[3]) for r in rows if r[0] == "inf"}
        assert vals["4"] / vals["1"] == pytest.approx(2.0, rel=1e-12)


class _ThreadCheckedStream(io.StringIO):
    """Text stream that notes whether every write came from the main thread."""

    main_thread_only = True

    def write(self, text):
        if threading.current_thread() is not threading.main_thread():
            self.main_thread_only = False
        return super().write(text)


class TestSweepJobs:
    def test_jobs_output_identical(self, spec_path, tmp_path):
        argv = ["sweep", "--spec", spec_path, "--kind", "hom",
                "--p-grid", "2,4,8,inf", "--t-grid", "0.5,1,2", "--max"]
        out1, out2 = tmp_path / "sw1.csv", tmp_path / "sw2.csv"
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--jobs", "3", "--out", str(out2)]) == 0
        assert numeric_lines(out1) == numeric_lines(out2)


    def test_jobs_warnings_identical(self, monkeypatch):
        argv = ["sweep", "--spec-json", json.dumps(SPEC_2D), "--kind", "nonhom",
                "--p-grid", "3,5,inf", "--t-grid", "0.1,0.5,1", "--dir", "1,0"]
        errs = []
        for jobs in ("1", "2"):
            err = _ThreadCheckedStream()
            monkeypatch.setattr(sys, "stderr", err)
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_cli(argv + ["--jobs", jobs]) == 0
            # a write from a pool thread could land inside another line
            assert err.main_thread_only
            errs.append(err.getvalue())
        assert errs[0].count("warning: p=3.0") == 3
        assert errs[1] == errs[0]


class TestManifestRoundTrip:
    def _rerun(self, out_path, tmp_path, manifest):
        argv = cli.manifest_to_argv(manifest)
        out2 = tmp_path / ("rerun_" + out_path.name)
        assert run_cli(argv + ["--out", str(out2)]) in (0, 1)
        return out2

    def test_constant_round_trip(self, spec_path, tmp_path):
        out = tmp_path / "c.json"
        run_cli(["constant", "--spec", spec_path, "--kind", "hom", "--p", "2",
                 "--t", "0.75", "--dir", "1", "--out", str(out)])
        record = json.loads(out.read_text())
        out2 = self._rerun(out, tmp_path, record["manifest"])
        record2 = json.loads(out2.read_text())
        record.pop("manifest")
        record2.pop("manifest")
        assert record == record2

    def test_solve_round_trip(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["solve", "--spec-json", json.dumps(SPEC_2D), "--kind", "hom",
                 "--data", "gaussian:spread=0.9,center=0.1 -0.2", "--points",
                 "0.3,0.4,1.1;0,0,0.5", "--out", str(out)])
        manifest = read_manifest_from_csv(out)
        out2 = self._rerun(out, tmp_path, manifest)
        assert numeric_lines(out) == numeric_lines(out2)

    def test_sweep_round_trip(self, spec_path, tmp_path):
        out = tmp_path / "w.csv"
        run_cli(["sweep", "--spec", spec_path, "--kind", "nonhom",
                 "--p-grid", "4,6,inf", "--t-grid", "0.5,2", "--dir", "1",
                 "--out", str(out)])
        manifest = read_manifest_from_csv(out)
        out2 = self._rerun(out, tmp_path, manifest)
        assert numeric_lines(out) == numeric_lines(out2)

    def test_verify_round_trip(self, tmp_path):
        out = tmp_path / "v.jsonl"
        run_cli(["verify", "--check", "duality_hom/n1/*", "--seed", "11", "--out", str(out)])
        manifest = json.loads(out.read_text().splitlines()[0])["manifest"]
        out2 = self._rerun(out, tmp_path, manifest)
        assert numeric_lines(out) == numeric_lines(out2)


def test_import_does_not_load_scipy():
    result = run_child(["-c", "import sys, parabound, parabound.cli; "
                        "assert 'scipy' not in sys.modules, 'scipy imported'; "
                        "assert 'concurrent.futures' not in sys.modules, 'pool imported'"])
    assert result.returncode == 0, result.stderr


def test_jobs_start_no_thread(monkeypatch, spec_path, tmp_path):
    # --jobs / jobs= are accepted and recorded, but every path runs serially
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    kernel = FundamentalSolution(ProblemSpec.from_dict(SPEC_1D))
    values = solve_batch(kernel, GaussianBump(center=(0.0,), spread=1.0),
                         [[0.0], [0.5]], [1.0, 2.0], jobs=4)
    assert values.shape == (2,)
    reports = run_checks(default_checks()[:2], jobs=4)
    assert len(reports) == 2
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--spec", spec_path, "--kind", "hom", "--p-grid", "2,inf",
                    "--t-grid", "0.5,1", "--max", "--jobs", "2", "--out", str(out)]) == 0


class TestEnvOverride:
    def test_quad_order_env(self, spec_path, tmp_path):
        out = tmp_path / "env.json"
        env = child_env()
        env["PARABOUND_QUAD_ORDER"] = "32"
        result = run_child(
            ["-m", "parabound", "constant", "--spec", spec_path,
             "--kind", "hom", "--p", "2", "--t", "1", "--dir", "1", "--out", str(out)],
            env=env,
        )
        assert result.returncode == 0
        assert json.loads(out.read_text())["manifest"]["quadrature"]["hermite_order"] == 32

    def test_flag_beats_env(self, spec_path, tmp_path, monkeypatch):
        monkeypatch.setenv("PARABOUND_QUAD_ORDER", "32")
        out = tmp_path / "flag.json"
        run_cli(["constant", "--spec", spec_path, "--kind", "hom", "--p", "2",
                 "--t", "1", "--dir", "1", "--quad-order", "48", "--out", str(out)])
        assert json.loads(out.read_text())["manifest"]["quadrature"]["hermite_order"] == 48


@st.composite
def fuzz_invocation(draw):
    """A random spec, command, exponent and times for one cli.main call."""
    command = draw(st.sampled_from(["constant", "sweep", "solve"]))
    n = 1 if command == "solve" else draw(st.integers(1, 8))
    spec = {
        "n": n,
        "A": np.diag(draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))).tolist(),
        "b": draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)),
        "c": draw(st.floats(-1000.0, 1000.0)),
        "T": draw(st.one_of(st.floats(1e-3, 0.1), st.floats(1.0, 1e3))),
    }
    horizon = spec["T"]
    time = st.one_of(
        st.floats(-1.0, 0.0),
        st.floats(1e-6, 1.0).map(lambda f: f * horizon),
        st.floats(1.0 + 1e-9, 10.0).map(lambda f: f * horizon),
    )
    exponent = st.sampled_from(["0.5", "1", str(n + 2), str(n + 2.01), "1e4", "inf", "nan"])
    kind = draw(st.sampled_from(["hom", "nonhom"]))
    argv = [command, "--spec-json", json.dumps(spec)]
    if command == "constant":
        argv += ["--kind", kind, "--p", draw(exponent), f"--t={draw(time)!r}"]
        argv += draw(st.sampled_from([["--max"], ["--dir", ",".join(["1"] + ["0"] * (n - 1))]]))
    elif command == "sweep":
        argv += ["--kind", kind, "--max",
                 "--p-grid", ",".join(draw(st.lists(exponent, min_size=1, max_size=3))),
                 "--t-grid=" + ",".join(repr(v) for v in draw(st.lists(time, min_size=1,
                                                                       max_size=3)))]
    else:
        data = draw(st.sampled_from(["constant:value=1", "gaussian:spread=0.5,center=0.3",
                                     "box:lo=-1,hi=1"]))
        points = draw(st.lists(st.tuples(st.floats(-5.0, 5.0), time), min_size=1, max_size=2))
        argv += ["--kind", "hom", "--data", data,
                 "--points=" + ";".join(f"{x!r},{t!r}" for x, t in points)]
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=fuzz_invocation())
def test_fuzz_main_exits_with_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []
