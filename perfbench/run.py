"""parabound benchmark: four seeded workloads against the public Python API.

Run one workload (the form the benchmark contract uses; the last line of
standard output is one JSON object):

    python3 perfbench/run.py --workload hom_field --seed 1 --seconds 26 --trace 0

or all four, each in its own process, with a summary table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 26

A run draws a fixed list of rounds from the seed and times it in as many
passes (at least MIN_PASSES) as take about `--seconds`. Each op's time is
its fastest over the passes. Everything runs in one process
with no threads (BLAS pinned to one thread); `setup_s` spawns fresh
interpreters one after another. `--trace 1` adds one pass over the same
list with every parabound layer wrapped (see tracing.py), reports the
per-layer metrics and writes the spans to perfbench/out/.

Every op that raises (any exception type), returns NaN or inf, or returns
a value outside its reference tolerance is a failed op. Inputs are never
dropped or re-drawn because they fail.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice

# one process, no threads: OpenBLAS would otherwise start one per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracing import LAYERS, ORACLES, Tracer, import_breakdown  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SPAWNS = 5
MIN_PASSES = 3
TAIL_MAX = 99.9
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units():
    """Name -> unit of every per-layer metric the traced run reports."""
    units = {f"import.{k}_ms": "ms" for k in ("scipy", "numpy", "parabound", "cli")}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_pct"] = "%"
    units.update({
        "mathcore.self_ms": "ms",
        "mathcore.spd_matrix.calls": "count",
        "mathcore.spd_matrix.self_ms": "ms",
        "mathcore.duhamel_time_integral.calls": "count",
        "mathcore.log_gamma.calls": "count",
        "kernel.self_ms": "ms",
        "kernel.construct.calls": "count",
        "kernel.construct.self_ms": "ms",
        "kernel.value.rows": "count",
        "kernel.gradient.rows": "count",
        "quadrature.hermite_tensor.hits": "count",
        "quadrature.hermite_tensor.misses": "count",
        "quadrature.panel_nodes.nodes": "count",
        "sources.eval.calls_per_op": "count",
        "sources.eval.rows_per_op": "count",
        "solver.failed.QuadratureFailure": "count",
        "solver.failed.other": "count",
    })
    for oracle in ORACLES:
        units[f"verify.{oracle}.calls"] = "count"
    units["trace_overhead_frac"] = "ratio"
    return units


def spawn_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env):
    """Median wall time of fresh interpreters running `import parabound`.

    One untimed spawn first writes the bytecode cache, as any earlier CLI
    call would have.
    """
    cmd = [sys.executable, "-c", "import parabound"]
    times = []
    for k in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Passes:
    """A fixed list of groups timed over several passes; one op at a time.

    Every pass runs the same groups and ops in the same order, so the
    attempted and failed counts depend only on the seed and the number of
    rounds. Each op's time is its fastest over the passes: on a shared
    host the same op runs up to a third slower whenever a neighbour
    contends for the core, and the fastest of several tries is the figure
    that repeats from run to run. A result is checked once against its
    reference; later passes that return the same bytes reuse the verdict.
    """

    def __init__(self, groups, verdicts=None):
        self.groups = groups
        self.op_s = []  # per pass: seconds per op, in op order
        self.setup_s = []  # per pass: seconds per group setup
        self.labels = []  # group label of each op (first pass)
        self.failed = Counter()
        self.reasons = []
        # op index -> (fingerprint, failure type or None); a later Passes
        # over the same groups may share it
        self.verdicts = {} if verdicts is None else verdicts

    @property
    def passes(self):
        return len(self.op_s)

    @property
    def attempted(self):
        return sum(len(times) for times in self.op_s)

    def run(self, passes, tracer=None):
        clock = time.perf_counter
        for _ in range(passes):
            gc.collect()
            op_s, setup_s = [], []
            for group in self.groups:
                t0 = clock()
                try:
                    ctx = group.setup()
                except Exception as exc:  # counted as one failed op of the group
                    setup_s.append(0.0)
                    self._record(op_s, "setup", clock() - t0)
                    self.failed[type(exc).__name__] += 1
                    continue
                setup_s.append(clock() - t0)
                for op in group.ops(ctx):
                    k = len(op_s)
                    if tracer is not None:
                        tracer.op_id = k
                    t0 = clock()
                    try:
                        result, err = op.run(ctx), None
                    except Exception as exc:  # every exception type is a failed op
                        result, err = None, type(exc).__name__
                    self._record(op_s, op.group, clock() - t0)
                    self._check(k, op, result, err)
            if tracer is not None:
                tracer.op_id = -1
            self.op_s.append(op_s)
            self.setup_s.append(setup_s)
        return self

    def _record(self, op_s, label, seconds):
        if not self.passes:
            self.labels.append(label)
        op_s.append(seconds)

    def _check(self, k, op, result, err):
        """Failure counts by type; wrong finite results are WrongResult."""
        if err is None:
            try:
                print_ = pickle.dumps(result, protocol=4)
            except Exception:
                print_ = None
            seen = self.verdicts.get(k)
            if print_ is not None and seen is not None and seen[0] == print_:
                err = seen[1]
            elif not np.all(np.isfinite(numbers(result))):
                err = "NonFinite"
            else:
                reason = op.check(result)
                if reason is not None:
                    err = "WrongResult"
                    if len(self.reasons) < 5:
                        self.reasons.append(f"{op.group}: {reason}")
            self.verdicts[k] = (print_, err)
        if err is not None:
            self.failed[err] += 1

    def op_ms(self):
        """Each op's fastest time over the passes, in ms."""
        return np.min(np.array(self.op_s), axis=0) * 1e3

    def pass_s(self):
        """Busy seconds of one pass, every op and setup at its fastest."""
        return float(self.op_ms().sum() / 1e3 + np.min(np.array(self.setup_s), axis=0).sum())


def numbers(result):
    """Every float a result carries, for the finiteness check."""
    if hasattr(result, "closed_form"):  # VerificationReport
        vals = [result.closed_form, result.oracle, result.rel_err, result.ratio]
        return np.array([v for v in vals if v is not None], float)
    if hasattr(result, "value"):  # SharpConstant
        return np.array([result.value], float)
    return np.concatenate([np.ravel(np.asarray(part, float)) for part in result])


def tail(samples_ms):
    """The highest percentile with TAIL_BEYOND samples above it, capped at TAIL_MAX.

    The percentile moves smoothly with the sample count, so runs whose
    counts differ a little report nearly the same percentile.
    """
    n = len(samples_ms)
    q = min(TAIL_MAX, max(50.0, 100.0 * (1.0 - TAIL_BEYOND / n)))
    value = float(np.percentile(samples_ms, q))
    return q, value, int(np.sum(np.asarray(samples_ms) > value))


def workload_metrics(timed):
    op_ms = timed.op_ms()
    n_failed = sum(timed.failed.values())
    q, tail_ms, beyond = tail(op_ms)
    pass_s = timed.pass_s()
    return {
        "ops_per_s": (timed.attempted - n_failed) / timed.passes / pass_s,
        "op_p50_ms": float(np.median(op_ms)),
        "op_tail_ms": tail_ms,
        "fail_frac": n_failed / timed.attempted,
        "attempted": timed.attempted,
        "failed": n_failed,
        "failed_by_type": dict(sorted(timed.failed.items())),
        "wrong_examples": timed.reasons,
        "correct": timed.failed["WrongResult"] == 0,
        "tail_q": q,
        "tail_beyond": beyond,
        "ops": len(op_ms),
        "passes": timed.passes,
        "pass_s": pass_s,
    }


def run_workload(args):
    import parabound as pb

    wl = WORKLOADS[args.workload](pb, args.seed)
    env = spawn_env()
    setup_s = measure_setup(env)
    # untimed warm-up round from a separate stream fills the lazy rule caches
    Passes(next(wl.rounds(stream=1))).run(1)

    groups = [g for r in islice(wl.rounds(), wl.ROUNDS) for g in r]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": setup_s, "rounds": wl.ROUNDS}
    plain = Passes(groups).run(wl.passes_for(args.seconds, MIN_PASSES))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.update(workload_metrics(plain))
    if args.trace:
        # one more pass over the same groups with every layer wrapped
        lru = pb.quadrature.hermite_tensor
        before = lru.cache_info()
        traced = Passes(groups, plain.verdicts)
        tracer = Tracer(pb).install()
        try:
            traced.run(1, tracer=tracer)
        finally:
            tracer.uninstall()
        after = lru.cache_info()
        traced_s = traced.pass_s()
        layers = tracer.layer_metrics(traced.attempted, int(traced_s * 1e9),
                                      (after.hits - before.hits, after.misses - before.misses))
        layers.update(import_breakdown(sys.executable, env, ROOT))
        layers["trace_overhead_frac"] = traced_s / plain.pass_s() - 1.0
        if args.workload == "verify_suite":
            group_ms = Counter()
            for label, ms in zip(traced.labels, traced.op_ms()):
                group_ms[label] += float(ms)
            for group, ms in sorted(group_ms.items()):
                layers[f"verify.check.{group}.ms"] = ms
        report["layers"] = layers
        # the traced pass is checked too; its failures add to the counts
        report["attempted"] += traced.attempted
        report["failed"] += sum(traced.failed.values())
        report["failed_by_type"] = dict(sorted((plain.failed + traced.failed).items()))
        report["wrong_examples"] += traced.reasons
        report["correct"] = report["correct"] and traced.failed["WrongResult"] == 0
        stem = os.path.join(OUT, f"{args.workload}-s{args.seed}")
        tracer.write_spans(stem + "-spans.tsv.gz")
        with open(stem + "-trace.json", "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return report


def print_report(rep):
    print(f"workload {rep['workload']}  seed {rep['seed']}  seconds {rep['seconds']}  "
          f"trace {rep['trace']}")
    print(f"  setup_s       {rep['setup_s']:.6f} s     median of {SETUP_SPAWNS} fresh "
          f"`import parabound` spawns")
    print(f"  ops_per_s     {rep['ops_per_s']:.6f} 1/s   completed ops per busy second of one "
          f"pass ({rep['ops']} ops from {rep['rounds']} rounds, {rep['pass_s']:.3f} s; "
          f"fastest of {rep['passes']} passes per op)")
    print(f"  op_p50_ms     {rep['op_p50_ms']:.6f} ms    over the ops' fastest times")
    print(f"  op_tail_ms    {rep['op_tail_ms']:.6f} ms    p{rep['tail_q']:.2f}, "
          f"{rep['tail_beyond']} samples beyond it")
    print(f"  fail_frac     {rep['fail_frac']:.6f}       attempted {rep['attempted']}, "
          f"failed {rep['failed']} {rep['failed_by_type']}")
    print(f"  peak_rss_mb   {rep['peak_rss_mb']:.3f} MB")
    for reason in rep["wrong_examples"]:
        print(f"  wrong result: {reason}")
    if "layers" in rep:
        for name, value in rep["layers"].items():
            print(f"  {name:44s} {value:.6g}")


def result_line(rep):
    if rep["trace"]:
        units = per_layer_units()
        metrics = {k: {"value": rep["layers"][k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": rep[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return json.dumps({"correct": bool(rep["correct"]), "attempted": int(rep["attempted"]),
                       "failed": int(rep["failed"]), "metrics": metrics})


def run_all(args):
    """Each workload in its own interpreter, so peak_rss_mb is its own."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append((name, json.loads(lines[-1])))
    print()
    for name, res in rows:
        shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()
                          if not args.trace)
        print(f"{name:16s} correct {res['correct']}  attempted {res['attempted']}  "
              f"failed {res['failed']}  fail_frac {res['failed'] / res['attempted']:.6f}  {shown}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "parabound", "__init__.py")):
        sys.stderr.write(f"parabound sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    rep = run_workload(args)
    print_report(rep)
    print(result_line(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
