"""Span tracing of the parabound layers, driven entirely from outside the package.

`Tracer.install()` replaces every public function of the traced modules by
a recording wrapper, in every module namespace that bound it by name
(`solver` and `verify` import `hermite_tensor`, `panel_nodes` and the solver
functions with `from ... import`), and patches class methods such as
`FundamentalSolution.__init__`/`value`/`gradient` and each source's
`__call__` on the class. `uninstall()` puts every original back.

Spans (name, start, end, parent, op id) are kept in memory and written out
at the end. A function's self time is its duration minus the time its
direct child spans cover; a layer's self time is the sum of the self times
of its spans, so a nested call into the same layer counts under its
outermost span. Layer call counts likewise count only spans whose parent
lies in another layer.
"""

from __future__ import annotations

import gzip
import os
import re
import subprocess
import time
from functools import update_wrapper

import numpy as np

LAYERS = ("mathcore", "kernel", "quadrature", "sources", "sharp_constants", "solver", "verify")

# Oracles whose calls and self time the traced run reports one by one.
ORACLES = (
    "mass_quadrature_oracle",
    "kernel_grad_norm_oracle",
    "spacetime_grad_norm_oracle",
    "attainment_ratio_hom",
    "attainment_ratio_nonhom",
    "max_principle_check",
    "pde_residual_order",
    "sphere_surface_oracle",
)

_KERNEL_METHODS = ("__init__", "value", "gradient", "whitened", "log_prefactor",
                   "fourier_symbol", "total_mass")


def _point_rows(args, kwargs):
    """Rows of the point batch passed as the first argument after self."""
    pts = args[1] if len(args) > 1 else kwargs.get("x", kwargs.get("pts"))
    shape = np.shape(pts)
    return 1 if len(shape) <= 1 else int(shape[0])


def _returned_nodes(out):
    return int(np.shape(out[0])[0])


class Tracer:
    """Records spans at the boundaries of the parabound modules."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.layer_of: list[str] = []
        # span rows: [name index, start ns, end ns, parent span, op id, exception name, rows]
        self.spans: list[list] = []
        self.stack = [-1]
        self.op_id = -1
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _name_index(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str, rows=None, rows_out=None):
        idx = self._name_index(name, layer)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter_ns, self

        def wrapper(*args, **kwargs):
            span = [idx, clock(), 0, stack[-1], tracer.op_id, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if rows is not None:
                span[6] = rows(args, kwargs)
            elif rows_out is not None:
                span[6] = rows_out(out)
            return out

        try:
            update_wrapper(wrapper, fn)
        except AttributeError:
            pass
        return wrapper

    def install(self):
        pkg = self.package
        modules = [pkg] + [getattr(pkg, layer) for layer in LAYERS]
        # public functions, replaced wherever they are bound by name
        for layer in LAYERS:
            home = getattr(pkg, layer)
            for name, obj in list(vars(home).items()):
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != home.__name__):
                    continue
                rows_out = _returned_nodes if name == "panel_nodes" else None
                wrapper = self._wrap(obj, f"{layer}.{name}", layer, rows_out=rows_out)
                for mod in modules:
                    ns = vars(mod)
                    for bound, value in list(ns.items()):
                        if value is obj:
                            self._restore.append((ns, bound, obj))
                            ns[bound] = wrapper
        # methods patched on their classes
        kernel_cls = pkg.kernel.FundamentalSolution
        for meth in _KERNEL_METHODS:
            label = "construct" if meth == "__init__" else meth
            rows = _point_rows if meth in ("value", "gradient") else None
            self._patch_method(kernel_cls, meth, f"kernel.{label}", "kernel", rows)
        self._patch_method(pkg.mathcore.SpdMatrix, "__init__", "mathcore.spd_matrix", "mathcore")
        src = pkg.sources
        for obj in vars(src).values():
            if (isinstance(obj, type) and obj.__module__ == src.__name__
                    and issubclass(obj, (src.SourceFunction, src.SpaceTimeSource))
                    and "__call__" in vars(obj)):
                self._patch_method(obj, "__call__", f"sources.eval.{obj.__name__}",
                                   "sources", _point_rows)
        return self

    def _patch_method(self, cls, meth, name, layer, rows=None):
        original = vars(cls)[meth]
        self._restore.append((cls, meth, original))
        setattr(cls, meth, self._wrap(original, name, layer, rows=rows))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """Spans as numpy columns plus derived self times (ns)."""
        m = len(self.spans)
        idx = np.fromiter((s[0] for s in self.spans), dtype=np.int64, count=m)
        start = np.fromiter((s[1] for s in self.spans), dtype=np.int64, count=m)
        end = np.fromiter((s[2] for s in self.spans), dtype=np.int64, count=m)
        parent = np.fromiter((s[3] for s in self.spans), dtype=np.int64, count=m)
        dur = end - start
        covered = np.zeros(m, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        layer_codes = {layer: k for k, layer in enumerate(LAYERS)}
        layer_idx = np.array([layer_codes[l] for l in self.layer_of], dtype=np.int64)
        span_layer = layer_idx[idx] if m else np.zeros(0, dtype=np.int64)
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
        outermost = parent_layer != span_layer
        return {"idx": idx, "start": start, "self": dur - covered, "layer": span_layer,
                "outermost": outermost}

    def layer_metrics(self, ops: int, loop_ns: int, cache_delta: tuple) -> dict:
        """Per-layer metrics of the traced phase; every value is a plain number."""
        a = self.arrays()
        names = np.array(self.names, dtype=object)
        by_name_calls = np.bincount(a["idx"], minlength=len(self.names))
        by_name_self = np.bincount(a["idx"], weights=a["self"], minlength=len(self.names))
        rows = np.array([s[6] or 0 for s in self.spans], dtype=np.int64)

        def fn_calls(name):
            return int(by_name_calls[names == name].sum())

        def fn_self_ms(name):
            return float(by_name_self[names == name].sum()) / 1e6

        def prefix_mask(prefix):
            return np.array([n.startswith(prefix) for n in names], dtype=bool)[a["idx"]]

        out = {}
        for k, layer in enumerate(LAYERS):
            in_layer = a["layer"] == k
            self_ns = float(a["self"][in_layer].sum())
            out[f"{layer}.self_ms"] = self_ns / 1e6
            out[f"{layer}.self_pct"] = 100.0 * self_ns / max(loop_ns, 1)
            out[f"{layer}.calls"] = int((in_layer & a["outermost"]).sum())
        out["mathcore.spd_matrix.calls"] = fn_calls("mathcore.spd_matrix")
        out["mathcore.spd_matrix.self_ms"] = fn_self_ms("mathcore.spd_matrix")
        out["mathcore.duhamel_time_integral.calls"] = fn_calls("mathcore.duhamel_time_integral")
        out["mathcore.duhamel_time_integral.self_ms"] = fn_self_ms("mathcore.duhamel_time_integral")
        out["mathcore.log_gamma.calls"] = fn_calls("mathcore.log_gamma")
        out["kernel.construct.calls"] = fn_calls("kernel.construct")
        out["kernel.construct.self_ms"] = fn_self_ms("kernel.construct")
        # rows of calls from outside the kernel (gradient calls value itself)
        for meth in ("value", "gradient"):
            mine = (a["idx"] == self.names.index(f"kernel.{meth}")) & a["outermost"]
            out[f"kernel.{meth}.rows"] = int(rows[mine].sum())
        out["quadrature.hermite_tensor.hits"] = int(cache_delta[0])
        out["quadrature.hermite_tensor.misses"] = int(cache_delta[1])
        out["quadrature.hermite_tensor.self_ms"] = fn_self_ms("quadrature.hermite_tensor")
        out["quadrature.panel_nodes.nodes"] = int(
            rows[a["idx"] == self.names.index("quadrature.panel_nodes")].sum())
        # a source evaluation is one outermost call into the sources layer
        evals = prefix_mask("sources.eval.") & a["outermost"]
        per_op = max(ops, 1)
        out["sources.eval.calls_per_op"] = float(evals.sum()) / per_op
        out["sources.eval.rows_per_op"] = float(rows[evals].sum()) / per_op
        solver_top = (a["layer"] == LAYERS.index("solver")) & a["outermost"]
        failed = {}
        for k in np.flatnonzero(solver_top):
            exc = self.spans[k][5]
            if exc is not None:
                failed[exc] = failed.get(exc, 0) + 1
        out["solver.failed.QuadratureFailure"] = failed.get("QuadratureFailure", 0)
        out["solver.failed.other"] = sum(failed.values()) - failed.get("QuadratureFailure", 0)
        for exc, count in sorted(failed.items()):
            out[f"solver.failed.{exc}"] = count
        for oracle in ORACLES:
            out[f"verify.{oracle}.calls"] = fn_calls(f"verify.{oracle}")
            out[f"verify.{oracle}.self_ms"] = fn_self_ms(f"verify.{oracle}")
        return out

    def write_spans(self, path: str):
        """Write every span as a tab-separated row, times relative to the first."""
        a = self.arrays()
        t0 = int(a["start"].min()) if len(self.spans) else 0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\texception\trows\n")
            for k, s in enumerate(self.spans):
                fh.write(f"{k}\t{self.names[s[0]]}\t{s[1] - t0}\t{s[2] - t0}\t{s[3]}\t"
                         f"{s[4]}\t{s[5] or ''}\t{'' if s[6] is None else s[6]}\n")


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")


def import_breakdown(python: str, env: dict, cwd: str) -> dict:
    """Split the cold `import parabound` (plus `parabound.cli`) by package.

    Every module's self time goes to the first numpy or scipy module on its
    import chain, or else to parabound; `parabound.cli` and what only it
    imports go to cli. Times are in ms.
    """
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import parabound, parabound.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
    )
    stack = []  # (depth, name, self_us, children) of lines not yet given a parent
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        node = (len(m.group(3)) // 2, m.group(4), int(m.group(1)), [])
        # the report is post-order: deeper lines printed before are children
        while stack and stack[-1][0] > node[0]:
            node[3].append(stack.pop())
        stack.append(node)
    totals = {"scipy": 0, "numpy": 0, "parabound": 0, "cli": 0}

    def walk(node, bucket):
        name = node[1]
        if bucket in ("parabound", "cli"):
            top = name.split(".")[0]
            if top in ("numpy", "scipy"):
                bucket = top
        totals[bucket] += node[2]
        for child in node[3]:
            walk(child, bucket)

    for root in stack:
        if root[1] == "parabound":
            walk(root, "parabound")
        elif root[1] == "parabound.cli":
            walk(root, "cli")
    return {f"import.{k}_ms": v / 1e3 for k, v in totals.items()}

