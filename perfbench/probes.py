"""Probes installed into treefem from outside: a solver check and a tracer.

Both work by replacing a name in the namespace where treefem looks it up
(``treefem.assemble.bicgstab``, ``treefem.cli.build_mesh``, ...) or a
method on its class, and both restore every replaced name on exit. The
program's source is not touched.

``SolverProbe`` runs in every solve. Around each ``bicgstab`` call it
computes, with its own mat-vecs, the solver target max(abs_tol, rel_tol *
|b - A x0|) and the true residual |b - A x| at exit, so the workload
checks do not have to trust the solver's report. Cost: two sparse
mat-vecs per linear solve.

``Tracer`` runs only in traced solves. It records one span per call of
the public entry point of each module (name, start, end, parent, run id)
and the counts the call's arguments and results expose; spans stay in
memory until the solve ends. ``layer_metrics`` turns them into the
per-layer metrics.

Which end-to-end metric each layer should move, and where:

- ``mesh.faces_s``, ``mesh.number_s``, ``mesh.classify_s``:
  ``time_to_solution_s`` on disk2d_uniform (about 75% of it); about 10%
  of heat_bdf2, so no change predicted there.
- ``mesh.balance_s``: sphere3d_adaptive (about 40%); near 0 on the
  uniform disk2d_uniform.
- ``geometry.closest_s`` and ``assemble.setup_s``: stl3d (about 65%);
  analytic shapes answer closest points by formula in milliseconds.
- ``geometry.kept_s``: stl3d only (about 10%).
- ``assemble.matrix_s``, ``assemble.triplets_computed``:
  ``time_to_solution_s`` and ``peak_rss_mb`` on sphere3d_adaptive; about
  3% of disk2d_uniform.
- ``assemble.rhs_s``, ``vtkio.write_s``: heat_bdf2 (about 45% each) and
  its step times; the steady workloads call neither path.
- ``assemble.iterations`` x ``assemble.s_per_iteration``: disk2d_uniform
  (about 12%); about 1% of sphere3d_adaptive and heat_bdf2.
- ``problem``, ``forms``, ``expr``, ``codegen``: milliseconds; measured
  so that a blow-up shows, no end-to-end change predicted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np


class Patches:
    """Replaced names, restored in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attribute, make_wrapper):
        """Set ``owner.attribute`` to ``make_wrapper(original)``.

        Returns False when the name does not exist, so a probe can report
        which entry point it could not reach.
        """
        original = owner.__dict__.get(attribute) if inspect.isclass(owner) \
            else getattr(owner, attribute, None)
        if original is None:
            return False
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make_wrapper(original))
        return True

    def restore(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# solver check

class SolverProbe:
    """Records (target, reported residual, true residual, iterations)."""

    def __init__(self):
        self.solves = []

    def install(self, patches):
        module = importlib.import_module("treefem.assemble")
        if not patches.replace(module, "bicgstab", self._wrap):
            raise RuntimeError("treefem.assemble.bicgstab not found")

    def _wrap(self, original):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def bicgstab(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            given = bound.arguments
            a, x0 = given["A"], given["x0"]
            b = np.asarray(given["b"], float)
            r0 = b if x0 is None else b - a @ np.asarray(x0, float)
            target = max(given["abs_tol"],
                         given["rel_tol"] * float(np.linalg.norm(r0)))
            x, info = original(*args, **kwargs)
            true = float(np.linalg.norm(b - a @ x))
            self.solves.append((target, float(info.residual), true,
                                int(info.iterations)))
            return x, info
        return bicgstab


# ---------------------------------------------------------------------------
# tracer

class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.counts = {}

    def as_dict(self, run_id):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": run_id, "counts": self.counts}


def _contributions(ir):
    return sum(len(group) for _, _, group in ir.groups())


# Count recorders: (span, args, kwargs, result) -> None, run after the
# span closes so their cost stays out of the layer's time.

def _timed(span, args, kwargs, result):
    span.counts["timed"] = sum(result.timings.values())


def _mesh(span, args, kwargs, mesh):
    span.counts.update(elements=mesh.n_elements, nodes=mesh.n_nodes,
                       hanging=len(mesh.hanging), faces=len(mesh.faces))


def _triangles(span, args, kwargs, geometry):
    if hasattr(geometry, "faces"):
        span.counts["triangles"] = len(geometry.faces)


def _leaves(span, args, kwargs, result):
    span.counts["leaves"] = len(result[0])


def _added(span, args, kwargs, result):
    span.counts["added"] = len(result[0]) - len(args[0])


def _carved(span, args, kwargs, result):
    span.counts.update(classified=len(args[0]), kept=len(result[0]))


def _compiled(span, args, kwargs, ir):
    span.counts["contributions"] = _contributions(ir)


def _reduced(span, args, kwargs, result):
    span.counts["nnz"] = int(result[0].nnz)


def _solved(span, args, kwargs, result):
    span.counts["iterations"] = int(result[1].iterations)


def _file(span, args, kwargs, result):
    span.counts["bytes"] = os.path.getsize(args[0])


def _emitted(span, args, kwargs, paths):
    span.counts["bytes"] = sum(os.path.getsize(p) for p in paths)


def _serialized(span, args, kwargs, text):
    span.counts["bytes"] = len(text.encode())


def _points(span, args, kwargs, result):
    span.counts["points"] = len(args[1])


def _assembly(signature):
    def record(span, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if not bound.arguments["matrix"]:
            span.name = "assemble.rhs"
            return
        span.name = "assemble.matrix"
        mesh = bound.arguments["self"].mesh
        ir = bound.arguments["ir"]
        # computed, not counted: one nc x nc block per element and volume
        # bilinear term, and per face and Dirichlet bilinear term
        span.counts["triplets"] = 4 ** mesh.dimension * (
            mesh.n_elements * len(ir.volume_bilinear)
            + len(mesh.faces) * len(ir.dirichlet_bilinear))
        span.counts["nnz"] = int(result[0].nnz)
    return record


# (module, name, span name, count recorder)
FUNCTIONS = (
    ("treefem.cli", "parse_problem", "problem.parse", None),
    ("treefem.cli", "build_mesh", "mesh.build", _mesh),
    ("treefem.assemble", "build_mesh", "mesh.build", _mesh),
    ("treefem.mesh", "load_geometry", "geometry.load", _triangles),
    ("treefem.mesh", "build_tree", "mesh.tree", _leaves),
    ("treefem.mesh", "classify_elements", "mesh.classify", None),
    ("treefem.mesh", "balance", "mesh.balance", _added),
    ("treefem.mesh", "carve", "mesh.carve", _carved),
    ("treefem.mesh", "surrogate_faces", "mesh.faces", None),
    ("treefem.mesh", "number_nodes", "mesh.number", None),
    ("treefem.assemble", "compile_kernel", "forms.compile", _compiled),
    ("treefem.cli", "compile_kernel", "forms.compile", _compiled),
    ("treefem.assemble", "reduce_system", "assemble.reduce", _reduced),
    ("treefem.assemble", "bicgstab", "assemble.solve", _solved),
    ("treefem.cli", "write_fields_vtk", "vtkio.write", _file),
    ("treefem.cli", "write_diagnostics_csv", "vtkio.write", _file),
    ("treefem.cli", "emit_kernels", "codegen.emit", _emitted),
    ("treefem.cli", "serialize_ir", "codegen.serialize", _serialized),
)

# (module, class, method, span name, count recorder); the recorder of
# Assembler.assemble is made from its signature and renames the span
# to assemble.matrix or assemble.rhs
METHODS = (
    ("treefem.assemble", "Assembler", "__init__", "assemble.setup", None),
    ("treefem.assemble", "Assembler", "assemble", "assemble.assemble",
     _assembly),
) + tuple(
    ("treefem.geometry", cls, method, f"geometry.{method}", _points)
    for cls in ("Ball", "Polyline", "TriSurface")
    for method in ("kept", "closest"))


class Tracer:
    """Spans of one solve, nested by call order on this thread."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.missing = []
        self._stack = []
        self._in_expr = False

    def open(self, name):
        span = Span(name, time.perf_counter(),
                    self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, name, record):
        def make(original):
            if record is _assembly:
                recorder = _assembly(inspect.signature(original))
            else:
                recorder = record

            @functools.wraps(original)
            def traced(*args, **kwargs):
                span = self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(span)
                if recorder is not None:
                    recorder(span, args, kwargs, result)
                return result
            return traced
        return make

    def _step_callback(self, on_step):
        """Marks each transient step with an ``assemble.step`` span."""
        if on_step is None:
            return None

        @functools.wraps(on_step)
        def traced(*args, **kwargs):
            span = self.open("assemble.step")
            try:
                return on_step(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def _run_wrapper(self, original):
        traced = self._wrapper("assemble.run", _timed)(original)

        @functools.wraps(original)
        def run_problem(*args, **kwargs):
            if "on_step" in kwargs:
                kwargs["on_step"] = self._step_callback(kwargs["on_step"])
            return traced(*args, **kwargs)
        return run_problem

    def _expr_wrapper(self, original):
        # eval_scalar recurses through its module global, which is this
        # wrapper: only the outermost call opens a span
        @functools.wraps(original)
        def eval_scalar(expr, env):
            if self._in_expr:
                return original(expr, env)
            self._in_expr = True
            span = self.open("expr.eval")
            try:
                return original(expr, env)
            finally:
                self.close(span)
                self._in_expr = False
        return eval_scalar

    def install(self, patches):
        """Wrap every entry point; names not found go to ``missing``."""
        wrappers = {}
        for module_name, attribute, name, record in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute, None)
            if original is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            # one wrapper per function object, whichever namespace binds it
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrapper(name, record)(original)
            patches.replace(module, attribute,
                            lambda _, w=wrappers[id(original)]: w)
        for module_name, cls_name, method, name, record in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is None or not patches.replace(
                    cls, method, self._wrapper(name, record)):
                self.missing.append(f"{module_name}.{cls_name}.{method}")
        for module_name, attribute, make in (
                ("treefem.cli", "run_problem", self._run_wrapper),
                ("treefem.expr", "eval_scalar", self._expr_wrapper)):
            if not patches.replace(importlib.import_module(module_name),
                                   attribute, make):
                self.missing.append(f"{module_name}.{attribute}")

    def dump(self):
        return [span.as_dict(self.run_id) for span in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics from one solve's spans

# (metric, unit, the span it is derived from, or "span:count" when it
# needs a count only some calls record). A metric whose source never
# appeared on a workload is reported as 0 and listed as absent.
PER_LAYER = (
    ("problem.parse_s", "s", "problem.parse"),
    ("forms.compile_s", "s", "forms.compile"),
    ("forms.compile_calls", "count", "forms.compile"),
    ("forms.contributions", "count", "forms.compile"),
    ("expr.eval_calls", "count", "expr.eval"),
    ("expr.eval_s", "s", "expr.eval"),
    ("geometry.load_s", "s", "geometry.load"),
    ("geometry.closest_s", "s", "geometry.closest"),
    ("geometry.closest_points", "count", "geometry.closest"),
    ("geometry.kept_s", "s", "geometry.kept"),
    ("geometry.kept_points", "count", "geometry.kept"),
    ("geometry.triangles", "count", "geometry.load:triangles"),
    ("mesh.build_s", "s", "mesh.build"),
    ("mesh.tree_s", "s", "mesh.tree"),
    ("mesh.classify_s", "s", "mesh.classify"),
    ("mesh.balance_s", "s", "mesh.balance"),
    ("mesh.carve_s", "s", "mesh.carve"),
    ("mesh.faces_s", "s", "mesh.faces"),
    ("mesh.number_s", "s", "mesh.number"),
    ("mesh.build_self_s", "s", "mesh.build"),
    ("mesh.tree_leaves", "count", "mesh.tree"),
    ("mesh.balance_added", "count", "mesh.balance"),
    ("mesh.carve_keep_ratio", "ratio", "mesh.carve"),
    ("mesh.elements", "count", "mesh.build"),
    ("mesh.nodes", "count", "mesh.build"),
    ("mesh.hanging_nodes", "count", "mesh.build"),
    ("mesh.faces", "count", "mesh.build"),
    ("assemble.setup_s", "s", "assemble.setup"),
    ("assemble.matrix_s", "s", "assemble.matrix"),
    ("assemble.matrix_calls", "count", "assemble.matrix"),
    ("assemble.rhs_calls", "count", "assemble.rhs"),
    ("assemble.triplets_computed", "count", "assemble.matrix"),
    ("assemble.nnz", "count", "assemble.matrix"),
    ("assemble.reduce_s", "s", "assemble.reduce"),
    ("assemble.reduced_nnz", "count", "assemble.reduce"),
    ("assemble.solve_s", "s", "assemble.solve"),
    ("assemble.solve_calls", "count", "assemble.solve"),
    ("assemble.iterations", "count", "assemble.solve"),
    ("assemble.s_per_iteration", "s", "assemble.solve"),
    ("assemble.run_self_s", "s", "assemble.run"),
    ("assemble.untimed_s", "s", "assemble.run"),
    ("vtkio.write_s", "s", "vtkio.write"),
    ("vtkio.files", "count", "vtkio.write"),
    ("vtkio.mb_written", "MB", "vtkio.write"),
    ("vtkio.mb_per_s", "MB/s", "vtkio.write"),
    ("codegen.emit_s", "s", "codegen.emit"),
    ("codegen.serialize_s", "s", "codegen.serialize"),
    ("codegen.kernel_bytes", "count", "codegen.emit"),
    ("codegen.ir_bytes", "count", "codegen.serialize"),
    ("trace.overhead", "ratio", None),
    ("trace.coverage", "ratio", None),
)

# Times that only heat_bdf2 has: on a steady workload they would read 0
# on every run, which is not a measurement, so they are printed with the
# per-layer table but kept out of the result line.
TRANSIENT_ONLY = (
    ("assemble.rhs_s", "s", "assemble.rhs"),
    ("assemble.step_s_p50", "s", "assemble.step"),
    ("assemble.step_s_p90", "s", "assemble.step"),
)


def layer_metrics(spans):
    """Per-layer metrics of one traced solve, except ``trace.overhead``.

    ``spans`` are dicts from ``Tracer.dump``; the first one times the
    run-equivalent call, and its children are the top-level spans. Times
    are summed over a span name's calls.
    """
    by_name, children = {}, {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(i)

    def duration(s):
        return s["end"] - s["start"]

    def seconds(name):
        return sum(duration(s) for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in by_name.get(name, ()))

    def self_seconds(name):
        return sum(duration(s) - sum(duration(spans[c])
                                     for c in children.get(i, ()))
                   for i, s in enumerate(spans) if s["name"] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    mesh = by_name["mesh.build"][-1]["counts"] if "mesh.build" in by_name \
        else {}
    steps = [s["start"] for s in by_name.get("assemble.step", ())]
    gaps = np.diff(steps) if len(steps) > 1 else np.zeros(1)
    iterations = count("assemble.solve", "iterations")
    mb_written = count("vtkio.write", "bytes") / 1e6
    return {
        "problem.parse_s": seconds("problem.parse"),
        "forms.compile_s": seconds("forms.compile"),
        "forms.compile_calls": calls("forms.compile"),
        "forms.contributions": count("forms.compile", "contributions"),
        "expr.eval_calls": calls("expr.eval"),
        "expr.eval_s": seconds("expr.eval"),
        "geometry.load_s": seconds("geometry.load"),
        "geometry.closest_s": seconds("geometry.closest"),
        "geometry.closest_points": count("geometry.closest", "points"),
        "geometry.kept_s": seconds("geometry.kept"),
        "geometry.kept_points": count("geometry.kept", "points"),
        "geometry.triangles": count("geometry.load", "triangles"),
        "mesh.build_s": seconds("mesh.build"),
        "mesh.tree_s": seconds("mesh.tree"),
        "mesh.classify_s": seconds("mesh.classify"),
        "mesh.balance_s": seconds("mesh.balance"),
        "mesh.carve_s": seconds("mesh.carve"),
        "mesh.faces_s": seconds("mesh.faces"),
        "mesh.number_s": seconds("mesh.number"),
        "mesh.build_self_s": self_seconds("mesh.build"),
        "mesh.tree_leaves": count("mesh.tree", "leaves"),
        "mesh.balance_added": count("mesh.balance", "added"),
        "mesh.carve_keep_ratio": ratio(count("mesh.carve", "kept"),
                                       count("mesh.carve", "classified")),
        "mesh.elements": mesh.get("elements", 0),
        "mesh.nodes": mesh.get("nodes", 0),
        "mesh.hanging_nodes": mesh.get("hanging", 0),
        "mesh.faces": mesh.get("faces", 0),
        "assemble.setup_s": seconds("assemble.setup"),
        "assemble.matrix_s": seconds("assemble.matrix"),
        "assemble.matrix_calls": calls("assemble.matrix"),
        "assemble.rhs_s": seconds("assemble.rhs"),
        "assemble.rhs_calls": calls("assemble.rhs"),
        "assemble.triplets_computed": count("assemble.matrix", "triplets"),
        "assemble.nnz": max((s["counts"]["nnz"]
                             for s in by_name.get("assemble.matrix", ())),
                            default=0),
        "assemble.reduce_s": seconds("assemble.reduce"),
        "assemble.reduced_nnz": max((s["counts"]["nnz"]
                                     for s in by_name.get("assemble.reduce",
                                                          ())), default=0),
        "assemble.solve_s": seconds("assemble.solve"),
        "assemble.solve_calls": calls("assemble.solve"),
        "assemble.iterations": iterations,
        "assemble.s_per_iteration": ratio(seconds("assemble.solve"),
                                          iterations),
        "assemble.run_self_s": self_seconds("assemble.run"),
        "assemble.untimed_s": (seconds("assemble.run")
                               - count("assemble.run", "timed")),
        "assemble.step_s_p50": float(np.percentile(gaps, 50)),
        "assemble.step_s_p90": float(np.percentile(gaps, 90)),
        "vtkio.write_s": seconds("vtkio.write"),
        "vtkio.files": calls("vtkio.write"),
        "vtkio.mb_written": mb_written,
        "vtkio.mb_per_s": ratio(mb_written, seconds("vtkio.write")),
        "codegen.emit_s": seconds("codegen.emit"),
        "codegen.serialize_s": seconds("codegen.serialize"),
        "codegen.kernel_bytes": count("codegen.emit", "bytes"),
        "codegen.ir_bytes": count("codegen.serialize", "bytes"),
        "trace.coverage": ratio(sum(duration(spans[i])
                                    for i in children.get(0, ())),
                                duration(spans[0])),
    }


def absent_metrics(spans):
    """Metrics whose source never appeared, with the reason."""
    seen = {s["name"] for s in spans}
    seen.update(f"{s['name']}:{key}" for s in spans for key in s["counts"])
    return {metric: (f"no {source} call on this workload" if ":" not in source
                     else "no {} recorded by {} on this workload".format(
                         *reversed(source.split(":"))))
            for metric, _, source in PER_LAYER + TRANSIENT_ONLY
            if source is not None and source not in seen}
