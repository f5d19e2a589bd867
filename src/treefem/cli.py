"""Command-line driver: solve, convergence study, code emission, mesh export.

One executable with four subcommands:

    treefem run <script> [--out DIR] [--levels L] [--exact EXPR]
    treefem converge <script> --levels 5-8 --exact EXPR [--out CSV]
    treefem codegen <script> [--template FILE] [--out DIR]
    treefem mesh <script> [--out FILE.vtk] [--levels L]

Command-line flags override script values; a level flag re-levels both the
base grid and the geometry boundary so sweeps change nothing else. All
file outputs are deterministic: repeated invocations produce identical
bytes (floats print with 17 significant digits; wall times stay on stdout).

Exit codes: 0 success, 2 invalid script/template input, 3 empty carved
mesh, 1 any other pipeline failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import expr as ex
from .assemble import l2_error, run_problem
from .codegen import emit_kernels, serialize_ir
from .errors import (
    CodegenError, EmptyMeshError, Error, FormError, ParseError,
    ValidationError,
)
from .forms import compile_kernel
from .mesh import build_mesh
from .problem import parse_problem, with_levels
from .vtkio import _fmt, write_diagnostics_csv, write_fields_vtk, write_mesh_vtk

__all__ = ["ConvergenceReport", "ConvergenceRow", "cmd_codegen",
           "cmd_converge", "cmd_mesh", "cmd_run", "main"]


@dataclass(frozen=True)
class ConvergenceRow:
    level: int
    h: float
    ndof: int
    l2: float
    iterations: int
    seconds: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level errors plus the fitted log-log slope L2 ~ constant * h^slope."""
    rows: tuple
    slope: float
    constant: float


def _load_spec(script_path):
    path = Path(script_path)
    spec = parse_problem(path.read_text())
    return spec, str(path.parent)


def _coarse_h(spec, level):
    extent = max(hi - lo for lo, hi in zip(spec.domain_min, spec.domain_max))
    return extent / float(1 << level)


def _parse_exact(text):
    return ex.parse(text) if isinstance(text, str) else text


def _print_timings(timings):
    parts = ", ".join(f"{phase} {timings[phase]:.2f} s"
                      for phase in ("mesh", "assemble", "solve", "write"))
    print(f"wall time: {parts}")


def cmd_run(script_path, output_dir=".", level=None, exact=None):
    """Solve the script's problem; write VTK fields and a diagnostics CSV.

    A steady run writes ``solution.vtk``, a transient one
    ``solution_NNNNNN.vtk`` after every step.
    """
    spec, base_dir = _load_spec(script_path)
    if level is not None:
        spec = with_levels(spec, level)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    write_seconds = 0.0
    tick = time.perf_counter()
    mesh = build_mesh(spec, base_dir)
    mesh_seconds = time.perf_counter() - tick

    # validation leaves only fields the weak form names, and it solves one
    def write(path, values):
        nonlocal write_seconds
        tick = time.perf_counter()
        write_fields_vtk(path, mesh, {spec.variables[0]: values})
        write_seconds += time.perf_counter() - tick
        written.append(path)

    def on_step(step, _t, values):
        write(out / f"solution_{step:06d}.vtk", values)

    result = run_problem(spec, base_dir=base_dir, mesh=mesh, on_step=on_step)
    result.timings["mesh"] += mesh_seconds
    if result.ir.steady:
        write(out / "solution.vtk", result.values)
    csv_path = out / "diagnostics.csv"
    tick = time.perf_counter()
    write_diagnostics_csv(csv_path, result.steps)
    write_seconds += time.perf_counter() - tick

    print(f"ndof: {result.ndof}")
    print(f"steps: {len(result.steps)}")
    print(f"final residual: {result.steps[-1].residual:.6e}")
    if exact is not None:
        err = l2_error(result.mesh, result.values, _parse_exact(exact),
                       t=result.steps[-1].time,
                       coefficients=spec.coefficients)
        print(f"L2 error vs exact: {err:.6e}")
    _print_timings({**result.timings, "write": write_seconds})
    print(f"wrote {len(written)} VTK file(s) and {csv_path}")
    return 0


def cmd_converge(script_path, levels, exact, output_csv="convergence.csv"):
    """Re-run the problem at uniform levels; fit the L2 convergence slope.

    The CSV is flushed after every level, so a failing level leaves the
    completed rows on disk before the error propagates.
    """
    spec, base_dir = _load_spec(script_path)
    exact = _parse_exact(exact)
    rows = []
    with open(output_csv, "w") as handle:
        handle.write("h,L2,level,ndof,iterations\n")
        handle.flush()
        for level in levels:
            tick = time.perf_counter()
            result = run_problem(with_levels(spec, level), base_dir=base_dir)
            seconds = time.perf_counter() - tick
            err = l2_error(result.mesh, result.values, exact,
                           t=result.steps[-1].time,
                           coefficients=spec.coefficients)
            iterations = sum(s.iterations for s in result.steps)
            row = ConvergenceRow(level, _coarse_h(spec, level), result.ndof,
                                 err, iterations, seconds)
            rows.append(row)
            handle.write(f"{_fmt(row.h)},{_fmt(row.l2)},{row.level},"
                         f"{row.ndof},{row.iterations}\n")
            handle.flush()
            print(f"level {row.level}: h={row.h:.6g} ndof={row.ndof} "
                  f"L2={row.l2:.6e} iterations={row.iterations} "
                  f"({row.seconds:.2f} s)")

    slope, constant = _fit_slope(rows)
    if math.isnan(slope):
        print("warning: L2 errors are at roundoff; slope undefined")
    else:
        print(f"fitted slope: {slope:.3f} (reference constant "
              f"{constant:.4g})")
    return ConvergenceReport(rows=tuple(rows), slope=slope, constant=constant)


def _fit_slope(rows):
    # an error at iterative-solver roundoff corrupts the log-log fit
    if len(rows) < 2 or min(row.l2 for row in rows) < 1e-10:
        return float("nan"), float("nan")
    slope, intercept = np.polyfit(np.log([row.h for row in rows]),
                                  np.log([row.l2 for row in rows]), 1)
    return float(slope), float(np.exp(intercept))


def cmd_codegen(script_path, template=None, out_dir="."):
    """Compile the weak form and write kernel source plus the IR document."""
    spec, _ = _load_spec(script_path)
    ir = compile_kernel(spec)
    out = Path(out_dir)
    written = emit_kernels(ir, template=template, out_dir=out)
    ir_path = out / "kernel_ir.txt"
    ir_path.write_text(serialize_ir(ir))
    written.append(ir_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_mesh(script_path, out_vtk="mesh.vtk", level=None):
    """Build the carved mesh and export it; print its shape counts."""
    spec, base_dir = _load_spec(script_path)
    if level is not None:
        spec = with_levels(spec, level)
    mesh = build_mesh(spec, base_dir)
    write_mesh_vtk(out_vtk, mesh)
    print(f"elements: {mesh.n_elements}")
    print(f"nodes: {mesh.n_nodes}")
    print(f"hanging nodes: {mesh.n_nodes - mesh.n_free}")
    print(f"surrogate faces: {len(mesh.faces)}")
    print(f"wrote {out_vtk}")
    return 0


def _parse_levels(text):
    levels = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            span = range(int(lo), int(hi) + 1)
            if not span:
                raise ValueError(text)
            levels.extend(span)
        else:
            levels.append(int(part))
    if any(lv < 1 for lv in levels):
        raise ValueError(text)
    return levels


def _single_level(parser, args):
    if args.levels is None:
        return None
    if len(args.levels) != 1:
        parser.error(f"{args.command} takes a single --levels value")
    return args.levels[0]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="treefem",
        description="Solve weak-form problems on carved tree meshes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def levels_arg(text):
        try:
            return _parse_levels(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad level list '{text}' (use forms like 6 or 5-8 or 5,6,8)")

    run = sub.add_parser("run", help="solve and export fields")
    run.add_argument("script")
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument("--levels", type=levels_arg, default=None,
                     help="override the refinement level")
    run.add_argument("--exact", default=None,
                     help="exact solution expression; prints the L2 error")

    conv = sub.add_parser("converge", help="mesh convergence study")
    conv.add_argument("script")
    conv.add_argument("--levels", type=levels_arg, required=True,
                      help="levels to sweep, e.g. 5-8")
    conv.add_argument("--exact", required=True,
                      help="exact solution expression")
    conv.add_argument("--out", default="convergence.csv",
                      help="output CSV path")

    code = sub.add_parser("codegen", help="emit kernel source text")
    code.add_argument("script")
    code.add_argument("--template", default=None,
                      help="kernel template file (default: packaged)")
    code.add_argument("--out", default=".", help="output directory")

    mesh = sub.add_parser("mesh", help="build and export the mesh")
    mesh.add_argument("script")
    mesh.add_argument("--out", default="mesh.vtk", help="output VTK path")
    mesh.add_argument("--levels", type=levels_arg, default=None,
                      help="override the refinement level")
    return parser


def _exit_code(err):
    if isinstance(err, (ParseError, ValidationError, FormError,
                        CodegenError)):
        return 2
    if isinstance(err, EmptyMeshError):
        return 3
    return 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.script, args.out,
                           level=_single_level(parser, args),
                           exact=args.exact)
        if args.command == "converge":
            cmd_converge(args.script, args.levels, args.exact, args.out)
            return 0
        if args.command == "codegen":
            return cmd_codegen(args.script, template=args.template,
                               out_dir=args.out)
        if args.command == "mesh":
            return cmd_mesh(args.script, args.out,
                            level=_single_level(parser, args))
        raise AssertionError(args.command)
    except Error as err:
        print(f"error: {err}", file=sys.stderr)
        return _exit_code(err)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
