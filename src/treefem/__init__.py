"""Weak-form compiler and shifted-boundary finite elements on tree meshes."""

from .assemble import (
    Assembler, RunResult, StepRecord, l2_error, nodal_values, run_problem,
)
from .codegen import emit_kernels, serialize_ir
from .errors import (
    Error, ParseError, EvalError, ValidationError, FormError, GeometryError,
    MeshError, EmptyMeshError, AssemblyError, SolverError, CodegenError,
)
from .forms import KernelIR, TimeScheme, compile_kernel
from .mesh import IncompleteMesh, build_mesh
from .problem import ProblemSpec, parse_problem, with_levels
from .solve import bicgstab, reduce_system
from .vtkio import write_diagnostics_csv, write_fields_vtk, write_mesh_vtk

__version__ = "0.1.0"

__all__ = [
    "Assembler", "AssemblyError", "CodegenError", "EmptyMeshError", "Error",
    "EvalError", "FormError", "GeometryError", "IncompleteMesh", "KernelIR",
    "MeshError", "ParseError", "ProblemSpec", "RunResult", "SolverError",
    "StepRecord", "TimeScheme", "ValidationError", "bicgstab",
    "build_mesh", "compile_kernel", "emit_kernels", "l2_error",
    "nodal_values", "parse_problem", "reduce_system",
    "run_problem", "serialize_ir", "with_levels", "write_diagnostics_csv",
    "write_fields_vtk", "write_mesh_vtk",
]
