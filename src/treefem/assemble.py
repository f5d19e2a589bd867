"""Batched assembly of compiled kernels over a tree mesh, and the solver.

Cells and boundary faces share one batch record, built once at set-up:
the owners' connectivity, origins and edge lengths ``h``, the reference
quadrature points with their basis tables, and the physical weights.
Cells are batched by level, so a batch shares one size, one set of
weights and one table; faces by (level, axis, orientation, slice, kind,
geometry). A face batch also holds its true-boundary points and its fixed
surface data: for geometry faces the closest point on the true surface,
the displacement to it and the true normal; for wall faces a zero
displacement and the face normal itself.

Per assembly, each batch gets one evaluation environment at its physical
points (computed from the origins). Its weighted scalars are summed per
(test, trial) pair of basis tables, and one matrix product of the pair
sums gives one block ``ke`` of shape ``(n_e, nc, nc)``; the linear ones,
summed per test table, one ``be`` of shape ``(n_e, nc)``. The generated
C++ kernels, too, add all terms into one ``Ae``/``be``. Sums that are
constant over the batch give one cell block, broadcast. A cell batch
binds the history fields. A face batch routes each point through the
ordered boundary-region predicates, evaluated at the true boundary
point: the first that holds claims it, and its condition decides which
surface blocks apply and supplies the boundary value. When no surface
linear scalar, region predicate or boundary value reads ``t``, directly
or through the coefficients it names, a face batch's ``be`` is set-up
work: it is kept per kernel and batch from the first assembly that
computes it, matrix or not, and later right-hand-side-only assemblies
skip the batch, routing included. All blocks go through one scatter: one
COO triplet list summed into CSR by one ``tocsr()``, and one
``np.bincount``, which a kept ``be`` feeds too.

The constrained system is reduced with the mesh's hanging-node expansion
``C`` (solve ``CᵀAC y = Cᵀb``, then expand ``u = Cy``) and solved with a
Jacobi-preconditioned BiCGStab.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import expr as ex
from .errors import AssemblyError, SolverError
from .forms import Region, compile_kernel
from .kernel import basis_table, face_reference_points, tensor_rule
from .mesh import KIND_GEOMETRY, build_mesh
from .problem import BCKind, TimeScheme

__all__ = ["Assembler", "SolveInfo", "StepRecord", "RunResult",
           "bicgstab", "reduce_system", "run_problem", "nodal_values",
           "l2_error"]

# Gauss points per axis: assembly (cells and faces), and l2_error
_ASSEMBLY_QUAD, _ERROR_QUAD = 2, 3

# surface region and boundary-value name of each boundary-condition kind
_SURFACE = {BCKind.DIRICHLET: (Region.DIRICHLET_SURFACE, "special:gd"),
            BCKind.NEUMANN: (Region.NEUMANN_SURFACE, "special:gn")}
_SURFACE_REGIONS = tuple(region for region, _ in _SURFACE.values())


@dataclass
class SolveInfo:
    iterations: int
    residual: float
    history: list


@dataclass
class StepRecord:
    step: int
    time: float
    iterations: int
    residual: float


@dataclass
class RunResult:
    spec: object
    mesh: object
    ir: object
    values: np.ndarray          # nodal field, constraint-consistent
    steps: list
    timings: dict

    @property
    def ndof(self):
        return self.mesh.n_free


def nodal_values(mesh, value, t=0.0, coefficients=None):
    """Evaluate a number or expression at every mesh node."""
    if isinstance(value, (int, float)):
        return np.full(mesh.n_nodes, float(value))
    out = ex.eval_scalar(value, ex.point_env(mesh.node_coords(), t, coefficients))
    return np.broadcast_to(np.asarray(out, float), (mesh.n_nodes,)).copy()


@dataclass
class _Batch:
    """Quadrature data of one batch of same-level cells or faces."""
    conn: np.ndarray            # (n_e, nc) owner connectivity
    points: np.ndarray          # (nqp, dim) reference points in the owner
    values: np.ndarray          # (nqp, nc) basis values
    grads: np.ndarray           # (nqp, nc, dim) reference basis gradients
    origin: np.ndarray          # (n_e, dim) owner origins
    h: np.ndarray               # (dim,) owner edge lengths
    weights: np.ndarray         # (nqp,) physical weights
    x_true: np.ndarray = None   # faces: (n_e, nqp, dim) true-boundary points
    surface: dict = None        # faces: fixed surface names and values

    def coords(self):
        """Physical quadrature points, ``(n_e, nqp, dim)``."""
        return (self.origin[:, None, :]
                + self.points[None, :, :] * self.h[None, None, :])


def _batch(mesh, owners, points, weights, axes):
    """Batch record of the same-level cells ``owners`` at the reference
    ``points``; the reference ``weights`` scale with the edge lengths
    along ``axes``."""
    h = mesh.extent / float(1 << int(mesh.levels[owners[0]]))
    values, grads = basis_table(points, mesh.dimension)
    return _Batch(conn=mesh.elem_nodes[owners], points=points, values=values,
                  grads=grads, origin=mesh.element_origin(owners), h=h,
                  weights=weights * np.prod(h[list(axes)]))


def _cell_batches(mesh, rule):
    """One batch per cell level, with the tensor ``rule``."""
    return [_batch(mesh, np.nonzero(mesh.levels == level)[0], rule.points,
                   rule.weights, range(mesh.dimension))
            for level in np.unique(mesh.levels)]


def _face_batches(mesh):
    """One batch per (level, axis, orientation, kind, geometry, slice) of
    surrogate faces, with its true-boundary points and surface data."""
    f = mesh.faces
    dim = mesh.dimension
    rule = tensor_rule(_ASSEMBLY_QUAD, dim - 1)
    keys = np.column_stack([mesh.levels[f.element], f.axis, f.orient, f.kind,
                            f.geom, f.slices.astype(np.int64)])
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    batches = []
    for b, key in enumerate(uniq):
        rows = np.nonzero(inverse == b)[0]
        _, axis, orient, kind, geom = (int(v) for v in key[:5])
        codes = tuple(int(v) for v in key[5:])
        points, fraction = face_reference_points(rule.points, axis, orient,
                                                 codes, dim)
        batch = _batch(mesh, f.element[rows], points, rule.weights * fraction,
                       [d for d in range(dim) if d != axis])
        x_surr = batch.coords()
        n_tilde = np.zeros(dim)
        n_tilde[axis] = 1.0 if orient == 1 else -1.0
        if kind == KIND_GEOMETRY:
            closest = mesh.geometries[geom].closest(x_surr.reshape(-1, dim))
            batch.x_true = closest.points.reshape(x_surr.shape)
            n_true = closest.normals.reshape(x_surr.shape)
        else:
            batch.x_true = x_surr
            n_true = np.broadcast_to(n_tilde, x_surr.shape)
        dvec = batch.x_true - x_surr
        batch.surface = {"special:h": float(batch.h.max())}
        for d in range(dim):
            batch.surface[f"special:nt:{d}"] = float(n_tilde[d])
            batch.surface[f"special:ntrue:{d}"] = n_true[..., d]
            batch.surface[f"special:d:{d}"] = dvec[..., d]
        batches.append(batch)
    return batches


class Assembler:
    """Caches mesh batches; assembles any kernel IR for this problem.

    Cells and faces use a 2-point Gauss rule per axis. Batches are
    assembled one after another in a fixed order, so repeated assemblies
    give bit-identical ``A`` and ``b``. A kernel whose face right-hand
    side cannot read ``t`` keeps each face batch's ``be`` from the first
    assembly that computes it.
    """

    def __init__(self, mesh, spec):
        self.mesh = mesh
        self.spec = spec
        self.cell_batches = _cell_batches(
            mesh, tensor_rule(_ASSEMBLY_QUAD, mesh.dimension))
        self.face_batches = _face_batches(mesh)
        # id(kernel) -> (kernel, {id(face batch): be}), or (kernel, None)
        # when its face be reads t; holding the kernel keeps its id unique
        self._face_rhs = {}

    @staticmethod
    def _integrate(groups, env, weights, batch):
        """Element blocks ``(ke, be)``, ``(n_e, nc, nc)`` and ``(n_e, nc)``,
        of the ``groups`` whose region has quadrature weights, ``(nqp,)``
        or ``(n_e, nqp)``, in ``weights``; ``None`` stands for no block.

        A slot is one basis table: ``N`` (key ``None``) or ``dN`` along
        axis ``k`` (key ``k``). ``ke`` is one product of the P slot-pair
        sums ``(n_e or 1, nqp·P)`` with the pairs' outer products
        ``(nqp·P, nc²)``, ``be`` one contraction per test slot. Sums that
        are all ``(nqp,)`` give one cell block for the batch, broadcast.
        """
        sums = {True: {}, False: {}}
        for region, bilinear, contributions in groups:
            if region not in weights:
                continue
            for c in contributions:
                w = ex.eval_scalar(c.scalar, env) * weights[region]
                key = (c.test.axis, c.trial.axis) if bilinear else c.test.axis
                total = sums[bilinear].get(key)
                sums[bilinear][key] = w if total is None else total + w
        n_e, nc = batch.conn.shape
        tables = {k: batch.grads[:, :, k] / h for k, h in enumerate(batch.h)}
        tables[None] = batch.values
        ke = be = None
        if sums[True]:
            pairs = np.stack(np.broadcast_arrays(*sums[True].values()), -1)
            outer = np.stack([tables[a][:, :, None] * tables[b][:, None, :]
                              for a, b in sums[True]], 1).reshape(-1, nc * nc)
            ke = np.broadcast_to((pairs.reshape(-1, len(outer)) @ outer
                                  ).reshape(-1, nc, nc), (n_e, nc, nc))
        for axis, w in sums[False].items():
            block = np.einsum("...q,qi->...i", w, tables[axis])
            be = block if be is None else be + block
        if be is not None:
            be = np.broadcast_to(be, (n_e, nc))
        return ke, be

    def _route_regions(self, batch, t, unknown):
        """Mask and boundary value per condition kind of a face batch's
        points; the first region predicate that holds claims a point."""
        shape = batch.x_true.shape[:2]
        env = ex.point_env(batch.x_true, t, self.spec.coefficients)
        open_rows = np.ones(shape, bool)
        masks = {}
        for rid, predicate in self.spec.boundary_regions:
            hold = ex.eval_scalar(predicate, env)
            sel = open_rows & np.broadcast_to(np.asarray(hold, bool), shape)
            open_rows &= ~sel
            bc = self.spec.boundary_conditions.get((unknown, rid))
            if bc is None or not sel.any():
                continue
            value = np.asarray(ex.eval_scalar(bc.value, env), float)
            prior_mask, prior_val = masks.get(bc.kind, (False, 0.0))
            masks[bc.kind] = (prior_mask | sel, np.where(sel, value, prior_val))
        if open_rows.any():
            where = batch.x_true[open_rows][0]
            raise AssemblyError(
                "a boundary point matched no boundary region predicate "
                f"(near {tuple(round(float(c), 6) for c in where)})")
        return masks

    def _blocks(self, ir, groups, batch, t, dt, history):
        """Element blocks ``(conn, ke, be)`` of one batch: the owners'
        connectivity, and the ``groups``' blocks from ``_integrate``."""
        env = ex.point_env(batch.coords(), t, self.spec.coefficients, dt)
        if batch.surface is None:
            for var, back in ir.prelude:
                name = f"prev:{var}:{back}"
                if history is None or back not in history:
                    raise AssemblyError(
                        f"kernel needs history field '{name}' but none was given")
                env[name] = np.einsum("qc,ec->eq", batch.values,
                                      history[back][batch.conn])
            weights = {Region.VOLUME: batch.weights}
        else:
            env.update(batch.surface)
            weights = {}
            for kind, (sel, value) in self._route_regions(
                    batch, t, ir.unknown).items():
                region, data_name = _SURFACE[kind]
                env[data_name] = value
                weights[region] = sel * batch.weights[None, :]
        ke, be = self._integrate(groups, env, weights, batch)
        return batch.conn, ke, be

    def assemble(self, ir, t=0.0, history=None, matrix=True):
        """Assemble the full-space system for one kernel.

        Returns (A, b): A is a CSR matrix over all nodes or None when
        ``matrix`` is false, b the full-space right-hand side.
        """
        n = self.mesh.n_nodes
        dt = None if ir.steady else self.spec.time.dt
        groups = [(region, bilinear, contributions)
                  for region, bilinear, contributions in ir.groups()
                  if contributions and (matrix or not bilinear)]
        batches = self.cell_batches
        if any(region is not Region.VOLUME for region, _, _ in groups):
            batches = batches + self.face_batches
        if id(ir) not in self._face_rhs:
            self._face_rhs[id(ir)] = (ir, None if _blocks_read_time(
                ir, self.spec, False, _SURFACE_REGIONS) else {})
        kept = self._face_rhs[id(ir)][1]
        results = []
        for batch in batches:
            hit = not matrix and kept is not None and id(batch) in kept
            results.append((batch.conn, None, kept[id(batch)]) if hit else
                           self._blocks(ir, groups, batch, t, dt, history))
            if kept is not None and batch.surface is not None:
                kept[id(batch)] = results[-1][2]

        rhs = [(conn, be) for conn, _, be in results if be is not None]
        b = np.bincount(np.concatenate([conn for conn, _ in rhs]).ravel(),
                        np.concatenate([be for _, be in rhs]).ravel(),
                        minlength=n) if rhs else np.zeros(n)
        if not matrix:
            return None, b
        blocks = [(conn, ke) for conn, ke, _ in results if ke is not None]
        if not blocks:
            return sp.csr_matrix((n, n)), b
        # scipy stores int32 indices whenever they fit; building them so
        # spares it a checked conversion of every triplet
        conn = np.concatenate([conn for conn, _ in blocks]).astype(
            np.int32 if n <= np.iinfo(np.int32).max else np.int64)
        ke = np.concatenate([ke for _, ke in blocks])
        rows = np.broadcast_to(conn[:, :, None], ke.shape).ravel()
        cols = np.broadcast_to(conn[:, None, :], ke.shape).ravel()
        return sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr(), b


# ---------------------------------------------------------------------------
# constrained reduction and linear solver

def reduce_system(A, b, constraint):
    reduced = (constraint.T @ (A @ constraint)).tocsr()
    return reduced, constraint.T @ b


def bicgstab(A, b, x0=None, abs_tol=1e-8, rel_tol=1e-8, max_iterations=1000,
             pc_type="jacobi"):
    """Preconditioned BiCGStab on the reduced system."""
    n = len(b)
    x = np.zeros(n) if x0 is None else np.asarray(x0, float).copy()
    r = b - A @ x
    norm0 = float(np.linalg.norm(r))
    history = [norm0]
    target = max(abs_tol, rel_tol * norm0)
    if norm0 <= target:
        return x, SolveInfo(0, norm0, history)
    if pc_type == "jacobi":
        diag = A.diagonal()
        diag = np.where(np.abs(diag) > 0.0, diag, 1.0)
        inv_diag = 1.0 / diag

        def precondition(v):
            return inv_diag * v
    elif pc_type == "none":
        def precondition(v):
            return v
    else:
        raise SolverError(f"unsupported preconditioner '{pc_type}'")

    r0 = r.copy()
    rho_prev = 1.0
    alpha = 1.0
    omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    tiny = 1e-300
    for iteration in range(1, max_iterations + 1):
        rho = float(r0 @ r)
        if abs(rho) < tiny:
            raise SolverError("solver breakdown: rho vanished", history)
        beta = (rho / rho_prev) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = precondition(p)
        v = A @ p_hat
        denom = float(r0 @ v)
        if abs(denom) < tiny:
            raise SolverError("solver breakdown: search direction collapsed",
                              history)
        alpha = rho / denom
        s = r - alpha * v
        x = x + alpha * p_hat
        norm_s = float(np.linalg.norm(s))
        if norm_s <= target:
            history.append(norm_s)
            return x, SolveInfo(iteration, norm_s, history)
        s_hat = precondition(s)
        t_vec = A @ s_hat
        tt = float(t_vec @ t_vec)
        if tt < tiny:
            raise SolverError("solver breakdown: stabilizer vanished", history)
        omega = float(t_vec @ s) / tt
        if abs(omega) < tiny:
            raise SolverError("solver breakdown: omega vanished", history)
        x = x + omega * s_hat
        r = s - omega * t_vec
        norm_r = float(np.linalg.norm(r))
        history.append(norm_r)
        if norm_r <= target:
            return x, SolveInfo(iteration, norm_r, history)
        rho_prev = rho
    raise SolverError(
        f"no convergence within {max_iterations} iterations "
        f"(residual {history[-1]:.3e}, target {target:.3e})", history)


def _matrix_reads_time(ir, spec):
    """Whether ``ir``'s reduced matrix can change between time steps:
    only ``t`` can change it (``dt`` is fixed; history is linear)."""
    return _blocks_read_time(ir, spec, True, tuple(Region))


def _blocks_read_time(ir, spec, bilinear, regions):
    """Whether ``t`` reaches ``ir``'s bilinear (or linear) blocks over
    ``regions``: through their scalars, on surfaces the region predicates
    and the boundary values read, or the coefficients any of these name."""
    names = set()
    for region, is_bilinear, contributions in ir.groups():
        if is_bilinear is bilinear and region in regions and contributions:
            names.update(*(ex.names_in(c.scalar) for c in contributions))
            if region is not Region.VOLUME:
                names.update(*(ex.names_in(predicate)
                               for _, predicate in spec.boundary_regions))
    for bc in spec.boundary_conditions.values():
        if _SURFACE[bc.kind][1] in names:
            names |= ex.names_in(bc.value)
    # a coefficient reads only coefficients declared before it
    names = {name.split(":")[0] for name in names}
    for name, value in reversed(spec.coefficients.items()):
        if name in names:
            for part in value if isinstance(value, tuple) else (value,):
                names |= ex.names_in(part)
    return "t" in names


# ---------------------------------------------------------------------------
# driver

def run_problem(spec, base_dir=".", mesh=None, initial=None, on_step=None):
    """Build, assemble, and solve a problem; steady or time stepping.

    A steady problem is one step at ``t = 0`` without history. A transient
    one takes steps 1..N; under BDF2 step 1 uses the backward-Euler kernel.
    ``mesh`` optionally supplies an already built mesh of ``spec``.
    ``initial`` optionally overrides the scripted initial condition with a
    nodal array of shape ``(mesh.n_nodes,)``. ``on_step(step, time,
    values)`` is called after every accepted transient step; a steady run
    never calls it. Returns a RunResult whose ``values`` are nodal and
    consistent with the hanging-node constraints.
    """
    timings = {"mesh": 0.0, "assemble": 0.0, "solve": 0.0}
    tick = time.perf_counter()
    if mesh is None:
        mesh = build_mesh(spec, base_dir)
    timings["mesh"] = time.perf_counter() - tick
    # assembler setup (closest-point queries) and kernel compilation count
    # as assembly
    tick = time.perf_counter()
    constraint = mesh.constraint
    assembler = Assembler(mesh, spec)
    ir = compile_kernel(spec)
    state = None
    if ir.steady:
        schedule = [(0, 0.0, ir)]
    else:
        first = ir
        if ir.scheme is TimeScheme.BDF2:
            first = compile_kernel(spec, scheme=TimeScheme.EULER_IMPLICIT)
        schedule = [(k, k * spec.time.dt, first if k == 1 else ir)
                    for k in range(1, spec.time.num_steps + 1)]
        if initial is None:
            initial = nodal_values(
                mesh, spec.initial_conditions.get(ir.unknown, 0.0), t=0.0,
                coefficients=spec.coefficients)
        initial = np.asarray(initial, float)
        if initial.shape != (mesh.n_nodes,):
            raise ValueError(f"initial has shape {initial.shape}, expected "
                             f"({mesh.n_nodes},)")
        # make the start state consistent with the constraints
        state = constraint @ initial[mesh.free_nodes]
    previous = state
    # a kernel's reduced matrix is kept when no step can change it
    keep = not _matrix_reads_time(ir, spec)
    timings["assemble"] = time.perf_counter() - tick

    kept = {}                   # id(kernel) -> its kept reduced matrix
    steps = []
    solution = None
    options = spec.solver
    for k, t_k, kernel in schedule:
        tick = time.perf_counter()
        reduced = kept.get(id(kernel))
        A, b = assembler.assemble(kernel, t=t_k,
                                  history={1: state, 2: previous},
                                  matrix=reduced is None)
        if reduced is None:
            reduced, rhs = reduce_system(A, b, constraint)
            if keep:
                kept[id(kernel)] = reduced
        else:
            rhs = constraint.T @ b
        timings["assemble"] += time.perf_counter() - tick
        tick = time.perf_counter()
        solution, info = bicgstab(reduced, rhs, x0=solution,
                                  abs_tol=options.abs_tol,
                                  rel_tol=options.rel_tol,
                                  max_iterations=options.max_iterations,
                                  pc_type=options.pc_type)
        timings["solve"] += time.perf_counter() - tick
        previous, state = state, constraint @ solution
        steps.append(StepRecord(k, t_k, info.iterations, info.residual))
        if on_step is not None and not ir.steady:
            on_step(k, t_k, state)
    return RunResult(spec=spec, mesh=mesh, ir=ir, values=state,
                     steps=steps, timings=timings)


# ---------------------------------------------------------------------------
# error measurement

def l2_error(mesh, values, exact, t=0.0, coefficients=None):
    """L2 norm of (field - exact) over the kept elements.

    ``exact`` may be an expression over x, y, z, t or a callable taking a
    (m, dim) point array.
    """
    total = 0.0
    for batch in _cell_batches(mesh, tensor_rule(_ERROR_QUAD, mesh.dimension)):
        coords = batch.coords()
        numeric = np.einsum("qc,ec->eq", batch.values, values[batch.conn])
        if callable(exact):
            reference = exact(coords.reshape(-1, mesh.dimension)).reshape(
                numeric.shape)
        else:
            env = ex.point_env(coords, t, coefficients)
            reference = np.broadcast_to(
                np.asarray(ex.eval_scalar(exact, env), float), numeric.shape)
        total += float(((numeric - reference) ** 2
                        * batch.weights[None, :]).sum())
    return np.sqrt(total)
