"""Batched assembly of compiled kernels over a tree mesh, and the driver.

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
constant over the batch give one cell block, broadcast. A face batch
routes each point through the ordered boundary-region predicates,
evaluated at the true boundary point: the first that holds claims it,
and its condition decides which surface blocks apply and supplies the
boundary value. When no surface scalar, region predicate or boundary
value reads ``t``, directly or through the coefficients it names, a face
batch's blocks are set-up work, kept from the first assembly that visits
the batch under all that they read of a kernel: its surface groups,
unknown and steadiness. Later assemblies of any kernel with that key
skip the batch, routing included. All blocks go through one scatter: one
``np.bincount`` for ``b``, and ``tocsr()`` one slab of rows (about 2^17
triplets) at a time for ``A``. A slab's triplets come in the order of
one triplet list over all blocks, so ``A`` has that list's bits, while
the scatter holds one slab's triplets at a time, never the whole list.

A history term ``c·S·prev:u:k`` of a transient kernel is linear in the
history field, so it is ``c·(H @ history[k])`` for the sparse operator
``H``, the (test, ``N``) block of weight ``S``, assembled through the
same scatter. ``c`` is the scalar's leading constant and ``S`` the rest
with ``prev:u:k`` bound to 1, so backward Euler's ``1·M`` and BDF2's
``2·M`` and ``-0.5·M`` share one ``M``. An operator whose ``S`` cannot
read ``t`` is kept under ``S`` and its test table. The other linear
terms sum to ``b_rest``, kept as one vector when they cannot read ``t``;
a right-hand side is ``b_rest + Σ c·(H @ history[k])``. So a ``t``-free
right-hand-side-only step costs one mat-vec per history term and
integrates nothing.

A NaN or infinite nodal value (``nodal_values``' result, ``run_problem``'s
``initial``) or exact value (a callable ``exact`` of ``l2_error``) fails
with a ``ValidationError`` naming the argument.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import expr as ex
from .errors import AssemblyError, ValidationError
from .forms import (BOUNDARY_KINDS, SURFACE_DATA, VALUE, Contribution,
                    Region, TimeScheme, compile_kernel, fold)
from .kernel import basis_table, face_reference_points, tensor_rule
from .mesh import KIND_GEOMETRY, TreeIndex, build_mesh
# run_problem calls these by this module's names, which benchmark probes swap
from .solve import (
    SolveInfo, bicgstab, pc_type_for, reduce_system, rel_tol_for,
)

__all__ = ["Assembler", "SolveInfo", "StepRecord", "RunResult",
           "bicgstab", "reduce_system", "run_problem", "nodal_values",
           "l2_error"]

# Gauss points per axis: assembly (cells and faces), and l2_error
_ASSEMBLY_QUAD, _ERROR_QUAD = 2, 3

# triplets per slab of rows in the matrix scatter; a slab's working
# arrays take about 28 bytes per triplet
_SLAB_TRIPLETS = 1 << 17

# the surface data a face batch holds, in SURFACE_DATA order: all but the
# boundary values, which routing binds
_FACE_DATA = tuple(datum for call, datum in SURFACE_DATA.items()
                   if call not in {kind.value for kind in BOUNDARY_KINDS.values()})


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


def _finite(values, what):
    """``values``; a NaN or infinite one fails, naming ``what``."""
    if not np.isfinite(values).all():
        raise ValidationError(f"{what} holds a NaN or infinite value")
    return values


def nodal_values(mesh, value, t=0.0, coefficients=None):
    """Evaluate a number or expression at every mesh node."""
    if not isinstance(value, (int, float)):
        value = ex.eval_scalar(value, ex.point_env(mesh.node_coords(), t,
                                                   coefficients))
    out = _finite(np.asarray(value, float), "argument 'value'")
    return np.broadcast_to(out, (mesh.n_nodes,)).copy()


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
    # batches in the keys' lexicographic order, each with its faces ascending
    index = TreeIndex(list(keys.T))
    groups = np.split(np.argsort(index.inverse, kind="stable"),
                      np.cumsum(np.bincount(index.inverse))[:-1])
    batches = []
    for key, rows in zip(keys[index.first], groups):
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
        # in _FACE_DATA order, a vector's by component: surrogate normal,
        # true normal, shift to the true boundary, owner edge length
        data = (n_tilde.tolist(), np.moveaxis(n_true, -1, 0),
                np.moveaxis(batch.x_true - x_surr, -1, 0), [float(batch.h.max())])
        batch.surface = {}
        for datum, values in zip(_FACE_DATA, data, strict=True):
            batch.surface.update(zip(datum.names(dim), values, strict=True))
        batches.append(batch)
    return batches


@dataclass
class _Operator:
    """A history operator ``H``: the cell blocks of the one bilinear
    volume ``group``. Kept in ``matrix`` when its scalar cannot read ``t``."""
    group: tuple
    kept: bool
    matrix: object = None


@dataclass
class _Kernel:
    """What assembly derives from a kernel IR on its first assembly."""
    groups: tuple               # ir.groups(), history terms taken out
    faces: dict                 # kept face blocks, None if they read t
    history: tuple              # (c, k, _Operator) per term c·S·prev:u:k
    keep_rest: bool             # whether b_rest cannot read t
    rest: np.ndarray = None     # the kept b_rest


class Assembler:
    """Caches mesh batches; assembles any kernel IR for this problem.

    Cells and faces use a 2-point Gauss rule per axis. Batches are
    assembled one after another in a fixed order, so repeated assemblies
    give bit-identical ``A`` and ``b``. Face blocks that cannot read ``t``
    are kept from the first assembly that visits them, and kernels with
    equal surface groups, unknown and steadiness share them. History
    terms become sparse operators applied to the history fields; an
    operator that cannot read ``t`` is kept, shared by every kernel whose
    term has its weight, and so is a kernel's ``t``-free remaining
    right-hand side. The matrix is scattered one slab of rows at a time,
    so the triplets in flight are one slab's, whatever the size of the
    mesh.
    """

    def __init__(self, mesh, spec):
        self.mesh = mesh
        self.spec = spec
        self.cell_batches = _cell_batches(
            mesh, tensor_rule(_ASSEMBLY_QUAD, mesh.dimension))
        self.face_batches = _face_batches(mesh)
        # kernel -> its _Kernel; face blocks {face batch index: (conn, ke,
        # be)} by surface groups, unknown and steadiness; history operators
        # by their group
        self._kernels, self._kept, self._operators = {}, {}, {}

    def _derive(self, ir):
        """The ``_Kernel`` of ``ir``: each volume linear term that reads a
        history field ``prev:u:k`` becomes ``(c, k, H)``."""
        surface = tuple(g for g in ir.groups() if g[0] is not Region.VOLUME)
        faces = None if _reads_time(surface, self.spec) else \
            self._kept.setdefault((surface, ir.unknown, ir.steady), {})
        fields = {f"prev:{var}:{back}": back for var, back in ir.prelude}
        rest, history = [], []
        for c in ir.volume_linear:
            name = next((name for name in ex.names_in(c.scalar)
                         if name in fields), None)
            if name is None:
                rest.append(c)
                continue
            constant, weight = _history_weight(c.scalar, name)
            group = ((Region.VOLUME, True,
                      (Contribution(c.test, VALUE, weight),)),)
            if group not in self._operators:
                self._operators[group] = _Operator(
                    group, not _reads_time(group, self.spec))
            history.append((constant, fields[name], self._operators[group]))
        groups = tuple((region, bilinear, tuple(rest)) if
                       region is Region.VOLUME and not bilinear else
                       (region, bilinear, contributions)
                       for region, bilinear, contributions in ir.groups())
        keep_rest = not _reads_time([g for g in groups if not g[1]], self.spec)
        return _Kernel(groups, faces, tuple(history), keep_rest)

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
            if not np.isfinite(np.broadcast_to(value, shape)[sel]).all():
                raise ValidationError(
                    f"boundary value '{ex.to_text(bc.value)}' of {unknown} "
                    f"@ {rid} holds a NaN or infinite value")
            prior_mask, prior_val = masks.get(bc.kind, (False, 0.0))
            masks[bc.kind] = (prior_mask | sel, np.where(sel, value, prior_val))
        if open_rows.any():
            where = batch.x_true[open_rows][0]
            raise AssemblyError(
                "a boundary point matched no boundary region predicate "
                f"(near {tuple(round(float(c), 6) for c in where)})")
        return masks

    def _blocks(self, groups, batch, t, dt, unknown):
        """Element blocks ``(conn, ke, be)`` of one batch: the owners'
        connectivity, and the ``groups``' blocks from ``_integrate``."""
        env = ex.point_env(batch.coords(), t, self.spec.coefficients, dt)
        if batch.surface is None:
            weights = {Region.VOLUME: batch.weights}
        else:
            env.update(batch.surface)
            weights = {}
            for kind, (sel, value) in self._route_regions(
                    batch, t, unknown).items():
                boundary = BOUNDARY_KINDS[kind]
                env[SURFACE_DATA[boundary.value].name] = value
                weights[boundary.region] = sel * batch.weights[None, :]
        ke, be = self._integrate(groups, env, weights, batch)
        return batch.conn, ke, be

    def _operator(self, op, t, dt):
        """The matrix of the history operator ``op`` at ``t``."""
        if op.matrix is not None:
            return op.matrix
        matrix = _scatter([self._blocks(op.group, batch, t, dt, None)[:2]
                           for batch in self.cell_batches], self.mesh.n_nodes)
        if op.kept:
            op.matrix = matrix
        return matrix

    def assemble(self, ir, t=0.0, history=None, matrix=True):
        """Assemble the full-space system for one kernel.

        Returns (A, b): A is a CSR matrix over all nodes or None when
        ``matrix`` is false, b the full-space right-hand side.
        """
        n = self.mesh.n_nodes
        dt = None if ir.steady else self.spec.time.dt
        for var, back in ir.prelude:
            if history is None or back not in history:
                raise AssemblyError(f"kernel needs history field "
                                    f"'prev:{var}:{back}' but none was given")
        if ir not in self._kernels:
            self._kernels[ir] = self._derive(ir)
        kernel = self._kernels[ir]
        rest = kernel.rest
        groups = [g for g in kernel.groups
                  if g[2] and (matrix if g[1] else rest is None)]
        results = []
        if any(region is Region.VOLUME for region, _, _ in groups):
            results = [self._blocks(groups, batch, t, dt, ir.unknown)
                       for batch in self.cell_batches]
        if any(region is not Region.VOLUME for region, _, _ in groups):
            kept = kernel.faces
            for i, batch in enumerate(self.face_batches):
                if kept is not None and i not in kept:
                    # all groups, so that a later matrix assembly finds ke
                    kept[i] = self._blocks(kernel.groups, batch, t, dt,
                                           ir.unknown)
                results.append(kept[i] if kept is not None else
                               self._blocks(groups, batch, t, dt, ir.unknown))

        if rest is None:
            rhs = [(conn, be) for conn, _, be in results if be is not None]
            rest = np.bincount(
                np.concatenate([conn for conn, _ in rhs]).ravel(),
                np.concatenate([be for _, be in rhs]).ravel(),
                minlength=n) if rhs else np.zeros(n)
            if kernel.keep_rest:
                kernel.rest = rest
        b = rest.copy()
        for constant, back, op in kernel.history:
            b += constant * (self._operator(op, t, dt) @ history[back])
        if not matrix:
            return None, b
        blocks = [(conn, ke) for conn, ke, _ in results if ke is not None]
        if not blocks:
            return sp.csr_matrix((n, n)), b
        return _scatter(blocks, n), b


def _scatter(blocks, n):
    """CSR sum over all nodes of the element blocks ``(conn, ke)``.

    It sums the triplets of all blocks, in batch, element, row and column
    order, one slab of rows at a time; a slab holds about
    ``_SLAB_TRIPLETS`` of them. Each row's triplets meet scipy's per-row
    sort and sum in the order of one triplet list over all blocks, so
    ``A`` has the bits of that list's ``tocsr()``.
    """
    triplets = sum(ke.size for _, ke in blocks)
    # scipy stores int32 indices whenever they fit; building them so
    # spares it a checked conversion of every triplet
    index = (np.int32 if max(n, triplets) <= np.iinfo(np.int32).max
             else np.int64)
    conn = np.concatenate([conn for conn, _ in blocks]).astype(index)
    nc = conn.shape[1]
    # a pair is an (element, local row), numbered by its flat index in conn
    first = np.cumsum([0] + [conn.size for conn, _ in blocks])
    # a row's slab counts the triplets before it; one stable sort puts the
    # pairs slab by slab, each slab's in their own order
    count = np.bincount(conn.ravel(), minlength=n) * nc
    before = np.append(0, np.cumsum(count))
    slab_of_row = before[:-1] // _SLAB_TRIPLETS
    slabs = int(slab_of_row[-1]) + 1
    # a stable sort of 16-bit keys is a radix sort
    order = np.argsort(np.take(slab_of_row.astype(
        np.uint16 if slabs <= 1 << 16 else np.int64), conn.ravel()),
        kind="stable")
    bound = np.append(np.searchsorted(slab_of_row, np.arange(slabs)), n)
    cut = before[bound] // nc
    counts, indices, data = zip(*(
        _slab(blocks, conn, first, order[cut[s]:cut[s + 1]],
              bound[s], bound[s + 1], n) for s in range(slabs)))
    indptr = np.append(0, np.cumsum(np.concatenate(counts))).astype(index)
    indices = np.concatenate(indices)   # the parts go as they are joined
    A = sp.csr_matrix((np.concatenate(data), indices, indptr), shape=(n, n))
    A.has_canonical_format = True   # each slab's tocsr() sorted and summed
    return A


def _slab(blocks, conn, first, pairs, lo, hi, n):
    """Row counts, column indices and values of the CSR sum over rows
    ``lo:hi``, whose pairs are ``pairs`` in their order.

    Values are gathered by pair index: a block that is one broadcast
    cell is read in place, never reshaped (that copies it whole).
    """
    nc = conn.shape[1]
    at = np.searchsorted(pairs, first)
    values = np.empty((len(pairs), nc))
    for k, (_, ke) in enumerate(blocks):
        mine = pairs[at[k]:at[k + 1]]
        if ke.strides[0] == 0:
            values[at[k]:at[k + 1]] = np.take(ke[0], mine % nc, axis=0)
        else:
            values[at[k]:at[k + 1]] = np.take(ke.reshape(-1, nc),
                                              mine - first[k], axis=0)
    part = sp.coo_matrix(
        (values.ravel(), (np.repeat(np.take(conn, pairs) - lo, nc),
                          np.take(conn, pairs // nc, axis=0).ravel())),
        shape=(hi - lo, n)).tocsr()
    # tocsr's arrays hold every triplet of the slab, and a part that keeps
    # over half of them is a view into them: copy it out alone
    return np.diff(part.indptr), part.indices.copy(), part.data.copy()


def _matrix_reads_time(ir, spec):
    """Whether ``ir``'s reduced matrix can change between time steps:
    only ``t`` can change it (``dt`` is fixed; history is linear)."""
    return _reads_time([g for g in ir.groups() if g[1]], spec)


def _reads_time(groups, spec):
    """Whether ``t`` reaches the blocks of ``groups``, as ``KernelIR.groups``
    gives them: through their scalars, on surfaces the region predicates
    and the boundary values read, or the coefficients any of these name."""
    names = set()
    for region, _, contributions in groups:
        if contributions:
            names.update(*(ex.names_in(c.scalar) for c in contributions))
            if region is not Region.VOLUME:
                names.update(*(ex.names_in(predicate)
                               for _, predicate in spec.boundary_regions))
    for bc in spec.boundary_conditions.values():
        if SURFACE_DATA[BOUNDARY_KINDS[bc.kind].value].name in names:
            names |= ex.names_in(bc.value)
    # a coefficient reads only coefficients declared before it
    names = {name.split(":")[0] for name in names}
    for name, value in reversed(spec.coefficients.items()):
        if name in names:
            for part in value if isinstance(value, tuple) else (value,):
                names |= ex.names_in(part)
    return "t" in names


def _history_weight(scalar, name):
    """``(c, S)`` with ``scalar`` equal to ``c·S·name``. ``forms.lower``
    made ``scalar`` the ``fold`` of a product with ``name``: a chain of
    factors, under a negation and the divisions, that a number ``c``
    opens unless it is 1 and ``name`` closes. ``S`` is the chain without
    them, ``scalar`` with ``name`` bound to 1 and ``c`` taken out."""
    if isinstance(scalar, ex.Num):
        return scalar.value, ex.Num(1.0)
    if scalar == ex.Name(name):
        return 1.0, ex.Num(1.0)
    if isinstance(scalar, ex.Neg):
        constant, weight = _history_weight(scalar.arg, name)
        return -constant, weight
    if isinstance(scalar, ex.Bin) and scalar.op in ("*", "/"):
        constant, left = _history_weight(scalar.left, name)
        right = ex.Num(1.0) if scalar.right == ex.Name(name) else scalar.right
        return constant, fold(ex.Bin(scalar.op, left, right))
    return 1.0, scalar


# ---------------------------------------------------------------------------
# driver

def run_problem(spec, base_dir=".", mesh=None, initial=None, on_step=None):
    """Build, assemble, and solve a problem; steady or time stepping.

    A steady problem is one step at ``t = 0`` without history. A transient
    one takes steps 1..N; under BDF2 step 1 uses the backward-Euler kernel.
    Each solve starts from the previous state, the first from the initial
    one.
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
    state = solution = None
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
        _finite(initial, "argument 'initial'")
        # make the start state consistent with the constraints; the first
        # solve starts from it
        solution = initial[mesh.free_nodes]
        state = constraint @ solution
    previous = state
    # kernel -> its kept reduced matrix and preconditioner, for each kernel
    # no step can change, while a later step of the kernel reads them
    last = {kernel: k for k, _, kernel in schedule}
    keep = {kernel for kernel in last if not _matrix_reads_time(kernel, spec)}
    kept = {}
    options = spec.solver
    pc_type = pc_type_for(options.pc_type, mesh.dimension)
    rel_tol = rel_tol_for(options.rel_tol, pc_type)
    nodes = None
    timings["assemble"] = time.perf_counter() - tick

    steps = []
    for k, t_k, kernel in schedule:
        tick = time.perf_counter()
        reduced, precondition = kept.pop(kernel, (None, None))
        A, b = assembler.assemble(kernel, t=t_k,
                                  history={1: state, 2: previous},
                                  matrix=reduced is None)
        if k == schedule[-1][0]:
            assembler = None    # its kept face blocks go before the solve
        if reduced is None:
            reduced, rhs = reduce_system(A, b, constraint)
        else:
            rhs = constraint.T @ b
        A = None                # the full-space matrix goes once reduced
        timings["assemble"] += time.perf_counter() - tick
        tick = time.perf_counter()
        if pc_type == "mg" and nodes is None:
            # made once the assembly's arrays are gone
            nodes = mesh.free_node_record()
        solution, info = bicgstab(reduced, rhs, x0=solution,
                                  abs_tol=options.abs_tol,
                                  rel_tol=rel_tol,
                                  max_iterations=options.max_iterations,
                                  pc_type=pc_type, nodes=nodes,
                                  precondition=precondition)
        timings["solve"] += time.perf_counter() - tick
        if kernel in keep and k < last[kernel]:
            kept[kernel] = (reduced, info.precondition)
        # the matrix and preconditioner go after their last solve
        reduced = precondition = info.precondition = None
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
            reference = _finite(exact(coords.reshape(-1, mesh.dimension)),
                                "the output of argument 'exact'").reshape(
                numeric.shape)
        else:
            env = ex.point_env(coords, t, coefficients)
            reference = np.broadcast_to(
                np.asarray(ex.eval_scalar(exact, env), float), numeric.shape)
        total += float(((numeric - reference) ** 2
                        * batch.weights[None, :]).sum())
    return np.sqrt(total)
