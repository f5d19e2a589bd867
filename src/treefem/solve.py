"""The solve stage: the constrained reduction and preconditioned BiCGStab.

The system is reduced with the mesh's hanging-node expansion ``C``
(solve ``CᵀAC y = Cᵀb``, then expand ``u = Cy``); without hanging nodes
``CᵀAC`` is ``A`` less its explicit zeros. Each solver decision is
declared once, here: the ``[solver]`` defaults (``SolverOptions``), the
``ksp_type`` names (``KSP_TYPES``), the ``pc_type`` names
(``PRECONDITIONERS``, each with the builder of its ``precondition(v)``),
and for a script that leaves them unset the ``pc_type`` (``pc_type_for``:
the tree multigrid ``mg`` on 2-D meshes, Jacobi on 3-D ones) and the
``rel_tol`` (``rel_tol_for``: 1e-10 under ``mg``, 1e-8 otherwise).

``mg`` is geometric multigrid on the tree lattice. It reads the node
record ``(levels, points, faced)`` of the unknowns (``IncompleteMesh.
free_node_record``): each node's level, its point on that level's
lattice, and whether it is a corner of an element that owns a surrogate
face. A node's coarse parents are the corners of the lattice cell of the
next coarser level that it lies in, ``(level - 1, (point >> 1) +
offset)`` with an offset of 0 or 1 along each axis where ``point`` is
odd; the prolongation ``P`` gives each the bilinear (trilinear) weight,
renormalized over the parents that are coarse nodes. The coarse nodes
are each node's own key ``(level - 1, point >> 1)`` and all corners of
each coarse cell that holds a complete fine cell (all its corners are
nodes of one level), so that ``P`` has full rank, and a node on the
carved boundary keeps the parent outside it that linear interpolation
needs; keys are packed into int64 by ``mesh.TreeIndex``. The coarse
operator is the Galerkin ``PᵀAP``. At ``_COARSEST`` unknowns or fewer a
dense inverse takes over, by Gauss-Jordan elimination in numpy.

One V(1,1) cycle is a damped-Jacobi sweep, the coarse correction, and a
sweep again. On 2-D meshes each level also smooths the surrogate-boundary
band, where the shifted-boundary penalty makes Jacobi stall, by a
restricted additive Schwarz step before and after the coarse correction;
the Jacobi sweeps skip the band, and their weight is ``(4/3)/ρ(D⁻¹A)``
over the other nodes, ``ρ`` from power iterations from a seeded start. The
band is the faced nodes and their matrix neighbours, and on each coarser
level the parents of the band's nodes. It is cut into boxes of
``2**_BOX_SHIFT`` cells of the level's finest lattice; each box grows by
``_BOX_RINGS`` rings of in-band neighbours while it holds at most
``_BOX_LIMIT`` nodes. Its block, its members' rows of ``A`` at its
members' columns, is padded with the identity to a multiple of
``_BOX_PAD`` and inverted in one stack per width; ``B``, one CSR matrix
per level, keeps the rows of the box's own nodes, over its members. 3-D
meshes have an empty band: there it would hold most unknowns.

No result depends on the BLAS thread count: the set-up's norms are
numpy's pairwise sums, not BLAS, the box blocks stay below the size
from which LAPACK threads its inverse, and the coarsest inverse is
numpy's own; repeated solves repeat their iteration counts.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import SolverError
from .mesh import TreeIndex, corner_bits

__all__ = ["KSP_TYPES", "PRECONDITIONERS", "SolveInfo", "SolverOptions",
           "bicgstab", "pc_type_for", "reduce_system", "rel_tol_for"]


@dataclass(frozen=True)
class SolverOptions:
    ksp_type: str = "bicgstab"
    max_iterations: int = 1000
    abs_tol: float = 1e-8
    rel_tol: float | None = None    # unset: rel_tol_for picks it
    pc_type: str | None = None      # unset: pc_type_for picks it


_DEFAULT = SolverOptions()


@dataclass
class SolveInfo:
    iterations: int
    residual: float
    history: list
    precondition: object = None     # the precondition(v) used, if built


def pc_type_for(pc_type, dimension):
    """``pc_type``, or when it is None the default of a ``dimension``-D
    mesh: ``mg`` in 2-D, ``jacobi`` in 3-D (and without a mesh)."""
    if pc_type is not None:
        return pc_type
    return "mg" if dimension == 2 else "jacobi"


def rel_tol_for(rel_tol, pc_type):
    """``rel_tol``, or when it is None the default under the preconditioner
    ``pc_type``: 1e-10 under ``mg``, whose error at 1e-8 can pass the
    discretization error from disk level 9 on, and 1e-8 otherwise."""
    if rel_tol is not None:
        return rel_tol
    return 1e-10 if pc_type == "mg" else 1e-8


def _inverse_diagonal(A):
    diag = A.diagonal()
    return 1.0 / np.where(np.abs(diag) > 0.0, diag, 1.0)


def _jacobi(A, nodes):
    inv_diag = _inverse_diagonal(A)
    return lambda v: inv_diag * v


# multigrid: the largest operator inverted densely (its Gauss-Jordan
# elimination costs a few milliseconds at 100); the power iterations and
# start seed of each level's smoothing weight; and the band's boxes: their
# side, 2**_BOX_SHIFT cells, the rings of in-band neighbours each grows by,
# the most nodes a grown box holds (LAPACK threads its inverse, and changes
# its bits, from 100), and the width multiple their blocks are padded to,
# to be inverted in a few stacks
_COARSEST = 100
_POWER_ITERATIONS = 15
_POWER_SEED = 0
_BOX_SHIFT = 3
_BOX_RINGS = 2
_BOX_LIMIT = 64
_BOX_PAD = 8


def _multigrid(A, nodes):
    """V(1,1) cycles of the tree hierarchy of ``A`` (module docstring)."""
    grids, inverse = _hierarchy(A, nodes)
    # no closure refers to itself, so the hierarchy goes with its last
    # reference rather than at the next garbage collection
    return lambda v: _cycle(grids, inverse, v, 0)


def _cycle(grids, inverse, v, level):
    """``v`` preconditioned by one V(1,1) cycle from ``grids[level]`` down."""
    if level == len(grids):
        return inverse @ v
    A, P, weighted, band = grids[level]
    x = weighted * v
    _band_step(band, v, x)
    x += P @ _cycle(grids, inverse, P.T @ (v - A @ x), level + 1)
    _band_step(band, v, x)
    x += weighted * (v - A @ x)
    return x


def _band_step(band, v, x):
    """One restricted additive Schwarz step over the band, if any, in
    place: ``x[nodes] += B (v - A x)[nodes]``, with ``rows`` the band's
    rows of ``A`` and ``B`` each box's rows of its block inverse."""
    if band is not None:
        nodes, rows, B = band
        x[nodes] += B @ (v[nodes] - rows @ x)


def _hierarchy(A, nodes):
    """Per level above the coarsest ``(A, P, weight·D⁻¹, band)``, with
    ``band`` the level's ``_band_smoother`` (None in 3-D), and the
    coarsest operator's dense inverse."""
    if nodes is None:
        raise SolverError("pc_type 'mg' needs the node record of the "
                          "unknowns (IncompleteMesh.free_node_record)")
    A = sp.csr_matrix(A)
    levels, points, faced = nodes
    # the faced nodes and their matrix neighbours; none in 3-D
    band = faced & (points.shape[1] == 2)
    band[A[np.flatnonzero(band)].indices] = True
    grids = []
    while A.shape[0] > _COARSEST:
        inv_diag = _inverse_diagonal(A)
        smoother = _band_smoother(A, band, levels, points)
        inv_diag[band] = 0.0            # the band step smooths the band
        weighted = _smoothing_weight(A, inv_diag) * inv_diag
        P, levels, points = _prolongation(levels, points)
        grids.append((A, P, weighted, smoother))
        # the coarse band: the parents of the band's nodes
        parents = P[np.flatnonzero(band)].indices
        band = np.zeros(P.shape[1], bool)
        band[parents] = True
        A = P.T.tocsr() @ (A @ P)
    inverse = _inverse(A.toarray())
    if inverse is None or not np.isfinite(inverse).all():
        raise SolverError(f"multigrid set-up: the coarsest operator "
                          f"({A.shape[0]} unknowns) cannot be inverted")
    return grids, inverse


def _inverse(A):
    """The inverse of the dense ``A`` by Gauss-Jordan elimination with
    partial pivoting, or None at a zero pivot. It uses numpy's elementwise
    operations only: LAPACK's inverse changes its bits with the BLAS
    thread count, and so would every solution."""
    n = len(A)
    M = np.hstack([A, np.eye(n)])
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(M[k:, k])))
        if M[pivot, k] == 0.0:
            return None
        M[[k, pivot]] = M[[pivot, k]]
        M[k] /= M[k, k]
        column = M[:, k].copy()
        column[k] = 0.0
        M -= np.multiply.outer(column, M[k])
    return M[:, n:]


def _prolongation(levels, points):
    """``(P, levels, points)``: the bilinear (trilinear) prolongation onto
    the coarse nodes, and their levels and points (module docstring)."""
    n, dim = points.shape
    corners = corner_bits(dim)
    fine = TreeIndex([levels, *points.T])
    # complete[i]: the cell of node i's level with i as its lowest corner
    # has all its corners among the nodes of that level
    complete = np.ones(n, bool)
    for corner in corners[1:]:
        complete &= fine.find_columns([levels, *(points + corner).T]) >= 0
    del fine
    # the coarse nodes: each node's own key, and all corners of each coarse
    # cell that holds a complete cell
    own = TreeIndex([levels - 1, *(points >> 1).T])
    cell = own.first[np.unique(own.inverse[complete])]
    coarse_levels = np.concatenate(
        [levels[own.first], np.repeat(levels[cell], 2 ** dim)]) - 1
    coarse = np.concatenate(
        [points[own.first] >> 1,
         ((points[cell] >> 1)[:, None] + corners).reshape(-1, dim)])
    index = TreeIndex([coarse_levels, *coarse.T])
    rows, parents = [], []
    odd = points & 1
    for corner in corners:
        row = np.flatnonzero((corner <= odd).all(axis=1))
        parent = index.find_columns([levels[row] - 1,
                                     *((points[row] >> 1) + corner).T])
        rows.append(row[parent >= 0])
        parents.append(parent[parent >= 0])
    rows = np.concatenate(rows)
    P = sp.csr_matrix((1.0 / np.bincount(rows)[rows],
                       (rows, np.concatenate(parents))),
                      shape=(n, len(index.keys)))
    return P, coarse_levels[index.first], coarse[index.first]


def _band_smoother(A, band, levels, points):
    """``(nodes, rows, B)`` of the restricted additive Schwarz step over the
    ``band`` nodes, or None if there are none (module docstring). ``rows``
    are the band's rows of ``A``, and ``B`` holds each box's rows of its
    block inverse, one row per band node, in band numbering."""
    nodes = np.flatnonzero(band)
    if len(nodes) == 0:
        return None
    rows = A[nodes]
    local = rows[:, nodes].tocsr()
    m = len(nodes)
    top = int(levels[nodes].max())
    lattice = points[nodes] << (top - levels[nodes])[:, None]
    boxes = TreeIndex(list((lattice >> _BOX_SHIFT).T))
    box, n_box = boxes.inverse, len(boxes.keys)
    grown = sp.csr_matrix((np.ones(m), (box, np.arange(m))), shape=(n_box, m))
    pattern = sp.csr_matrix((np.ones(local.nnz), local.indices, local.indptr),
                            shape=(m, m))
    for _ in range(_BOX_RINGS):
        wider = grown @ pattern
        fits = np.diff(wider.indptr) <= _BOX_LIMIT
        grown = (sp.diags(fits.astype(float)) @ wider
                 + sp.diags((~fits).astype(float)) @ grown)
    grown.sort_indices()
    # the (box, member) entries in order, with their slots in the box; each
    # band node's own entry; and the entry of each member's columns in its box
    size = np.diff(grown.indptr)
    owner = np.repeat(np.arange(n_box), size)
    slot = np.arange(grown.nnz) - grown.indptr[owner]
    entries = TreeIndex([owner, grown.indices.astype(np.int64)])
    mine = entries.find_columns([box, np.arange(m)])
    reach = local[grown.indices]
    entry = np.repeat(np.arange(grown.nnz), np.diff(reach.indptr))
    column = entries.find_columns([owner[entry],
                                   reach.indices.astype(np.int64)])
    hit = column >= 0
    entry, column, value = entry[hit], column[hit], reach.data[hit]
    # B's row of band node i is i's row of its box's block inverse, over the
    # box's members; the blocks are inverted in classes of equal padded width
    B = grown[box]
    width = -(-size // _BOX_PAD) * _BOX_PAD
    entry_width = width[owner[entry]]
    for w in np.unique(width):
        position = np.cumsum(width == w) - 1     # in the stack, if of width w
        blocks = np.zeros((position[-1] + 1, w, w))
        blocks[:, np.arange(w), np.arange(w)] = 1.0     # the padding's
        take = entry_width == w
        e, c = entry[take], column[take]
        blocks[position[owner[e]], slot[e], slot[c]] = value[take]
        try:
            inverse = np.linalg.inv(blocks)
        except np.linalg.LinAlgError:
            raise SolverError("multigrid set-up: a band block cannot be "
                              "inverted") from None
        del blocks
        i = np.flatnonzero(width[box] == w)
        keep = np.arange(w) < size[box[i], None]
        B.data[(B.indptr[i, None] + np.arange(w))[keep]] = inverse[
            position[box[i]], slot[mine[i]]][keep]
    return nodes, rows, B


def _smoothing_weight(A, inv_diag):
    """``(4/3)/ρ(D⁻¹A)`` for the diagonal ``D⁻¹`` given, which is zero on
    the band, so ``ρ`` is over the rest; ``ρ`` from power iterations from a
    seeded start, and the weight zero where that rest is empty."""
    x = np.random.default_rng(_POWER_SEED).random(A.shape[0])
    rho = _norm(x)
    for _ in range(_POWER_ITERATIONS):
        x = inv_diag * (A @ (x / rho))
        rho = _norm(x)
        if rho == 0.0:
            return 0.0
    return (4.0 / 3.0) / rho


def _norm(x):
    """The 2-norm of ``x`` by numpy's pairwise sum: BLAS, which
    ``np.linalg.norm`` calls, changes its bits with its thread count."""
    return math.sqrt(float(np.add.reduce(x * x)))


PRECONDITIONERS = {"jacobi": _jacobi, "none": lambda A, nodes: lambda v: v,
                   "mg": _multigrid}
# ksp_type names; both are BiCGStab ("bcgs" is PETSc's name)
KSP_TYPES = ("bicgstab", "bcgs")


def reduce_system(A, b, constraint):
    """The reduced system ``(CᵀAC, Cᵀb)`` of the expansion ``C``.

    Without hanging nodes ``C`` is the identity, and ``CᵀAC`` is ``A``
    less its explicit zeros, to the bit: each product adds one term to
    zero and drops the sums that are zero. So a canonical CSR ``A`` is
    returned as it is, or as a copy without its zeros. ``Cᵀb`` stays a
    product, which turns ``-0.0`` into ``+0.0``.
    """
    if (_is_identity(constraint) and sp.issparse(A) and A.format == "csr"
            and A.has_canonical_format):
        if not A.data.all():
            A = A.copy()
            A.eliminate_zeros()
        return A, constraint.T @ b
    reduced = (constraint.T @ (A @ constraint)).tocsr()
    return reduced, constraint.T @ b


def _is_identity(matrix):
    n = matrix.shape[0]
    return (sp.issparse(matrix) and matrix.format == "csr"
            and matrix.shape == (n, n)
            and np.array_equal(matrix.indptr, np.arange(n + 1))
            and np.array_equal(matrix.indices, np.arange(n))
            and bool((matrix.data == 1).all()))


def bicgstab(A, b, x0=None, abs_tol=_DEFAULT.abs_tol, rel_tol=_DEFAULT.rel_tol,
             max_iterations=_DEFAULT.max_iterations, pc_type=_DEFAULT.pc_type,
             nodes=None, precondition=None):
    """Preconditioned BiCGStab on the reduced system ``A x = b``.

    ``pc_type`` names the preconditioner (None: ``pc_type_for`` the node
    record's dimension) and ``rel_tol`` None is ``rel_tol_for`` it; ``mg``
    needs ``nodes``, the node record of the unknowns. ``precondition``,
    the ``SolveInfo.precondition`` of an earlier solve with ``A``, is used
    instead of building one again, and so is the ``pc_type`` it was built
    as.
    A ``b``, ``x0`` or ``nodes`` not sized to ``A``'s rows, a NaN or
    infinite value in ``b`` or ``x0``, or a residual norm that is not
    finite, raises ``SolverError``: no answer is returned for it.
    """
    n = A.shape[0]
    for name, fits in (("b", np.shape(b) == (n,)),
                       ("x0", x0 is None or np.shape(x0) == (n,)),
                       ("nodes", nodes is None
                        or all(len(array) == n for array in nodes))):
        if not fits:
            raise SolverError(f"{name} is not sized to the matrix's {n} rows")
    x = np.zeros(n) if x0 is None else np.asarray(x0, float).copy()
    if not (np.isfinite(b).all() and np.isfinite(x).all()):
        raise SolverError("the right-hand side or the start vector holds "
                          "a NaN or infinite value")
    r = b - A @ x
    norm0 = float(np.linalg.norm(r))
    history = [norm0]
    _check_finite(norm0, history)
    # a kept preconditioner brings the pc_type it was built as
    pc_type = getattr(precondition, "pc_type", None) or pc_type_for(
        pc_type, None if nodes is None else nodes[1].shape[1])
    target = max(abs_tol, rel_tol_for(rel_tol, pc_type) * norm0)
    if norm0 <= target:
        return x, SolveInfo(0, norm0, history, precondition)
    if precondition is None:
        if pc_type not in PRECONDITIONERS:
            raise SolverError(f"unsupported preconditioner '{pc_type}'")
        precondition = PRECONDITIONERS[pc_type](A, nodes)
        precondition.pc_type = pc_type

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
        _check_finite(norm_s, history)
        if norm_s <= target:
            history.append(norm_s)
            return x, SolveInfo(iteration, norm_s, history, precondition)
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
        _check_finite(norm_r, history)
        if norm_r <= target:
            return x, SolveInfo(iteration, norm_r, history, precondition)
        rho_prev = rho
    raise SolverError(
        f"no convergence within {max_iterations} iterations "
        f"(residual {history[-1]:.3e}, target {target:.3e})", history)


def _check_finite(norm, history):
    """A residual norm that is NaN or infinite fails the solve."""
    if not math.isfinite(norm):
        raise SolverError(f"solver breakdown: the residual norm is {norm}",
                          history)
