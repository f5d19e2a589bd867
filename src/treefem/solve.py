"""The solve stage: the constrained reduction and preconditioned BiCGStab.

The system is reduced with the mesh's hanging-node expansion ``C``
(solve ``CᵀAC y = Cᵀb``, then expand ``u = Cy``); without hanging nodes
``CᵀAC`` is ``A`` less its explicit zeros. Each solver decision is
declared once, here: the ``[solver]`` defaults (``SolverOptions``), the
``ksp_type`` names (``KSP_TYPES``), the ``pc_type`` names
(``PRECONDITIONERS``, each with the builder of its ``precondition(v)``)
and the ``pc_type`` of a script that leaves it unset (``pc_type_for``):
the tree multigrid ``mg`` on 2-D meshes, Jacobi on 3-D ones.

``mg`` is plain aggregation over the tree lattice. It reads the node
record ``(levels, points)`` of the unknowns (``IncompleteMesh.
free_node_record``): each node's level and its point on that level's
lattice. A coarsening step merges the nodes of one key ``(level - 1,
points >> 1)``, a 2×2 (2×2×2) block of the next coarser lattice, packed
into int64 keys by ``mesh.TreeIndex``; the coarse node takes that key as
its level and point. Restriction sums a vector over each aggregate
(``np.bincount``) and prolongation copies the coarse value to its nodes,
so no transfer matrix is kept; the coarse operator is the Galerkin
``PᵀAP`` of the aggregation ``P``. At ``_COARSEST`` unknowns or fewer a
dense inverse takes over, by Gauss-Jordan elimination in numpy, so that
no result depends on the BLAS thread count. One V(0,2) cycle is the
coarse correction, then two damped-Jacobi sweeps of weight
``(4/3)/ρ(D⁻¹A)``, with ``ρ`` from power iterations from a seeded start,
so repeated solves repeat their iteration counts.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import SolverError
from .mesh import TreeIndex

__all__ = ["KSP_TYPES", "PRECONDITIONERS", "SolveInfo", "SolverOptions",
           "bicgstab", "pc_type_for", "reduce_system"]


@dataclass(frozen=True)
class SolverOptions:
    ksp_type: str = "bicgstab"
    max_iterations: int = 1000
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
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


def _inverse_diagonal(A):
    diag = A.diagonal()
    return 1.0 / np.where(np.abs(diag) > 0.0, diag, 1.0)


def _jacobi(A, nodes):
    inv_diag = _inverse_diagonal(A)
    return lambda v: inv_diag * v


# multigrid: the largest operator inverted densely (its Gauss-Jordan
# elimination costs a few milliseconds at 100), and the power iterations
# and start seed of each level's smoothing weight
_COARSEST = 100
_POWER_ITERATIONS = 15
_POWER_SEED = 0


def _multigrid(A, nodes):
    """V(0,2) cycles of the tree aggregation of ``A`` (module docstring)."""
    grids, inverse = _hierarchy(A, nodes)
    # no closure refers to itself, so the hierarchy goes with its last
    # reference rather than at the next garbage collection
    return lambda v: _cycle(grids, inverse, v, 0)


def _cycle(grids, inverse, v, level):
    """``v`` preconditioned by one V(0,2) cycle from ``grids[level]`` down."""
    if level == len(grids):
        return inverse @ v
    A, AP, weighted, aggregate, size = grids[level]
    e = _cycle(grids, inverse, np.bincount(aggregate, v, minlength=size),
               level + 1)
    x = e[aggregate]
    x += weighted * (v - AP @ e)
    x += weighted * (v - A @ x)
    return x


def _hierarchy(A, nodes):
    """Per level above the coarsest ``(A, A·P, weight·D⁻¹, aggregate,
    size)``, and the coarsest operator's dense inverse. The first sweep
    after the coarse correction reads ``A·P`` (``A x`` of a prolonged
    ``x = P e`` is ``A·P e``), which has about half of ``A``'s entries."""
    if nodes is None:
        raise SolverError("pc_type 'mg' needs the node record of the "
                          "unknowns (IncompleteMesh.free_node_record)")
    A = sp.csr_matrix(A)
    levels, points = nodes
    grids = []
    while A.shape[0] > _COARSEST:
        aggregate, size, levels, points = _aggregate(levels, points)
        inv_diag = _inverse_diagonal(A)
        weighted = _smoothing_weight(A, inv_diag) * inv_diag
        AP, coarse = _galerkin(A, aggregate, size)
        grids.append((A, AP, weighted, aggregate, size))
        A = coarse
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


def _aggregate(levels, points):
    """``(aggregate, size, levels, points)``: each node's aggregate, the
    nodes of one key ``(level - 1, point >> 1)``, numbered in key order,
    the aggregates' count, and their own levels and points."""
    points = points >> 1
    index = TreeIndex([levels - 1, *points.T])
    return (index.inverse, len(index.keys), levels[index.first] - 1,
            points[index.first])


def _galerkin(A, aggregate, size):
    """``(A·P, PᵀAP)`` for the aggregation ``P`` (``P[i, aggregate[i]]
    = 1``), which lives only here."""
    n = len(aggregate)
    P = sp.csr_matrix((np.ones(n), aggregate, np.arange(n + 1)),
                      shape=(n, size))
    AP = A @ P
    return AP, (P.T @ AP).tocsr()


def _smoothing_weight(A, inv_diag):
    """``(4/3)/ρ(D⁻¹A)``, ``ρ`` from power iterations from a seeded start."""
    x = np.random.default_rng(_POWER_SEED).random(A.shape[0])
    rho = float(np.linalg.norm(x))
    for _ in range(_POWER_ITERATIONS):
        x = inv_diag * (A @ (x / rho))
        rho = float(np.linalg.norm(x))
    return (4.0 / 3.0) / rho


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
    record's dimension); ``mg`` needs ``nodes``, the node record of the
    unknowns. ``precondition``, the ``SolveInfo.precondition`` of an
    earlier solve with ``A``, is used instead of building one again.
    A NaN or infinite value in ``b`` or ``x0``, or a residual norm that
    is not finite, raises ``SolverError``: no answer is returned for it.
    """
    n = len(b)
    x = np.zeros(n) if x0 is None else np.asarray(x0, float).copy()
    if not (np.isfinite(b).all() and np.isfinite(x).all()):
        raise SolverError("the right-hand side or the start vector holds "
                          "a NaN or infinite value")
    r = b - A @ x
    norm0 = float(np.linalg.norm(r))
    history = [norm0]
    _check_finite(norm0, history)
    target = max(abs_tol, rel_tol * norm0)
    if norm0 <= target:
        return x, SolveInfo(0, norm0, history, precondition)
    if precondition is None:
        pc_type = pc_type_for(pc_type, None if nodes is None
                              else nodes[1].shape[1])
        if pc_type not in PRECONDITIONERS:
            raise SolverError(f"unsupported preconditioner '{pc_type}'")
        precondition = PRECONDITIONERS[pc_type](A, nodes)

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
