"""The solve stage: the constrained reduction and preconditioned BiCGStab.

The system is reduced with the mesh's hanging-node expansion ``C``
(solve ``CᵀAC y = Cᵀb``, then expand ``u = Cy``); without hanging nodes
``CᵀAC`` is ``A`` less its explicit zeros. Each solver decision is
declared once, here: the ``[solver]`` defaults (``SolverOptions``), the
``ksp_type`` names (``KSP_TYPES``) and the ``pc_type`` names
(``PRECONDITIONERS``, each with the builder of its ``precondition(v)``).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import SolverError

__all__ = ["KSP_TYPES", "PRECONDITIONERS", "SolveInfo", "SolverOptions",
           "bicgstab", "reduce_system"]


@dataclass(frozen=True)
class SolverOptions:
    ksp_type: str = "bicgstab"
    max_iterations: int = 1000
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    pc_type: str = "jacobi"


_DEFAULT = SolverOptions()


@dataclass
class SolveInfo:
    iterations: int
    residual: float
    history: list


def _jacobi(A):
    diag = A.diagonal()
    inv_diag = 1.0 / np.where(np.abs(diag) > 0.0, diag, 1.0)
    return lambda v: inv_diag * v


PRECONDITIONERS = {"jacobi": _jacobi, "none": lambda A: lambda v: v}
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
             max_iterations=_DEFAULT.max_iterations, pc_type=_DEFAULT.pc_type):
    """Preconditioned BiCGStab on the reduced system.

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
        return x, SolveInfo(0, norm0, history)
    if pc_type not in PRECONDITIONERS:
        raise SolverError(f"unsupported preconditioner '{pc_type}'")
    precondition = PRECONDITIONERS[pc_type](A)

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
        _check_finite(norm_r, history)
        if norm_r <= target:
            return x, SolveInfo(iteration, norm_r, history)
        rho_prev = rho
    raise SolverError(
        f"no convergence within {max_iterations} iterations "
        f"(residual {history[-1]:.3e}, target {target:.3e})", history)


def _check_finite(norm, history):
    """A residual norm that is NaN or infinite fails the solve."""
    if not math.isfinite(norm):
        raise SolverError(f"solver breakdown: the residual norm is {norm}",
                          history)
