"""Lovász theta by a primal-dual interior-point method.

theta(G) is the common optimum of the standard semidefinite pair

    primal:  max <J, X>  s.t.  tr X = 1,  X_ij = 0 on edges,  X PSD;
    dual:    min t       s.t.  Z = t I + sum_e y_e (E_ij + E_ji) - J  PSD,

with one dual multiplier y_e per edge ij (Lovász 1979).  The solver starts
from the strictly feasible pair X = I/n, t = n + 1, y = 0 and follows the
central path with the HKM search direction and Mehrotra's predictor-corrector
(Helmberg, Rendl, Vanderbei and Wolkowicz 1996).  It stops once the duality
gap t - <J, X> and the norms of the primal and dual residuals are all at most
tol, and reports the dual value t: weak duality puts it at or above theta up
to the dual residual, and the gap puts it within tol of theta.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError, ConvergenceError, InputError
from .graphs import Graph

DEFAULT_TOL = 1e-5
DEFAULT_MAX_ITER = 100
MAX_VERTICES = 64

#: fraction of the step to the boundary of the PSD cone that is taken
_STEP_FRACTION = 0.95


def _constraints(K: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<A_k, K> for A_0 = I and A_e = E_uv + E_vu, one entry per constraint."""
    return np.concatenate(([np.trace(K)], K[u, v] + K[v, u]))


def _adjoint(y: np.ndarray, n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_k y_k A_k."""
    S = y[0] * np.eye(n)
    S[u, v] = S[v, u] = y[1:]
    return S


def _schur(X: np.ndarray, W: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """HKM Schur complement M_kl = <A_k, X A_l W> with W = Z^-1.

    Each |E| x |E| gather X[a_k, b_l] takes the edge ends' rows of X once
    (|E| x n) and then their columns, two plain ``take``s with no index
    grid; the sums are those of the np.ix_ gathers, term for term, so every
    iterate is bitwise the same, in half their time or less (2-vCPU x86
    VM)."""
    m = 1 + len(u)
    M = np.empty((m, m))
    M[0, 0] = np.sum(X * W)
    XW = X @ W
    M[0, 1:] = M[1:, 0] = XW[u, v] + XW[v, u]
    Xu, Xv, Wu, Wv = X.take(u, 0), X.take(v, 0), W.take(u, 0), W.take(v, 0)
    M[1:, 1:] = (Xv.take(u, 1) * Wu.take(v, 1) + Xv.take(v, 1) * Wu.take(u, 1)
                 + Xu.take(u, 1) * Wv.take(v, 1) + Xu.take(v, 1) * Wv.take(u, 1))
    return M


def _max_step(S: np.ndarray, dS: np.ndarray) -> float:
    """Largest alpha <= 1 keeping S + alpha dS positive definite, damped."""
    L_inv = np.linalg.inv(np.linalg.cholesky(S))
    lam = np.linalg.eigvalsh(L_inv @ dS @ L_inv.T)[0]
    return 1.0 if lam >= 0 else min(1.0, -_STEP_FRACTION / lam)


def _residuals(X, y, Z, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Primal residual b - A(X) and dual residual J - A^T(y) + Z (J all ones)."""
    rp = -_constraints(X, u, v)
    rp[0] += 1.0
    return rp, 1.0 - _adjoint(y, len(X), u, v) + Z


def _status(X, y, rp, rd) -> tuple[float, float, float, float]:
    """(primal value, dual value, gap, max of the residual norms)."""
    pobj, dobj = float(X.sum()), float(y[0])
    return pobj, dobj, dobj - pobj, float(max(np.linalg.norm(rp), np.linalg.norm(rd)))


def _hkm_step(X, y, Z, rp, rd, u, v):
    """One Mehrotra predictor-corrector step along the HKM direction."""
    n = len(X)
    W = np.linalg.inv(Z)
    W = (W + W.T) / 2
    M = _schur(X, W, u, v)
    XZ = X @ Z
    mu = np.trace(XZ) / n

    def direction(rc):
        # A(dX) = rp,  A^T(dy) - dZ = rd,  dX Z + X dZ = rc, dX symmetrised
        dy = np.linalg.solve(M, _constraints((rc + X @ rd) @ W, u, v) - rp)
        dZ = _adjoint(dy, n, u, v) - rd
        dX = (rc - X @ dZ) @ W
        return (dX + dX.T) / 2, dy, dZ

    dX, dy, dZ = direction(-XZ)
    ap, ad = _max_step(X, dX), _max_step(Z, dZ)
    mu_aff = np.sum((X + ap * dX) * (Z + ad * dZ)) / n
    sigma = (mu_aff / mu) ** 3
    dX, dy, dZ = direction(sigma * mu * np.eye(n) - XZ - dX @ dZ)
    ap, ad = _max_step(X, dX), _max_step(Z, dZ)
    return X + ap * dX, y + ad * dy, Z + ad * dZ


def _not_converged(reason: str, status) -> ConvergenceError:
    pobj, dobj, gap, res = status
    return ConvergenceError(
        f"theta did not converge: {reason} (primal {pobj:.8g}, dual {dobj:.8g}, "
        f"gap {gap:.3g}, residual {res:.3g})",
        last_value=dobj,
        residual=max(gap, res),
    )


def lovasz_theta(g: Graph, tol: float = DEFAULT_TOL) -> float:
    """theta(G) within additive tol for graphs of at most 64 vertices.

    The value is the dual objective t of the last iterate, clamped to
    [1, n].  On return the duality gap and the norms of the primal and dual
    residuals are all at most tol, so t lies within tol of theta(G) and
    t + tol bounds theta(G) from above.  ``DEFAULT_MAX_ITER``, read when
    the solver is called, caps the number of interior-point iterations;
    about ten are typical.

    Raises InputError for an empty graph or tol outside (0, 1e-2], and
    CapExceededError for more than 64 vertices.  Raises ConvergenceError if
    the iteration budget runs out or the iteration breaks down numerically;
    it carries the dual value of the last finite iterate in ``last_value``
    and the largest of its gap and residual norms in ``residual``.
    """
    n = g.n_vertices
    if n < 1:
        raise InputError("graph must have at least one vertex")
    if n > MAX_VERTICES:
        raise CapExceededError(f"{n} vertices exceed the solver's limit of {MAX_VERTICES}")
    if not 0 < tol <= 1e-2:
        raise InputError("tol must lie in (0, 1e-2]")
    if n == 1:
        return 1.0
    edges = list(g.edges())
    if not edges:
        return float(n)

    u, v = (np.array(side, dtype=np.intp) for side in zip(*edges))
    X = np.eye(n) / n
    y = np.zeros(1 + len(edges))
    y[0] = n + 1.0
    Z = (n + 1.0) * np.eye(n) - 1.0
    rp, rd = _residuals(X, y, Z, u, v)
    # the start has gap n > tol, so the first test comes after a step
    status = _status(X, y, rp, rd)
    for _ in range(DEFAULT_MAX_ITER):
        try:
            X, y, Z = _hkm_step(X, y, Z, rp, rd, u, v)
        except np.linalg.LinAlgError as exc:
            raise _not_converged(f"numerical breakdown ({exc})", status) from exc
        rp, rd = _residuals(X, y, Z, u, v)
        new_status = _status(X, y, rp, rd)
        if not np.all(np.isfinite(new_status)):
            raise _not_converged("numerical breakdown (non-finite iterate)", status)
        status = new_status
        if max(status[2], status[3]) <= tol:
            return float(min(max(status[1], 1.0), float(n)))
    raise _not_converged(f"iteration budget of {DEFAULT_MAX_ITER} exhausted", status)
