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

On a d-regular G with 1 <= d <= n - 2 ``_regular_theta`` may pin theta
with no solver.  Hoffman's bound, theta(G) <= -n lam / (d - lam) for any lam
at or below the least eigenvalue of A (Lovász 1979, Theorem 9), is tight on
edge-transitive graphs, and theta(G) theta(co-G) >= n (Corollary 2) is tight
on vertex-transitive ones (Theorem 8).  A dyadic lam just below the float
eigenvalue, once an exact elimination of the integer matrix 2^k (A - lam I)
accepts it, gives an exact upper bound; the same on the complement gives an
exact lower bound.  Where the two meet within tol/2, theta needs no solve.
"""

from __future__ import annotations

import math

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


def _positive_definite(m: list[list[int]]) -> bool:
    """Whether the symmetric integer matrix m is positive definite: by
    Sylvester's criterion, whether each leading principal minor is positive.
    Fraction-free (Bareiss) elimination makes the k-th pivot the k-th minor,
    and each division is exact.  Each step keeps the rest symmetric, so only
    its upper triangle is updated, and m is overwritten."""
    prev = 1
    for k, row in enumerate(m):
        pivot = row[k]
        if pivot <= 0:
            return False
        for i in range(k + 1, len(m)):
            m[i][i:] = [(x * pivot - row[i] * y) // prev for x, y in zip(m[i][i:], row[i:])]
        prev = pivot
    return True


def _regular_theta(g: Graph, tol: float) -> dict | None:
    """theta(G) pinned within tol/2 with no solver, or None.

    Applies to a d-regular g with 1 <= d <= n - 2 and at most
    ``MAX_VERTICES`` vertices.  One ``eigvalsh`` of A gives its least
    eigenvalue and that of the complement's A' = J - I - A, -1 - lam_2, since
    A' has the eigenvalue -1 - lam on each eigenvector of A orthogonal to the
    all-ones vector.  Each is rounded down to a dyadic p / 2^k, at least one
    step of 2^-k > 4 n d 2^-52 below the float value, and accepted only when
    ``_positive_definite`` accepts the integer matrix 2^k (A - lam I).  Then
    h = -n lam / (d - lam) >= theta(G), the complement's h' >= theta(co-G),
    and theta(G) >= n / h'.  The result is the certificate
    ``{"theta": h rounded up, "theta_lower": n / h' rounded down, "regular":
    True, "lambda": "p/2^k", "co_lambda": "p'/2^k"}`` when h - n / h' <=
    tol / 2, and None when a bound is refused or the two do not meet.  They
    meet on C5 and the Kneser and Paley graphs, and not on C7, C9, 2 C5 or
    C5 + K3.
    """
    n, d = g.n_vertices, g.rows[0].bit_count() if g.rows else 0
    if not (n <= MAX_VERTICES and 1 <= d <= n - 2
            and all(r.bit_count() == d for r in g.rows)):
        return None
    adj = [[r >> j & 1 for j in range(n)] for r in g.rows]
    lam = np.linalg.eigvalsh(np.array(adj, dtype=float))
    k = 50 - (n * d).bit_length()
    bounds = []
    for degree, least, co in ((d, lam[0], 0), (n - 1 - d, -1 - lam[-2], 1)):
        p = math.floor(least * 2**k) - 1
        if not _positive_definite([[((i != j) - a if co else a) * 2**k - (p if i == j else 0)
                                    for j, a in enumerate(row)] for i, row in enumerate(adj)]):
            return None
        bounds.append((-n * p, degree * 2**k - p, f"{p}/2^{k}"))
    # h = a / b and n / h' = n b' / a', all four positive; the gap h - n / h'
    # is (a a' - n b b') / (b a'), compared with tol / 2 on integers
    (a, b, lam_text), (co_a, co_b, co_text) = bounds
    tol_num, tol_den = tol.as_integer_ratio()
    if 2 * (a * co_a - n * b * co_b) * tol_den > tol_num * b * co_a:
        return None
    # each quotient of integers is correctly rounded, so one step outwards
    # bounds the exact value
    return {"theta": math.nextafter(a / b, math.inf),
            "theta_lower": math.nextafter(n * co_b / co_a, -math.inf),
            "regular": True, "lambda": lam_text, "co_lambda": co_text}
