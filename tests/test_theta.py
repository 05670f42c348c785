import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import complete_graph, empty_graph, oracle_alpha, path_graph
from ixcap import theta, upper_bounds
from ixcap.errors import CapExceededError, ConvergenceError, InputError
from ixcap.graphs import (
    cycle_graph,
    graph_from_edges,
)
from ixcap.theta import lovasz_theta
from ixcap.upper_bounds import xi_bracket
from ixcap.utility import utility_from_graph


def complete_bipartite(a, b):
    return graph_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def test_pentagon_is_sqrt5():
    assert lovasz_theta(cycle_graph(5), tol=1e-5) == pytest.approx(
        math.sqrt(5), abs=1e-4)


@pytest.mark.parametrize("q", range(1, 9))
def test_complete_graphs(q):
    assert lovasz_theta(complete_graph(q), tol=1e-5) == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("n", range(2, 9))
def test_paths_match_alpha(n):
    g = path_graph(n)
    alpha, _ = oracle_alpha(g)
    assert lovasz_theta(g, tol=1e-5) == pytest.approx(alpha, abs=1e-5)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (4, 4),
                                 (32, 32)])
def test_complete_bipartite_match_alpha(a, b):
    g = complete_bipartite(a, b)
    assert lovasz_theta(g, tol=1e-5) == pytest.approx(max(a, b), abs=1e-5)


def test_edgeless():
    assert lovasz_theta(empty_graph(7), tol=1e-5) == pytest.approx(7.0, abs=1e-6)


def test_theta_at_least_alpha_on_randoms():
    rng = random.Random(113)
    for _ in range(12):
        n = rng.randint(2, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = graph_from_edges(n, edges)
        alpha, _ = oracle_alpha(g)
        assert lovasz_theta(g, tol=1e-4) >= alpha - 1e-3


def test_petersen():
    petersen = graph_from_edges(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    ])
    assert lovasz_theta(petersen, tol=1e-5) == pytest.approx(4.0, abs=1e-5)


def test_validates_inputs():
    with pytest.raises(InputError):
        lovasz_theta(cycle_graph(5), tol=0.5)
    with pytest.raises(InputError):
        lovasz_theta(cycle_graph(5), tol=0.0)
    with pytest.raises(CapExceededError, match="65 vertices exceed the solver's limit of 64"):
        lovasz_theta(empty_graph(65))
    with pytest.raises(InputError) as info:
        lovasz_theta(empty_graph(0))
    assert (type(info.value), str(info.value)) == (
        InputError, "graph must have at least one vertex")


def test_budget_exhaustion_reports_last_iterate(monkeypatch):
    monkeypatch.setattr("ixcap.theta.DEFAULT_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="iteration budget of 2 exhausted") as err:
        lovasz_theta(cycle_graph(7), tol=1e-5)
    assert math.isfinite(err.value.last_value)
    assert math.isfinite(err.value.residual)


@pytest.mark.parametrize("fill", [0.0, math.nan])
def test_numerical_breakdown_is_a_convergence_error(monkeypatch, fill):
    # a singular or NaN Schur complement must surface as ConvergenceError
    # reporting the last finite iterate, not as numpy's LinAlgError or a NaN
    monkeypatch.setattr("ixcap.theta._schur",
                        lambda X, W, u, v: np.full((1 + len(u),) * 2, fill))
    with pytest.raises(ConvergenceError, match="numerical breakdown") as err:
        lovasz_theta(cycle_graph(7), tol=1e-5)
    assert math.isfinite(err.value.last_value)
    assert math.isfinite(err.value.residual)


def ix_schur(X, W, u, v):
    """The Schur complement by np.ix_ gathers, one grid per term: the
    reference the solver's row-then-column gathers must match bit for bit."""
    m = 1 + len(u)
    M = np.empty((m, m))
    M[0, 0] = np.sum(X * W)
    XW = X @ W
    M[0, 1:] = M[1:, 0] = XW[u, v] + XW[v, u]
    M[1:, 1:] = (X[np.ix_(v, u)] * W[np.ix_(u, v)] + X[np.ix_(v, v)] * W[np.ix_(u, u)]
                 + X[np.ix_(u, u)] * W[np.ix_(v, v)] + X[np.ix_(u, v)] * W[np.ix_(v, u)])
    return M


def test_schur_gathers_keep_every_iterate_bitwise(monkeypatch):
    # every iterate (X, y, Z) of 300 random graphs of 5-16 vertices, under
    # the solver's gathers and under the np.ix_ reference
    import ixcap.theta as theta

    step = theta._hkm_step
    iterates = []

    def recorded(*args):
        out = step(*args)
        iterates.append(tuple(a.tobytes() for a in out))
        return out

    monkeypatch.setattr(theta, "_hkm_step", recorded)
    rng = random.Random(239)
    graphs = []
    for _ in range(300):
        n = rng.randint(5, 16)
        p = rng.uniform(0.1, 0.9)
        graphs.append(graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                           if rng.random() < p]))
    runs = []
    for schur in (theta._schur, ix_schur):
        monkeypatch.setattr(theta, "_schur", schur)
        iterates.clear()
        values = []
        for g in graphs:
            try:
                values.append(lovasz_theta(g, tol=1e-5))
            except ConvergenceError as exc:
                values.append(("failed", exc.last_value))
        runs.append((values, list(iterates)))
    assert len(runs[0][1]) > 300
    assert runs[0] == runs[1]


# -- the eigenvalue pin of a regular graph ------------------------------------

def kneser(n, k):
    sets = list(combinations(range(n), k))
    return graph_from_edges(len(sets), [(i, j) for (i, a), (j, b) in combinations(enumerate(sets), 2)
                                        if not set(a) & set(b)])


def paley(p):
    squares = {x * x % p for x in range(1, p)}
    return graph_from_edges(p, [(i, j) for i, j in combinations(range(p), 2)
                                if (j - i) % p in squares])


def disjoint_union(*parts):
    edges, offset = [], 0
    for g in parts:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n_vertices
    return graph_from_edges(offset, edges)


def shifted(g, p, k, co=False):
    """The integer matrix 2^k (A - lam I), lam = p / 2^k, of g or, with co,
    of its complement."""
    return [[2**k * ((i != j) - (r >> j & 1) if co else r >> j & 1) - (p if i == j else 0)
             for j in range(g.n_vertices)] for i, r in enumerate(g.rows)]


def dyadic(text):
    p, k = text.split("/2^")
    return Fraction(int(p), 2 ** int(k))


#: edge- and vertex-transitive, and so are their complements: Hoffman's
#: bound is theta on both, and their product is the vertex count
PINNED = {"C5": (cycle_graph(5), math.sqrt(5)), "K(5,2)": (kneser(5, 2), 4.0),
          "K(6,2)": (kneser(6, 2), 5.0), "P13": (paley(13), math.sqrt(13)),
          "P17": (paley(17), math.sqrt(17))}


@pytest.mark.parametrize("name", PINNED)
def test_pin_settles_the_transitive_families(name):
    g, value = PINNED[name]
    pin = theta._regular_theta(g, 1e-3)
    assert pin is not None and pin["regular"] is True
    assert pin["theta_lower"] <= value <= pin["theta"] <= value + 1e-9
    # the solver's dual value lies within its own tol above theta
    assert abs(pin["theta"] - lovasz_theta(g, tol=1e-7)) <= 1e-7
    # both dyadics lie below the least eigenvalues of A and of J - I - A
    lam = np.linalg.eigvalsh(np.array([[r >> j & 1 for j in range(g.n_vertices)]
                                       for r in g.rows], dtype=float))
    assert dyadic(pin["lambda"]) < lam[0] and dyadic(pin["co_lambda"]) < -1 - lam[-2]


#: regular, but the complement's bound does not meet Hoffman's: C7, C9 and
#: 2 C5 are vertex-transitive, but their complements are not
#: edge-transitive, and C5 + K3 is not vertex-transitive
UNPINNED = {"C7": cycle_graph(7), "C9": cycle_graph(9),
            "C5+K3": disjoint_union(cycle_graph(5), complete_graph(3)),
            "2C5": disjoint_union(cycle_graph(5), cycle_graph(5))}


@pytest.mark.parametrize("name", UNPINNED)
def test_pin_leaves_the_others_to_the_solver(name, monkeypatch):
    # Hoffman's bound alone would loosen C5 + K3 to 3.578 against 1 + sqrt(5)
    g = UNPINNED[name]
    assert theta._regular_theta(g, 1e-3) is None
    U = utility_from_graph(g)
    b = xi_bracket(U, n_max=1)
    monkeypatch.setattr(upper_bounds, "_regular_theta", lambda g, tol: None)
    assert b == xi_bracket(U, n_max=1)
    assert "tol" in b.upper_certificate


def random_regular(rng):
    """A relabelled circulant on 5-10 vertices, or a union of two
    circulants with the same steps, none of them half of a part's size."""
    def circulant(n, steps):
        return graph_from_edges(n, sorted({tuple(sorted((i, (i + s) % n)))
                                           for i in range(n) for s in steps}))
    n = rng.randint(5, 10)
    parts = [n] if rng.random() < 0.6 or n < 6 else [n // 2, n - n // 2]
    most = n // 2 if len(parts) == 1 else (min(parts) - 1) // 2
    steps = rng.sample(range(1, most + 1), rng.randint(1, most))
    g = disjoint_union(*(circulant(m, steps) for m in parts))
    order = rng.sample(range(n), n)
    return graph_from_edges(n, [(order[u], order[v]) for u, v in g.edges()])


def test_pin_on_random_regular_graphs(monkeypatch):
    # every dyadic the exact check accepts lies below its float eigenvalue,
    # and every pinned theta is an upper bound.  Row 0 of 2^k (A - lam I)
    # is kept by the elimination: -p on the diagonal and 2^k or 0 beside it
    accepted = []
    check = theta._positive_definite

    def recorded(m):
        ok = check(m)
        if ok:
            accepted.append(Fraction(m[0][0], -max(m[0][1:])))
        return ok

    monkeypatch.setattr(theta, "_positive_definite", recorded)
    rng = random.Random(4721)
    kinds = Counter()
    for _ in range(60):
        g = random_regular(rng)
        n, d = g.n_vertices, g.rows[0].bit_count()
        assert all(r.bit_count() == d for r in g.rows)
        if not 1 <= d <= n - 2:
            continue
        accepted.clear()
        pin = theta._regular_theta(g, 1e-3)
        lam = np.linalg.eigvalsh(np.array([[r >> j & 1 for j in range(n)] for r in g.rows],
                                          dtype=float))
        assert len(accepted) == 2 or pin is None
        assert all(x < least for x, least in zip(accepted, (lam[0], -1 - lam[-2])))
        if pin is not None:
            assert pin["theta"] >= lovasz_theta(g, tol=1e-7) - 1e-6
        kinds[pin is not None, len(accepted)] += 1
    assert kinds[True, 2] and kinds[False, 2]


def test_the_check_refuses_a_lambda_at_or_above_the_least_eigenvalue():
    # A + 2I is singular on the Petersen graph (its least eigenvalue is -2)
    petersen = kneser(5, 2)
    assert not theta._positive_definite(shifted(petersen, -2, 0))
    assert theta._positive_definite(shifted(petersen, -2 * 2**10 - 1, 10))
    # the pin's lambda on C5 lies one step below floor(lam_min 2^k) / 2^k;
    # that floor is accepted, and one dyadic step above it, now above
    # lam_min = -(1 + sqrt(5)) / 2, is refused
    pin = theta._regular_theta(cycle_graph(5), 1e-3)
    p, k = map(int, pin["lambda"].split("/2^"))
    assert (p + 1) / 2**k < -(1 + math.sqrt(5)) / 2 < (p + 2) / 2**k
    assert theta._positive_definite(shifted(cycle_graph(5), p + 1, k))
    assert not theta._positive_definite(shifted(cycle_graph(5), p + 2, k))
    # the complement's matrix of C5, itself a C5, is checked the same way
    assert theta._positive_definite(shifted(cycle_graph(5), p + 1, k, co=True))
