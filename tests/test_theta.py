import math
import random

import numpy as np
import pytest

from conftest import complete_graph, empty_graph, oracle_alpha, path_graph
from ixcap.errors import CapExceededError, ConvergenceError, InputError
from ixcap.graphs import (
    cycle_graph,
    graph_from_edges,
)
from ixcap.theta import lovasz_theta


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
