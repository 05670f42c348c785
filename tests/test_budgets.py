"""Node budgets: the smallest budget each search answers in, what a search
that runs out reports, and the one place where a node budget runs out."""

import ast
import random
from itertools import count
from pathlib import Path

import pytest

import ixcap
from conftest import complement_rows, random_int_utility, random_utility
from ixcap.cli import corpus_path
from ixcap.errors import BudgetExceededError
from ixcap.graphs import (
    Graph,
    cycle_graph,
    graph_from_edges,
    independence_number,
    sender_graph,
)
from ixcap.lower_bounds import gamma, gamma_n
from ixcap.upper_bounds import in_perfect_whitelist
from ixcap.utility import load_utility, utility_from_graph, utility_from_json

PENTAGON = load_utility(corpus_path("pentagon.json"))
# the graph utility of perfbench's equilibrium structure k = 1
U7 = utility_from_graph(
    graph_from_edges(7, [(0, 2), (0, 3), (0, 5), (2, 3), (2, 5), (2, 6), (3, 4)]))
C9_COMPLEMENT = Graph(9, complement_rows(cycle_graph(9)))
CYCLIC = utility_from_json({"utility": [[0, -1, 0], [0, 0, -1], [-1, 0, 0]]})


@pytest.mark.parametrize("search, budget, answer", [
    (lambda b: independence_number(sender_graph(PENTAGON, 2), b)[0], 27, 5),
    (lambda b: independence_number(sender_graph(U7, 3), b)[0], 17, 64),
    (lambda b: in_perfect_whitelist(cycle_graph(7), b, alpha=3), 14, None),
    (lambda b: in_perfect_whitelist(C9_COMPLEMENT, b, alpha=2), 8, None),
], ids=["alpha-pentagon-2", "alpha-U7-3-base", "perfect-C7", "perfect-C9-complement"])
def test_smallest_budget(search, budget, answer):
    # every node a search spends is pinned: one node fewer runs out.
    # alpha-U7-3-base took 21 nodes while the cover search of its H, which
    # has the rows of I, ran an alpha search of its own.  The perfect-
    # cases took 5 and 57 path nodes of the perfectness test, then 24 and
    # 19 for an alpha search and a cover search from k = alpha up.  With
    # alpha given, they take one cover search at k = alpha, which proves
    # that no alpha cliques cover C7 (alpha 3) or C9's complement (alpha 2)
    assert search(budget) == answer
    with pytest.raises(BudgetExceededError):
        search(budget - 1)


def test_smallest_budget_of_the_subset_search():
    # 1697 nodes before each child's candidates lost the words that close a
    # 3-cycle of sum >= 0 with two members
    value, cert = gamma_n(CYCLIC, 2, node_budget=1138)
    assert (value, cert.optimal) == (4, True)
    value, cert = gamma_n(CYCLIC, 2, node_budget=1137)
    assert (value, cert.optimal) == (4, False)


@pytest.mark.parametrize("U, n", [(PENTAGON, 2), (U7, 3)], ids=["pentagon-2", "U7-3-base"])
def test_budget_error_best_never_falls(U, n):
    """Out of budget, ``best`` is the largest independent set of G known:
    None while the bases are searched, then |I|^n, the maximum search's
    incumbent, and alpha in the witness pass.  So it never exceeds alpha
    and never falls as the budget grows.  G_s^3 of U7 has 343 vertices
    and is searched between its bases; G_s^2 of the pentagon, with 25,
    is not."""
    g = sender_graph(U, n)
    alpha, _ = independence_number(g)
    bests = []
    for budget in count(1):
        try:
            independence_number(g, budget)
            break
        except BudgetExceededError as exc:
            bests.append(-1 if exc.best is None else exc.best)
    assert bests == sorted(bests)
    assert bests[-1] <= alpha


def _twelfth_random_draw():
    rng = random.Random(7)
    for i in range(12):
        U = (random_int_utility, random_utility)[i % 2](rng, rng.randint(3, 7))
    return U


@pytest.mark.parametrize("U", [
    utility_from_json({"utility": [[0, -2, 1, -1], [1, 0, -2, -1],
                                   [-2, 1, 0, -1], [-1, -1, -1, 0]]}),
    _twelfth_random_draw(),
], ids=["gamma-3-alpha-sym-4", "random-7-12"])
def test_gamma_budget_error_best_never_falls(U):
    """Out of budget, ``gamma``'s ``best`` is the size of a feasible subset
    or None, never the size of an independent set of G_s^Sym that the
    alpha search held; both inputs have Gamma(U) below alpha(G_s^Sym)."""
    value, cert = gamma(U)
    assert value < cert.alpha_sym
    bests = []
    for budget in range(1, 41):
        try:
            gamma(U, budget)
        except BudgetExceededError as exc:
            bests.append(-1 if exc.best is None else exc.best)
    assert bests == sorted(bests)
    assert bests[-1] <= value
    assert 0 < bests.count(-1) < len(bests)


def _budget_raises() -> list[tuple[str, str]]:
    """(module, enclosing function) of every ``raise BudgetExceededError``
    in the package's source."""
    sites = []

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "BudgetExceededError":
                    sites.append((module, scope))
            visit(child, inner, module)

    for path in sorted(Path(ixcap.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path.stem)
    return sites


def test_node_budgets_run_out_in_one_place():
    # the meter raises for every search; gamma re-raises an answer that
    # gamma_n could not prove optimal, with its size in ``best``
    assert sorted(_budget_raises()) == [("graphs", "_Meter.charge"), ("lower_bounds", "gamma")]
