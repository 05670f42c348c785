import random
from itertools import combinations

import pytest

from conftest import oracle_perfect, random_int_utility, random_symmetric_utility, random_utility
from ixcap.errors import BudgetExceededError, InputError
from ixcap.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    independence_number,
    path_graph,
    sender_graph,
)
from ixcap import upper_bounds
from ixcap.lower_bounds import gamma_n
from ixcap.upper_bounds import in_perfect_whitelist, is_two_valued_a_ge_b, xi_bracket
from ixcap.utility import (
    capped_max,
    incremented,
    symmetric_part,
    utility_from_graph,
    utility_from_json,
)


def _grid_graph(side: int):
    right = [(side * r + c, side * r + c + 1) for r in range(side) for c in range(side - 1)]
    down = [(side * r + c, side * (r + 1) + c) for r in range(side - 1) for c in range(side)]
    return graph_from_edges(side * side, right + down)


def _random_utilities(seed, count):
    rng = random.Random(seed)
    makers = (random_utility, random_symmetric_utility, random_int_utility)
    return [makers[i % 3](rng, rng.randint(2, 4)) for i in range(count)]


class TestXiBracket:
    @pytest.mark.parametrize("U", _random_utilities(127, 24))
    def test_invariants(self, U):
        n_max = 2
        b = xi_bracket(U, n_max=n_max)
        assert not b.warnings
        assert b.lower <= b.upper <= U.q
        own = []
        assert len(b.per_n) == n_max
        for k, record in enumerate(b.per_n, start=1):
            alpha, _ = independence_number(sender_graph(U, k))
            value, _ = gamma_n(U, k)
            alpha_sym, _ = independence_number(sender_graph(symmetric_part(U), k))
            own += [alpha ** (1.0 / k), value ** (1.0 / k)]
            # the bracket reports the per-blocklength values it compared
            assert (record["n"], record["alpha_sender"], record["gamma"],
                    record["alpha_sym"]) == (k, alpha, value, alpha_sym)
        # the lower side is U's own best bound, nothing else
        assert b.lower == max(own)
        if b.exact is not None:
            assert b.lower - 1e-9 <= b.exact.value <= b.upper + 1e-9

    @pytest.mark.parametrize("U", _random_utilities(131, 24))
    def test_dominating_utilities_never_win(self, U):
        # an entrywise larger utility has a supergraph of every G_s^n and
        # fewer feasible subsets, so neither of its bounds beats U's own
        for aux in (incremented(U), capped_max(U)):
            assert all(x >= y for ra, ru in zip(aux.u, U.u) for x, y in zip(ra, ru))
            for n in (1, 2):
                assert independence_number(sender_graph(aux, n))[0] <= \
                    independence_number(sender_graph(U, n))[0]
                assert gamma_n(aux, n)[0] <= gamma_n(U, n)[0]

    def test_closure_skipped_when_alpha_is(self):
        # C4 is perfect with no search, but its alpha search runs out of
        # budget: the closure that needs alpha(G_s) is skipped with a
        # warning.  On C5 the perfectness test runs out of the same budget
        for k, reason in ((4, "alpha(G_s^1) was not computed"),
                          (5, "perfectness test exceeded 1 nodes")):
            b = xi_bracket(utility_from_graph(cycle_graph(k)), n_max=1, node_budget=1)
            assert b.warnings[0].startswith("alpha(G_s^1) skipped")
            skipped = [w for w in b.warnings if w.startswith("perfect-graph closure skipped")]
            assert skipped == [f"perfect-graph closure skipped: {reason}"]
            assert b.upper_certificate["name"] != "perfect_graph_closure"
            # Gamma's searches run under the same node budget, so no lower
            # candidate survives and the bracket falls back to the trivial 1
            assert b.lower_certificate == {"name": "trivial", "n": 1}
            assert b.lower == 1 < 2 <= b.upper

    def test_perfectness_out_of_budget_is_a_warning(self):
        # the grid's alpha fits the budget but its perfectness test does not:
        # the closure is dropped with a warning, and theta still closes the
        # bracket at the integer alpha
        b = xi_bracket(utility_from_graph(_grid_graph(7)), n_max=1, node_budget=10_000)
        assert b.warnings == ("perfect-graph closure skipped: "
                              "perfectness test exceeded 10000 nodes",)
        assert b.upper_certificate["name"] == "theta_symmetric_part"
        assert (b.exact.base, b.exact.root) == (25, 1)

    @pytest.mark.parametrize("k, exact, upper", [(66, 33, 33), (65, None, 65)])
    def test_theta_skipped_above_the_solver_limit(self, k, exact, upper):
        # C66 is bipartite, so the perfect-graph closure pins it with no
        # theta; C65 has an odd hole, and only the alphabet bounds it
        b = xi_bracket(utility_from_graph(cycle_graph(k)), n_max=1)
        assert b.warnings == (f"theta(G_s^Sym) skipped: {k} vertices exceed "
                              "the solver's limit of 64",)
        assert b.theta_sym is None
        assert (b.exact.base if b.exact else None, b.upper) == (exact, upper)

    def test_every_search_out_of_budget_gives_the_trivial_lower(self, pentagon):
        b = xi_bracket(pentagon, n_max=2, node_budget=1)
        assert (b.lower, b.lower_certificate) == (1.0, {"name": "trivial", "n": 1})
        assert [w.split(" skipped: ")[0] for w in b.warnings] == [
            "alpha(G_s^1)", "gamma(U_1)", "alpha(G_s^2)", "gamma(U_2)"]
        assert [sorted(r) for r in b.per_n] == [["alpha_sender_error", "gamma_error", "n"]] * 2
        assert b.lower <= b.upper

    @pytest.mark.parametrize("U", [
        utility_from_graph(cycle_graph(5)),
        utility_from_json({"utility": [[0, 2, -1], [-1, 0, 2], [2, -1, 0]]}),
    ], ids=["symmetric", "two-valued"])
    def test_theta_is_solved_once(self, monkeypatch, U):
        # for both shapes G_s is G_s^Sym at n = 1, so one theta serves both
        assert U.is_symmetric() or is_two_valued_a_ge_b(U)
        calls = []
        solve = upper_bounds.lovasz_theta
        monkeypatch.setattr(upper_bounds, "lovasz_theta",
                            lambda g, **kw: calls.append(g) or solve(g, **kw))
        xi_bracket(U)
        assert len(calls) == 1

    def test_exact_is_reached_on_some_randoms(self):
        exact = sum(xi_bracket(U).exact is not None for U in _random_utilities(127, 24))
        assert exact >= 3


class TestPerfectWhitelist:
    def test_pentagon_is_not_whitelisted(self):
        assert not in_perfect_whitelist(cycle_graph(5))

    @pytest.mark.parametrize("graph", [
        cycle_graph(4), path_graph(4), complete_graph(4), cycle_graph(6),
        # neither bipartite, chordal, nor the complement of either
        graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (4, 6)]),
    ], ids=["C4", "P4", "K4", "C6", "C4+K3"])
    def test_small_perfect_graphs(self, graph):
        assert in_perfect_whitelist(graph)
        assert oracle_perfect(graph)

    def test_matches_the_definition_on_every_small_graph(self):
        imperfect = []
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = graph_from_edges(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
                perfect = oracle_perfect(g)
                assert in_perfect_whitelist(g) == perfect
                if not perfect:
                    imperfect.append(g)
        # the only imperfect graphs up to 5 vertices are the 12 labelled C5s,
        # the 2-regular graphs on 5 vertices
        assert len(imperfect) == 12
        assert all(g.n_vertices == 5 and {r.bit_count() for r in g.rows} == {2}
                   for g in imperfect)

    @pytest.mark.parametrize("graph", [
        cycle_graph(7),
        Graph(7, cycle_graph(7).complement_rows()),
        # the Petersen graph: its outer 5-cycle is an induced odd hole
        graph_from_edges(10, [*((i, (i + 1) % 5) for i in range(5)),
                              *((5 + i, 5 + (i + 2) % 5) for i in range(5)),
                              *((i, i + 5) for i in range(5))]),
    ], ids=["C7", "C7-complement", "Petersen"])
    def test_odd_holes_and_antiholes(self, graph):
        assert not in_perfect_whitelist(graph)
        assert not oracle_perfect(graph)

    def test_budget(self):
        # the bipartite 7 x 7 grid has millions of induced paths to rule out
        with pytest.raises(BudgetExceededError):
            in_perfect_whitelist(_grid_graph(7), budget=10_000)
        with pytest.raises(InputError):
            in_perfect_whitelist(cycle_graph(5), budget=0)
