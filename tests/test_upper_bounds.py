import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import ixcap.upper_bounds
from conftest import (
    capped_max,
    complement_rows,
    complete_graph,
    incremented,
    oracle_alpha,
    oracle_clique_certificate,
    oracle_clique_cover,
    oracle_perfect,
    oracle_symmetric_graph,
    oracle_symmetric_part,
    path_graph,
    random_channel,
    random_int_utility,
    random_symmetric_utility,
    random_utility,
)
from ixcap.channel import identity_channel, make_channel
from ixcap.errors import BudgetExceededError, CapExceededError, ConvergenceError, InputError
from ixcap.graphs import (
    Graph,
    confusability_graph,
    cycle_graph,
    graph_from_edges,
    independence_number,
    sender_graph,
    strong_power,
    symmetric_sender_graph,
)
from ixcap import graphs, lower_bounds, upper_bounds
from ixcap.lower_bounds import gamma_n
from ixcap.theta import lovasz_theta
from ixcap.upper_bounds import (
    ExactValue,
    asymptotic_rate_bracket,
    in_perfect_whitelist,
    is_two_valued_a_ge_b,
    xi_bracket,
)
from ixcap.utility import Alphabet, UtilityMatrix, utility_from_graph, utility_from_json


def _grid_graph(side: int):
    right = [(side * r + c, side * r + c + 1) for r in range(side) for c in range(side - 1)]
    down = [(side * r + c, side * (r + 1) + c) for r in range(side - 1) for c in range(side)]
    return graph_from_edges(side * side, right + down)


def _grid_and_triangle(side: int, tied: bool = False):
    """The side x side grid beside a triangle: perfect, but neither it nor
    its complement is bipartite.  ``tied`` joins the grid's last corner to
    the triangle by one edge, a bridge."""
    n = side * side
    grid = _grid_graph(side)
    tie = [(n - 1, n)] if tied else []
    return graph_from_edges(n + 3, [*grid.edges(), (n, n + 1), (n + 1, n + 2), (n, n + 2),
                                    *tie])


def _c5_and_k1():
    """C5 beside an isolated vertex: imperfect and not regular, so theta
    needs the solver."""
    return graph_from_edges(6, list(cycle_graph(5).edges()))


def _chorded_grid(side: int):
    """The side x side grid with one chord across its first square: perfect
    and 2-connected, but neither it nor its complement is bipartite.  Every
    cycle through the chord enters vertex 0 by one of the square's two
    other corners, both adjacent to the chord's far end, so the graph has
    no odd hole, and only two triangles, too few for an odd antihole."""
    grid = _grid_graph(side)
    return graph_from_edges(side * side, [*grid.edges(), (0, side + 1)])


def _skewed_grid_utility(side: int):
    """A utility, neither symmetric nor two-valued, whose symmetric part is
    that of the graph utility of ``_chorded_grid(side)``."""
    grid = utility_from_graph(_chorded_grid(side))
    rows = [list(r) for r in grid.u]
    assert rows[0][2] == rows[2][0] == -1
    rows[0][2], rows[2][0] = 0, -2
    U = utility_from_json({"utility": rows})
    assert not U.is_symmetric() and not is_two_valued_a_ge_b(U)
    assert oracle_symmetric_part(U).u == grid.u
    return U


class TestShapePredicates:
    def test_integer_reads_match_the_fraction_definitions(self):
        # is_symmetric and is_two_valued_a_ge_b read the integer table
        # scale * u; on random, rescaled, symmetric and two-valued
        # utilities they agree with their definitions on the Fractions
        rng = random.Random(191)
        cases = []
        for _ in range(12):
            q = rng.randint(2, 5)
            hi, lo = (Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(2))
            two = [[0 if i == j else rng.choice((hi, -lo)) for j in range(q)] for i in range(q)]
            mirrored = [[two[max(i, j)][min(i, j)] for j in range(q)] for i in range(q)]
            cases += [random_utility(rng, q), random_symmetric_utility(rng, q),
                      random_int_utility(rng, q), utility_from_json({"utility": two}),
                      utility_from_json({"utility": mirrored})]
        cases += [UtilityMatrix(U.alphabet, tuple(tuple(x * Fraction(rng.randint(1, 9),
                                                                      rng.randint(1, 9))
                                                        for x in row) for row in U.u))
                  for U in cases]
        shapes = set()
        for U in cases:
            q = U.q
            symmetric = all(U.u[i][j] == U.u[j][i] for i in range(q) for j in range(q))
            values = {U.u[i][j] for i in range(q) for j in range(q) if i != j}
            two_valued = (len(values) == 2 and max(values) > 0 > min(values)
                          and max(values) >= -min(values))
            assert (U.is_symmetric(), is_two_valued_a_ge_b(U)) == (symmetric, two_valued)
            shapes.add((symmetric, two_valued))
        assert shapes == {(False, False), (True, False), (False, True), (True, True)}


def _count_solves(monkeypatch) -> list:
    """The rows of each graph that xi_bracket hands to the theta solver."""
    calls = []
    solve = upper_bounds.lovasz_theta
    monkeypatch.setattr(upper_bounds, "lovasz_theta",
                        lambda g, **kw: calls.append(g.rows) or solve(g, **kw))
    return calls


def _count_builds(monkeypatch) -> list:
    """The blocklength of each sender graph built, G_s^n and G_s^Sym,n
    alike, counted at the one kernel that builds them all."""
    built = []
    build = graphs._sign_graph
    monkeypatch.setattr(graphs, "_sign_graph",
                        lambda ints, n, *rest: built.append(n) or build(ints, n, *rest))
    return built


def _count_searches(monkeypatch) -> list:
    """The rows of each graph whose independence number a bracket
    searches, from either bounds module."""
    searched = []
    for module, name in ((upper_bounds, "independence_number"), (lower_bounds, "_alpha")):
        def search(g, *args, _search=getattr(module, name), **kw):
            searched.append(g.rows)
            return _search(g, *args, **kw)

        monkeypatch.setattr(module, name, search)
    return searched


def _q5_utilities(seed, count):
    """conftest's random rational and small-integer utilities at q = 5, the
    smallest alphabet whose G_s^Sym can be imperfect (a 5-cycle)."""
    rng = random.Random(seed)
    return [(random_utility, random_int_utility)[i % 2](rng, 5) for i in range(count)]


def _random_utilities(seed, count):
    rng = random.Random(seed)
    makers = (random_utility, random_symmetric_utility, random_int_utility)
    return [makers[i % 3](rng, rng.randint(2, 4)) for i in range(count)]


def _random_pairs(seed, count):
    """(utility, channel, n_max) at q <= 4 and n_max <= 2: the utilities of
    ``_random_utilities`` and channel rows on one or two outputs."""
    rng = random.Random(seed)
    makers = (random_utility, random_symmetric_utility, random_int_utility)
    pairs = []
    for i in range(count):
        q = rng.randint(2, 4)
        pairs.append((makers[i % 3](rng, q), random_channel(rng, q), 1 + i % 2))
    return pairs


class TestXiBracket:
    def test_small_powers_take_no_bounds(self, sandwich_calls):
        # at q = 4 and n_max = 2 every alpha search runs on at most 16
        # vertices, below the size from which a block graph is sandwiched
        rng = random.Random(131)
        for _ in range(4):
            xi_bracket(random_utility(rng, 4), n_max=2)
        assert sandwich_calls == []

    @pytest.mark.parametrize("U", _random_utilities(127, 24))
    def test_invariants(self, U):
        n_max = 2
        b = xi_bracket(U, n_max=n_max)
        assert not b.warnings
        assert b.lower <= b.upper <= U.q
        # blocklengths 1..m run, and only a closed bracket stops below n_max
        ran = [record["n"] for record in b.per_n]
        assert ran == list(range(1, len(ran) + 1))
        assert 1 <= len(ran) <= n_max
        assert len(ran) == n_max or b.exact is not None
        own = []
        for k in range(1, n_max + 1):
            alpha, _ = independence_number(sender_graph(U, k))
            value, _ = gamma_n(U, k)
            alpha_sym, _ = independence_number(sender_graph(oracle_symmetric_part(U), k))
            own += [alpha ** (1.0 / k), value ** (1.0 / k)]
            if k <= len(ran):
                # the bracket reports the per-blocklength values it compared
                record = b.per_n[k - 1]
                assert (record["alpha_sender"], record["gamma"],
                        record["alpha_sym"]) == (alpha, value, alpha_sym)
        # the lower side is U's own best bound at every n <= n_max, so
        # stopping early loses nothing
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

    @pytest.mark.parametrize("tol", [0.3, 0.0, -0.5])
    def test_tol_outside_the_solver_range_is_an_input_error(self, pentagon, tol):
        # a perfect G_s^Sym never reaches the solver, so the bracket checks
        # tol itself: at 0.3 the pentagon would otherwise close at 2, not
        # at its capacity sqrt(5)
        with pytest.raises(InputError, match=r"tol must lie in \(0, 1e-2\]"):
            xi_bracket(pentagon, n_max=1, tol=tol)
        assert xi_bracket(pentagon, n_max=2, tol=1e-2).exact == ExactValue(5, 2)

    def test_closure_skipped_when_alpha_is(self):
        # the alpha search of C4, which has a cover by alpha cliques, and of
        # C5, which has none, runs out of budget: the cover search needs
        # alpha, so the closure that needs it is skipped with a warning
        for k in (4, 5):
            b = xi_bracket(utility_from_graph(cycle_graph(k)), n_max=1, node_budget=1)
            assert b.warnings[0].startswith("alpha(G_s^1) skipped")
            skipped = [w for w in b.warnings if w.startswith("perfect-graph closure skipped")]
            assert skipped == ["perfect-graph closure skipped: alpha(G_s^1) was not computed"]
            assert b.upper_certificate["name"] != "perfect_graph_closure"
            # Gamma's searches run under the same node budget, so no lower
            # candidate survives and the bracket falls back to the trivial 1
            assert b.lower_certificate == {"name": "trivial", "n": 1}
            assert b.lower == 1 < 2 <= b.upper

    def test_perfectness_out_of_budget_is_a_warning(self):
        # the 7 x 7 grid's alpha search fits 30 nodes, but its cover search,
        # one node per vertex placed, does not: the closure is dropped with
        # a warning, and the solver's theta still closes the bracket at the
        # integer alpha
        b = xi_bracket(utility_from_graph(_grid_graph(7)), n_max=1, node_budget=30)
        assert b.warnings == ("perfect-graph closure skipped: "
                              "clique cover search exceeded 30 nodes",)
        assert b.upper_certificate["name"] == "theta_symmetric_part"
        assert (b.exact.base, b.exact.root) == (25, 1)
        # with the budget, each graph closes on alpha cliques: the chorded
        # grid's perfectness test took millions of nodes, its cover 49
        for g, alpha in ((_grid_graph(7), 25), (_grid_and_triangle(7, tied=True), 26),
                         (_chorded_grid(7), 24)):
            b = xi_bracket(utility_from_graph(g), n_max=1, node_budget=10_000)
            assert b.warnings == ()
            cert = b.upper_certificate
            assert (cert["name"], cert["alpha"], len(cert["cliques"])) == (
                "perfect_graph_closure", alpha, alpha)
            assert (b.exact.base, b.exact.root) == (alpha, 1)

    @pytest.mark.parametrize("k, exact, upper", [(66, 33, 33), (65, None, 65)])
    def test_theta_skipped_above_the_solver_limit(self, k, exact, upper):
        # C66 has a cover by 33 edges, its alpha: theta is 33, with no
        # solver, and the perfect-graph closure pins it.  C65 has alpha 32
        # and no cover by 32 cliques, so theta needs the solver, which does
        # not take 65 vertices, and only the alphabet bounds it.  Proving
        # that no such cover exists is exponential: the cover search stops
        # at SHORTCUT_NODE_BUDGET nodes, with a warning, within a second
        start = time.perf_counter()
        b = xi_bracket(utility_from_graph(cycle_graph(k)), n_max=1)
        assert time.perf_counter() - start < 1.0
        if exact:
            assert b.warnings == ()
            assert b.theta_sym == 33.0
        else:
            assert b.warnings == (
                f"theta(G_s^Sym) skipped: {k} vertices exceed the solver's limit of 64",
                "perfect-graph closure skipped: clique cover search exceeded "
                f"{upper_bounds.SHORTCUT_NODE_BUDGET} nodes")
            assert b.theta_sym is None
        assert (b.exact.base if b.exact else None, b.upper) == (exact, upper)

    def test_every_search_out_of_budget_gives_the_trivial_lower(self, pentagon):
        b = xi_bracket(pentagon, n_max=2, node_budget=1)
        assert (b.lower, b.lower_certificate) == (1.0, {"name": "trivial", "n": 1})
        assert [w.split(" skipped: ")[0] for w in b.warnings] == [
            "alpha(G_s^1)", "gamma(U_1)", "alpha(G_s^2)", "gamma(U_2)"]
        assert [sorted(r) for r in b.per_n] == [["alpha_sender_error", "gamma_error", "n"]] * 2
        assert b.lower <= b.upper

    @pytest.mark.parametrize("U, solves", [
        (utility_from_graph(_c5_and_k1()), 1),
        (utility_from_json({"utility": [[0, 2, -1], [-1, 0, 2], [2, -1, 0]]}), 0),
    ], ids=["symmetric", "two-valued"])
    def test_theta_is_solved_once(self, monkeypatch, U, solves):
        # for both shapes G_s is G_s^Sym at n = 1, so one theta serves both:
        # C5 + K1's is imperfect and not regular, so it needs the solver,
        # while the two-valued utility's G_s^Sym is K3, perfect, and its
        # theta is its alpha with no solver
        assert U.is_symmetric() or is_two_valued_a_ge_b(U)
        calls = _count_solves(monkeypatch)
        xi_bracket(U)
        assert len(calls) == solves

    def test_solver_runs_exactly_on_the_imperfect(self, monkeypatch):
        # theta is alpha on a G_s^Sym with a cover by alpha cliques, and the
        # eigenvalue pin settles a regular one, so the solver runs only on
        # the others; the oracles decide alpha = chi-bar by enumeration.
        # Every perfect graph has such a cover, and the only imperfect graph
        # on 5 vertices, C5, has none, which the pin settles.  No imperfect
        # graph on 6 vertices is regular, so there the solver runs on those
        # with no such cover
        calls = _count_solves(monkeypatch)
        rng = random.Random(157)
        kinds = Counter()
        for U in _q5_utilities(157, 400) + [
                (random_utility, random_int_utility)[i % 2](rng, 6) for i in range(200)]:
            calls.clear()
            b = xi_bracket(U, n_max=1)
            sym_graph = sender_graph(oracle_symmetric_part(U), 1)
            covered = oracle_alpha(sym_graph)[0] == oracle_clique_cover(sym_graph)
            pinned = not covered and len({r.bit_count() for r in sym_graph.rows}) == 1
            kinds[covered, pinned] += 1
            assert calls == ([] if covered or pinned else [sym_graph.rows])
            theta_named = b.upper_certificate["name"] == "theta_symmetric_part"
            assert ("cliques" in b.upper_certificate) == (
                covered and b.upper_certificate["name"] != "alphabet_size")
            assert b.upper_certificate.get("regular", False) == (pinned and theta_named)
            assert ("tol" in b.upper_certificate) == (not covered and not pinned and theta_named)
        assert kinds[False, True] > 0 and kinds[False, False] > 0

    def test_theta_of_a_perfect_graph_is_its_alpha(self):
        # every "cliques" certificate is checked from the definition: alpha
        # cliques of the Fraction G_s^Sym that partition the letters; the
        # solver is the oracle of the theta they pin
        solved = {}
        covered = 0
        for U in _q5_utilities(163, 400):
            b = xi_bracket(U, n_max=1)
            cert = b.upper_certificate
            if "cliques" not in cert:
                assert cert["name"] != "perfect_graph_closure"
                continue
            covered += 1
            assert oracle_clique_certificate(U, cert)
            alpha_sym = b.per_n[0]["alpha_sym"]
            assert b.theta_sym == b.upper == len(cert["cliques"]) == alpha_sym
            sym_graph = oracle_symmetric_graph(U)
            if sym_graph.rows not in solved:
                solved[sym_graph.rows] = lovasz_theta(sym_graph, tol=1e-6)
            assert abs(alpha_sym - solved[sym_graph.rows]) <= 1e-5
        assert covered > 300

    @pytest.mark.parametrize("side", [5, 7])
    def test_chorded_grids_close_on_their_cover(self, monkeypatch, side):
        # the chorded grid's perfectness test took 6537 path nodes at side
        # 5 and 2 699 025 (3.0 s) at side 7, beyond the cap of a verdict
        # that only spares the solver, which then ran.  Its cover by alpha
        # cliques places each vertex once, so the skewed utility closes at
        # the integer alpha with no solver, no tol and no warning
        alpha = {5: 12, 7: 24}[side]
        calls = _count_solves(monkeypatch)
        U = _skewed_grid_utility(side)
        b = xi_bracket(U, n_max=1)
        assert (len(calls), b.warnings, b.theta_sym, b.upper) == (0, (), alpha, alpha)
        assert (b.exact.base, b.exact.root) == (alpha, 1)
        assert b.upper_certificate.keys() == {"name", "theta", "cliques"}
        assert oracle_clique_certificate(U, b.upper_certificate, alpha)
        # one node per vertex: one fewer runs out
        grid = _chorded_grid(side)
        assert len(in_perfect_whitelist(grid, side * side, alpha)) == alpha
        with pytest.raises(BudgetExceededError):
            in_perfect_whitelist(grid, side * side - 1, alpha)

    def test_kneser_graph_closes_on_its_cover(self):
        # K(6, 2), the 2-sets of 6 letters joined when disjoint, is regular
        # and imperfect, and its theta was the eigenvalue pin's 5; a
        # 1-factorisation of K6 covers it by 5 cliques, its alpha
        sets = list(combinations(range(6), 2))
        U = utility_from_graph(graph_from_edges(15, [
            (i, j) for i, j in combinations(range(15), 2) if not set(sets[i]) & set(sets[j])]))
        b = xi_bracket(U, n_max=1)
        assert (b.upper_certificate["name"], b.upper_certificate["alpha"]) == (
            "perfect_graph_closure", 5)
        assert oracle_clique_certificate(U, b.upper_certificate)
        assert (b.exact.base, b.exact.root) == (5, 1)

    def test_one_sender_graph_per_blocklength_and_part(self, monkeypatch, pentagon):
        # G_s^n and G_s^Sym,n at each blocklength run: G_s^Sym is built
        # once, for the cover check, theta and Gamma(U_1) alike.  The
        # random utility closes at n = 1; the pentagon stays open there and
        # closes at n = 2, on sqrt(5), by the radical closure, whose strong
        # square of G_s^Sym the same kernel builds
        built = _count_builds(monkeypatch)
        for U, ran, powers in ((random_utility(random.Random(167), 5), 1, []),
                               (pentagon, 2, [2])):
            built.clear()
            b = xi_bracket(U, n_max=2)
            assert (len(b.per_n), b.exact is not None) == (ran, True)
            assert sorted(built) == [1, 1, 2, 2][:2 * ran] + powers

    def test_sym_graph_is_the_base_graph_under_the_closure(self, monkeypatch):
        # symmetric and two-valued-gain utilities have G_s^Sym = G_s at
        # n = 1, so xi_bracket builds one graph there instead of two
        rng = random.Random(173)
        closed = [random_symmetric_utility(rng, rng.randint(3, 5)) for _ in range(6)]
        for _ in range(6):
            q, b = rng.randint(3, 5), rng.randint(1, 3)
            a = rng.randint(b, 4)
            rows = [[0 if i == j else rng.choice((a, -b)) for j in range(q)] for i in range(q)]
            rows[0][1], rows[1][0] = a, -b
            closed.append(utility_from_json({"utility": rows}))
        others = [random_utility(rng, rng.randint(3, 5)) for _ in range(6)]
        built = _count_builds(monkeypatch)
        for U, closure in [(U, True) for U in closed] + [(U, False) for U in others]:
            assert closure == (U.is_symmetric() or is_two_valued_a_ge_b(U))
            if closure:
                assert sender_graph(U, 1).rows == sender_graph(oracle_symmetric_part(U), 1).rows
            built.clear()
            b = xi_bracket(U, n_max=2)
            # n = 1 builds one graph under the closure and two otherwise,
            # and every later blocklength run builds G_s^n and G_s^Sym,n
            assert sorted(built) == [1] * (1 if closure else 2) + [2] * (2 * len(b.per_n) - 2)

    def test_alpha_of_equal_rows_is_searched_once(self, monkeypatch):
        # where G_s^Sym has the rows of G_s at n = 1, under the closure or
        # not, Gamma(U_1) takes alpha(G_s^Sym) and its witness from the
        # alpha(G_s) search; its record is the one gamma_n gives alone
        searched = []
        search = upper_bounds.independence_number
        monkeypatch.setattr(upper_bounds, "independence_number",
                            lambda g, **kw: searched.append(g.n_vertices) or search(g, **kw))
        same = Counter()
        for U in _random_utilities(181, 30):
            equal = sender_graph(U, 1).rows == symmetric_sender_graph(U, 1).rows
            closure = U.is_symmetric() or is_two_valued_a_ge_b(U)
            searched.clear()
            record = xi_bracket(U, n_max=2).per_n[0]
            assert searched.count(U.q) == 1 + (not equal)
            value, cert = gamma_n(U, 1)
            assert (record["gamma"], record["gamma_subset"], record["alpha_sym"]) == (
                value, list(cert.labels), cert.alpha_sym)
            same[equal, closure] += 1
        assert same[True, True] and same[True, False] and same[False, False]
        assert not same[False, True]

    def test_each_graph_is_searched_once_per_bracket(self, pentagon, monkeypatch):
        # one memo of alpha searches per bracket: G_s^n, G_s^Sym,n and the
        # radical closure's power share a search where they share their
        # rows.  The pentagon's G_s^Sym,2, which has the rows of G_s^2, was
        # searched twice by each bracket, once for Gamma(U_2).  The rate
        # bracket runs two brackets, whose graphs may coincide (G_s = G_c =
        # K2): each is checked on its own
        searched = _count_searches(monkeypatch)
        counts = []
        bracket = upper_bounds.xi_bracket

        def checked(*args, **kw):
            searched.clear()
            b = bracket(*args, **kw)
            assert len(set(searched)) == len(searched)
            counts.append(len(searched))
            return b

        monkeypatch.setattr(upper_bounds, "xi_bracket", checked)
        for U in _random_utilities(181, 30):
            checked(U, n_max=2)
            # a search out of budget is not run again either
            checked(U, n_max=2, node_budget=1)
        for pair in _random_pairs(137, 30):
            asymptotic_rate_bracket(*pair)
        assert len(counts) == 120 and sum(counts) > 120
        counts.clear()
        checked(pentagon, n_max=2)
        assert counts == [2]  # G_s and G_s^2

    def test_a_search_out_of_budget_is_keyed_by_rows_alone(self, monkeypatch):
        # two-valued but not symmetric: G_s^2 and G_s^Sym,2 share their rows
        # under different tables, and a search's failure on one is its
        # failure on the other, so each row set is searched once
        U = utility_from_json({"utility": [[0, -1, 3, -1], [3, 0, -1, 3],
                                           [3, -1, 0, -1], [3, -1, 3, 0]]})
        assert is_two_valued_a_ge_b(U) and not U.is_symmetric()
        assert sender_graph(U, 2).rows == symmetric_sender_graph(U, 2).rows
        searched = _count_searches(monkeypatch)
        b = xi_bracket(U, n_max=2, node_budget=1)
        assert len(searched) == len(set(searched)) == 2
        assert b.warnings == (
            "alpha(G_s^1) skipped: independence search exceeded 1 nodes",
            "gamma(U_1) skipped: independence search exceeded 1 nodes",
            "perfect-graph closure skipped: alpha(G_s^1) was not computed",
            "alpha(G_s^2) skipped: independence search exceeded 1 nodes",
            "gamma(U_2) skipped: independence search exceeded 1 nodes")

    def test_radical_closure_reuses_the_alpha_of_equal_rows(self, pentagon, monkeypatch):
        # on the pentagon the strong square of G_s^Sym has the rows of
        # G_s^2, so the radical closure takes alpha = 5 from the lower
        # side's search of that 25-vertex graph instead of a second search
        searched = []
        search = upper_bounds.independence_number
        monkeypatch.setattr(upper_bounds, "independence_number",
                            lambda g, **kw: searched.append(g.rows) or search(g, **kw))
        square = sender_graph(pentagon, 2)
        assert strong_power(symmetric_sender_graph(pentagon, 1), 2).rows == square.rows
        b = xi_bracket(pentagon, n_max=2)
        assert b.exact == ExactValue(5, 2)
        assert searched.count(square.rows) == 1

    def test_radical_closure_skipped_leaves_the_bracket_open(self, pentagon, monkeypatch):
        # a strong power of G_s^Sym that cannot be built drops the radical
        # closure with a warning: the pentagon stays at sqrt(5) below and
        # its pinned theta above, with no tol and no exact value
        def refused(g, n):
            raise CapExceededError(f"{g.n_vertices}^{n} vertices exceed the cap")

        monkeypatch.setattr(upper_bounds, "strong_power", refused)
        b = xi_bracket(pentagon, n_max=2)
        assert b.warnings == ("radical closure check at n = 2 skipped: "
                              "5^2 vertices exceed the cap",)
        assert b.exact is None
        assert b.lower == pytest.approx(5 ** 0.5)
        assert b.lower_certificate["alpha"] == 5
        cert = b.upper_certificate
        assert sorted(cert) == ["co_lambda", "lambda", "name", "regular", "theta",
                                "theta_lower"]
        assert (cert["name"], cert["theta"], cert["regular"]) == (
            "theta_symmetric_part", b.theta_sym, True)
        assert b.upper == b.theta_sym
        assert cert["theta_lower"] <= 5 ** 0.5 <= b.theta_sym <= cert["theta_lower"] + 1e-9

    def test_raising_the_cap_never_changes_a_closed_answer(self, pentagon):
        # a closed bracket is the whole answer: a larger cap runs no further
        # blocklength and reports the very same bracket
        b = xi_bracket(pentagon, n_max=2)
        assert (b.exact, len(b.per_n)) == (ExactValue(5, 2), 2)
        assert xi_bracket(pentagon, n_max=3) == b
        closed = 0
        for U in _random_utilities(179, 60):
            b = xi_bracket(U, n_max=1)
            if b.exact is None:
                continue
            closed += 1
            assert xi_bracket(U, n_max=3) == b
        assert closed >= 40

    def test_exact_is_reached_on_some_randoms(self):
        exact = sum(xi_bracket(U).exact is not None for U in _random_utilities(127, 24))
        assert exact >= 3

    def test_symmetric_gamma_is_the_alpha_search(self, monkeypatch):
        """A symmetric U's feasible sets are the independent sets of G_s^n,
        so each Gamma record is the alpha search's, with no subset search
        and no Gamma warning, and equals ``gamma_n``'s.  Weighted 5-cycles
        do not close at n = 1, so their n = 2 records are checked too."""
        def subset_search(*args, **kw):
            raise AssertionError("a subset search ran on a symmetric utility")

        monkeypatch.setattr(upper_bounds, "_gamma_n", subset_search)
        rng = random.Random(241)
        utilities = [random_symmetric_utility(rng, rng.randint(2, 5)) for _ in range(30)]
        for _ in range(10):
            u = [[0] * 5 for _ in range(5)]
            for i, j in combinations(range(5), 2):
                u[i][j] = u[j][i] = (rng.choice((0, 1, 2)) if j - i in (1, 4)
                                     else rng.choice((-3, -2, -1)))
            utilities.append(utility_from_json({"utility": u}))
        at_two = skipped = 0
        for U in utilities:
            for record in xi_bracket(U, n_max=2).per_n:
                value, cert = gamma_n(U, record["n"])
                assert (record["gamma"], record["gamma_subset"], record["gamma_optimal"],
                        record["alpha_sym"]) == (value, list(cert.labels), True, cert.alpha_sym)
                at_two += record["n"] == 2
            # an alpha search out of budget takes Gamma's record with it
            starved = xi_bracket(U, n_max=1, node_budget=1)
            record = starved.per_n[0]
            assert ("gamma" in record) == ("alpha_sender" in record)
            assert not any(w.startswith("gamma") for w in starved.warnings)
            skipped += "alpha_sender_error" in record
        assert at_two >= 10 and skipped >= 10


class TestNoisyBracket:
    @pytest.mark.parametrize("U, channel, n_max", _random_pairs(137, 30))
    def test_invariants(self, U, channel, n_max):
        b = asymptotic_rate_bracket(U, channel, n_max=n_max)
        xi = xi_bracket(U, n_max=n_max)
        assert not b.warnings
        # the channel's certified lower bound is its best alpha(G_c^n)^(1/n)
        channel_lower = max(oracle_alpha(confusability_graph(channel, n))[0] ** (1.0 / n)
                            for n in range(1, n_max + 1))
        assert b.lower == min(xi.lower, channel_lower)
        assert b.lower <= b.upper <= min(xi.upper, U.q)
        if b.exact is not None:
            assert b.lower - 1e-9 <= b.exact.value <= b.upper + 1e-9

    @pytest.mark.parametrize("tol", [0.3, -0.5])
    def test_tol_is_checked_by_the_capacity_bracket(self, pentagon, tol):
        channel = identity_channel(pentagon.alphabet)
        with pytest.raises(InputError, match=r"tol must lie in \(0, 1e-2\]"):
            asymptotic_rate_bracket(pentagon, channel, n_max=1, tol=tol)

    def test_channel_on_another_alphabet_is_refused(self, pentagon, example1):
        # no bracket is computed for a 5-symbol utility and a 3-input channel
        with pytest.raises(InputError, match="alphabets differ in size"):
            asymptotic_rate_bracket(pentagon, identity_channel(example1.alphabet))


class TestAsymptoticRateBracket:
    # confusability graph K2 + K3: alpha = theta = 2, below the pentagon's
    # certified lower bound sqrt(5) but above its Gamma(U) = 2 - tol
    K2_K3 = [[1, 0, 0, 0, 0]] * 2 + [[0, 0, 1, 0, 0]] * 3
    # symbol i reaches outputs i and i + 1 mod 5: confusability graph C5
    C5 = [[Fraction(1, 2) if j in (i, (i + 1) % 5) else 0 for j in range(5)]
          for i in range(5)]
    # the same beside a noiseless symbol: confusability graph C5 + K1
    C5_K1 = [[*row, 0] for row in C5] + [[0] * 5 + [1]]

    def test_channel_side_closes_on_the_certified_lower(self, pentagon):
        # the perfect K2 + K3 closes the channel side at alpha(G_c) = 2,
        # reached by the pentagon's certified 5^(1/2); the channel's upper
        # is that integer, no longer theta(G_c) + tol
        channel = make_channel(Alphabet.of_size(5), self.K2_K3)
        b = asymptotic_rate_bracket(pentagon, channel)
        assert (b.exact.base, b.exact.root) == (2, 1)
        assert (b.lower, b.upper) == (2.0, 2.0)
        assert b.lower_certificate["name"] == "alpha_confusability_power"
        assert b.upper_certificate == {"name": "perfect_graph_closure", "alpha": 2,
                                       "cliques": [["0", "1"], ["2", "3", "4"]]}

    def test_a_perfect_channel_closes_the_rate_at_n1(self):
        # perfbench's seed-1 noisy job 7: G_c has the edges (0, 2), (0, 3),
        # (1, 3) and (2, 3), so C_0 = alpha(G_c) = 2, which the capacity's
        # certified Gamma(U_1) = 2 reaches; theta(G_c) + tol left it open
        U = utility_from_json({"utility": [
            ["0", "-10/27", "0", "0"], ["2/27", "0", "-4/3", "4/9"],
            ["-2/9", "4/9", "0", "0"], ["8/27", "-2/27", "-10/9", "0"]]})
        channel = make_channel(U.alphabet, [["1/3", 0, "2/3", 0], [0, 0, 0, 1], [0, 0, 1, 0],
                                            [0, 0, "2/3", "1/3"]])
        b = asymptotic_rate_bracket(U, channel, n_max=1)
        assert (b.exact.base, b.exact.root) == (2, 1)
        assert (b.lower, b.upper) == (2.0, 2.0)
        assert b.lower_certificate["name"] == "gamma_blocklength"
        assert b.upper_certificate == {"name": "perfect_graph_closure", "alpha": 2,
                                       "cliques": [["0", "2", "3"], ["1"]]}

    def test_an_edgeless_utility_over_c5_is_the_channels_radical(self):
        # every word is protected, so the rate is C_0(C5) = 5^(1/2), pinned
        # by the channel side's radical closure at n = 2
        U = utility_from_graph(graph_from_edges(5, []))
        b = asymptotic_rate_bracket(U, make_channel(U.alphabet, self.C5))
        assert (b.exact.base, b.exact.root) == (5, 2)
        assert b.lower_certificate["name"] == "alpha_confusability_power"
        assert b.upper_certificate["name"] == "theta_confusability"

    def test_a_closed_channel_side_builds_no_power(self, monkeypatch):
        # P4's graph utility over y -> {y, y + 1 mod 4}: G_c is the perfect
        # C4, so both sides close at n = 1 and no graph on X^n, n >= 2, is
        # built; the channel side built G_c^2 and G_c^3 (3 strong products).
        # Every block graph, strong powers and G_c^n included, comes from
        # the one sign kernel, so its blocklengths show every graph built
        blocklengths = []
        sign_graph = graphs._sign_graph
        monkeypatch.setattr(graphs, "_sign_graph",
                            lambda ints, n: blocklengths.append(n) or sign_graph(ints, n))
        U = utility_from_graph(path_graph(4))
        channel = make_channel(U.alphabet, [[Fraction(1, 2) if j in (i, (i + 1) % 4) else 0
                                             for j in range(4)] for i in range(4)])
        b = asymptotic_rate_bracket(U, channel, n_max=3)
        assert (b.exact.base, b.exact.root) == (2, 1)
        assert set(blocklengths) == {1}

    def test_unconverged_channel_theta_is_skipped(self, monkeypatch):
        def diverge(g, **kw):
            raise ConvergenceError("no convergence")

        # the solver runs on the channel's C5 + K1 only: the path utility's
        # G_s^Sym is perfect, so its theta is its alpha with no solver
        monkeypatch.setattr(ixcap.upper_bounds, "lovasz_theta", diverge)
        U = utility_from_graph(path_graph(6))
        channel = make_channel(Alphabet.of_size(6), self.C5_K1)
        b = asymptotic_rate_bracket(U, channel)
        assert b.warnings == ("theta(G_c) did not converge: no convergence",)
        # the channel's ceiling falls back to the alphabet size
        assert b.upper == min(xi_bracket(U).upper, 6.0)
        # the channel's C5 alone is regular, and its pinned theta needs no
        # solver: sqrt(5) is the rate's upper side, with no tol
        U = utility_from_graph(path_graph(5))
        b = asymptotic_rate_bracket(U, make_channel(Alphabet.of_size(5), self.C5))
        assert b.warnings == ()
        assert (b.upper_certificate["name"], b.upper_certificate["regular"]) == (
            "theta_confusability", True)
        assert b.upper == pytest.approx(5 ** 0.5, abs=1e-9)

    def test_channel_theta_skipped_above_the_solver_limit(self):
        # the identity channel's G_c on 66 symbols is edgeless, hence
        # perfect, and C66 is bipartite: both thetas are alphas, 66 and 33,
        # with no solver, although both graphs exceed its limit
        U = utility_from_graph(cycle_graph(66))
        b = asymptotic_rate_bracket(U, identity_channel(U.alphabet), n_max=1)
        assert b.warnings == ()
        assert (b.exact.base, b.exact.root) == (33, 1)

    def test_theta_of_a_perfect_channel_is_its_alpha(self, monkeypatch):
        # K2 + K3 + K1 is perfect, so theta(G_c) is alpha(G_c) = 3 with no
        # solver, and the channel's upper is the integer alpha of the
        # perfect-graph closure (it was theta + tol), reached by the
        # utility's certified 10^(1/2); the utility's own C5 + K1, which no
        # eigenvalue pin settles, is solved, once
        solved = []
        solve = ixcap.upper_bounds.lovasz_theta
        monkeypatch.setattr(ixcap.upper_bounds, "lovasz_theta",
                            lambda g, **kw: solved.append(g.rows) or solve(g, **kw))
        U = utility_from_graph(_c5_and_k1())
        channel = make_channel(Alphabet.of_size(6), [[*row, 0] for row in self.K2_K3]
                               + [[0] * 5 + [1]])
        b = asymptotic_rate_bracket(U, channel)
        assert solved == [sender_graph(U, 1).rows]
        assert b.upper_certificate == {"name": "perfect_graph_closure", "alpha": 3,
                                       "cliques": [["0", "1"], ["2", "3", "4"], ["5"]]}
        assert (b.exact.base, b.exact.root) == (3, 1)


class TestPerfectWhitelist:
    def test_pentagon_is_not_whitelisted(self):
        assert not in_perfect_whitelist(cycle_graph(5))

    @pytest.mark.parametrize("graph", [
        cycle_graph(4), path_graph(4), complete_graph(4), cycle_graph(6),
        # neither bipartite, chordal, nor the complement of either
        graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (4, 6)]),
    ], ids=["C4", "P4", "K4", "C6", "C4+K3"])
    def test_small_perfect_graphs(self, graph):
        cliques = in_perfect_whitelist(graph)
        assert len(cliques) == oracle_alpha(graph)[0]
        assert oracle_perfect(graph)

    def test_matches_the_definition_on_every_small_graph(self):
        # up to 5 vertices a graph has a cover by alpha cliques iff it is
        # perfect
        imperfect = []
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = graph_from_edges(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
                perfect = oracle_perfect(g)
                assert (in_perfect_whitelist(g) is not None) == perfect
                if not perfect:
                    imperfect.append(g)
        # the only imperfect graphs up to 5 vertices are the 12 labelled C5s,
        # the 2-regular graphs on 5 vertices
        assert len(imperfect) == 12
        assert all(g.n_vertices == 5 and {r.bit_count() for r in g.rows} == {2}
                   for g in imperfect)

    @pytest.mark.parametrize("graph", [
        cycle_graph(7),
        Graph(7, complement_rows(cycle_graph(7))),
        # the Petersen graph: alpha 4, but its cliques are edges
        graph_from_edges(10, [*((i, (i + 1) % 5) for i in range(5)),
                              *((5 + i, 5 + (i + 2) % 5) for i in range(5)),
                              *((i, i + 5) for i in range(5))]),
    ], ids=["C7", "C7-complement", "Petersen"])
    def test_odd_holes_and_antiholes(self, graph):
        assert not in_perfect_whitelist(graph)
        assert not oracle_perfect(graph)

    @pytest.mark.parametrize("side", [7, 8])
    def test_bipartite_and_cobipartite_need_no_path_search(self, side):
        # the 8 x 8 grid has over 10**7 induced paths to rule out, while its
        # cover by alpha cliques, and its complement's, places each vertex
        # once, after an alpha search of at most side * side nodes.  The
        # grid's alpha is a colour class of its chessboard colouring, its
        # complement's an edge
        grid = _grid_graph(side)
        for g, alpha in ((grid, (side * side + 1) // 2),
                         (Graph(side * side, complement_rows(grid)), 2)):
            assert len(in_perfect_whitelist(g, budget=2 * side * side)) == alpha

    def test_cliques_iff_alpha_is_the_cover_number(self):
        # on random graphs of up to 7 vertices, against enumeration: the
        # cliques come exactly where alpha = chi-bar, alpha of them, and
        # they partition the vertices.  Every perfect graph has them, and
        # so do some imperfect ones, such as C5 with a pendant vertex
        rng = random.Random(193)
        pendant = graph_from_edges(6, [*cycle_graph(5).edges(), (0, 5)])
        fixed = [cycle_graph(5), cycle_graph(7), Graph(7, complement_rows(cycle_graph(7)))]
        uncovered = 0
        for trial in range(200):
            n = rng.randint(1, 7)
            density = rng.choice((0.2, 0.5, 0.8))
            g = fixed[trial] if trial < len(fixed) else graph_from_edges(
                n, [e for e in combinations(range(n), 2) if rng.random() < density])
            alpha = oracle_alpha(g)[0]
            cliques = in_perfect_whitelist(g)
            assert (cliques is not None) == (alpha == oracle_clique_cover(g))
            if cliques is None:
                assert not oracle_perfect(g)
                uncovered += 1
                continue
            members = [[v for v in range(g.n_vertices) if c >> v & 1] for c in cliques]
            assert len(cliques) == alpha
            assert sorted(v for c in members for v in c) == list(range(g.n_vertices))
            assert all(g.has_edge(u, v) for c in members for u, v in combinations(c, 2))
        assert uncovered > len(fixed)
        assert len(in_perfect_whitelist(pendant)) == 3 and not oracle_perfect(pendant)
        # a caller's alpha skips the alpha search, not the check
        assert in_perfect_whitelist(pendant, alpha=3) == in_perfect_whitelist(pendant)

    def test_components_match_the_definition(self):
        # a graph on 5 or 6 vertices, where the smallest odd hole fits,
        # beside a smaller one: alpha and chi-bar add over components, so
        # the union has cliques iff each part has; half the large ones
        # start from a 5-cycle, so that some have none
        rng = random.Random(181)
        uncovered = 0
        cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        for trial in range(40):
            sizes = [rng.randint(5, 6), rng.randint(1, 4)]
            rng.shuffle(sizes)
            edges, start, covered = [], 0, True
            for size in sizes:
                ring = trial % 2 and size >= 5
                part = [(i, j) for i, j in combinations(range(size), 2)
                        if ring and (i, j) in cycle or rng.random() < (0.2 if ring else 0.5)]
                g = graph_from_edges(size, part)
                covered = covered and oracle_alpha(g)[0] == oracle_clique_cover(g)
                edges += [(start + i, start + j) for i, j in part]
                start += size
            g = graph_from_edges(start, edges)
            assert (in_perfect_whitelist(g) is not None) == covered
            uncovered += not covered
        assert uncovered > 0

    def test_a_long_path_with_the_callers_alpha(self):
        # with alpha given no alpha search runs, so the cover search itself
        # makes room for its one recursion level per vertex
        path = path_graph(1100)
        assert len(in_perfect_whitelist(path, alpha=550)) == 550

    def test_budget(self):
        # C65 has alpha 32 and no cover by 32 cliques, which only an
        # exhaustive search rules out
        with pytest.raises(BudgetExceededError):
            in_perfect_whitelist(cycle_graph(65), budget=10_000)
        with pytest.raises(InputError):
            in_perfect_whitelist(cycle_graph(5), budget=0)
