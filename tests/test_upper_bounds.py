import random

import pytest

from conftest import random_int_utility, random_symmetric_utility, random_utility
from ixcap.graphs import (
    complete_graph,
    cycle_graph,
    independence_number,
    path_graph,
    sender_graph,
)
from ixcap.lower_bounds import gamma_n
from ixcap.upper_bounds import in_perfect_whitelist, xi_bracket
from ixcap.utility import capped_max, incremented, utility_from_graph


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
        for k in range(1, n_max + 1):
            alpha, _ = independence_number(sender_graph(U, k))
            value, _ = gamma_n(U, k)
            own += [alpha ** (1.0 / k), value ** (1.0 / k)]
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
        # C4 is perfect, but its alpha search runs out of budget: the
        # closure that needs alpha(G_s) is skipped with a warning, as on C5
        for k, perfect in ((4, True), (5, False)):
            b = xi_bracket(utility_from_graph(cycle_graph(k)), n_max=1, node_budget=1)
            assert b.warnings[0].startswith("alpha(G_s^1) skipped")
            skipped = [w for w in b.warnings if w.startswith("perfect-graph closure skipped")]
            assert len(skipped) == perfect
            assert b.upper_certificate["name"] != "perfect_graph_closure"
            assert b.lower == 2 <= b.upper

    def test_exact_is_reached_on_some_randoms(self):
        exact = sum(xi_bracket(U).exact is not None for U in _random_utilities(127, 24))
        assert exact >= 3


class TestPerfectWhitelist:
    def test_pentagon_is_not_whitelisted(self):
        assert not in_perfect_whitelist(cycle_graph(5))

    @pytest.mark.parametrize("graph", [cycle_graph(4), path_graph(4), complete_graph(4)],
                             ids=["C4", "P4", "K4"])
    def test_small_perfect_graphs(self, graph):
        assert in_perfect_whitelist(graph)
