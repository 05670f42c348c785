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
        for k in range(1, n_max + 1):
            alpha, _ = independence_number(sender_graph(U, k))
            value, _ = gamma_n(U, k)
            assert b.lower >= alpha ** (1 / k) - 1e-12
            assert b.lower >= value ** (1 / k) - 1e-12
        if b.exact is not None:
            assert b.lower - 1e-9 <= b.exact.value <= b.upper + 1e-9

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
