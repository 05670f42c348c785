import dataclasses
import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LEX_COUNTEREXAMPLE,
    complement_rows,
    complete_graph,
    edge_count,
    empty_graph,
    is_independent,
    oracle_alpha,
    oracle_clique_cover,
    oracle_letter_rule,
    oracle_lex_least_mis,
    oracle_plus_transpose,
    oracle_sender_edges,
    oracle_sign_rows,
    oracle_symmetric_part,
    path_graph,
    random_channel,
    random_int_utility,
    random_symmetric_utility,
    random_utility,
)
from ixcap.channel import identity_channel, make_channel
from ixcap.cli import corpus_path
from ixcap.errors import BudgetExceededError, CapExceededError, InputError, VerificationError
import ixcap.graphs
import ixcap.utility
from ixcap.graphs import (
    Graph,
    confusability_graph,
    cycle_graph,
    graph_from_edges,
    graph_from_json,
    load_graph,
    independence_number,
    sender_graph,
    strong_power,
    strong_product,
    symmetric_sender_graph,
)
from ixcap.utility import (
    Alphabet,
    UtilityMatrix,
    load_utility,
    normalize_diagonal,
    utility_from_graph,
    utility_from_json,
)


#: the utility files of the bundled corpus, beside its channel files
CORPUS_UTILITIES = sorted(path for path in corpus_path("pentagon.json").parent.glob("*.json")
                          if not path.name.startswith("channel"))


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


class TestSenderGraph:
    def test_example1_is_path(self, example1):
        g = sender_graph(example1, 1)
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_remark1_blocklength_two(self, example1, example1_prime):
        g = sender_graph(example1, 2)
        gp = sender_graph(example1_prime, 2)
        i01, i10 = 1, 3  # base-3 indices of the sequences 01 and 10
        assert g.has_edge(i01, i10)
        assert not gp.has_edge(i01, i10)

    def test_all_negative_is_edgeless(self):
        U = utility_from_json({"utility": [[0, -1, -1], [-1, 0, -1], [-1, -1, 0]]})
        for n in (1, 2, 3):
            assert edge_count(sender_graph(U, n)) == 0

    def test_matches_definition_oracle(self):
        rng = random.Random(23)
        for _ in range(15):
            U = random_utility(rng, rng.randint(2, 3))
            for n in (1, 2):
                g = sender_graph(U, n)
                assert set(g.edges()) == oracle_sender_edges(U, n)

    def test_big_entry_fallback_path(self):
        # entries too large for the vectorized int64 route
        huge = 2**70
        U = utility_from_json({"utility": [[0, huge], [-huge - 1, 0]]})
        g = sender_graph(U, 2)
        assert set(g.edges()) == oracle_sender_edges(U, 2)

    def test_row_blocks_match_definition_oracle(self, monkeypatch):
        # blocks of a few rows each, so the transposed-utility half of every
        # block matters on these asymmetric utilities
        monkeypatch.setattr(ixcap.utility, "BLOCK_CELLS", 40)
        rng = random.Random(37)
        for _ in range(10):
            U = random_utility(rng, rng.randint(2, 3))
            for n in (1, 2, 3):
                g = sender_graph(U, n)
                assert set(g.edges()) == oracle_sender_edges(U, n)
        huge = 2**70
        U = utility_from_json({"utility": [[0, huge], [-huge - 1, 0]]})
        assert set(sender_graph(U, 3).edges()) == oracle_sender_edges(U, 3)

    @pytest.mark.parametrize("block_cells", [None, 40])
    def test_symmetric_graph_matches_oracle(self, monkeypatch, block_cells):
        # G_s^Sym,n from the integer table a + a^T against the sender graph
        # of the Fraction symmetric part, in one block and in row blocks
        if block_cells:
            monkeypatch.setattr(ixcap.utility, "BLOCK_CELLS", block_cells)
        rng = random.Random(43)
        utilities = [random_utility(rng, rng.randint(2, 4)) for _ in range(8)]
        utilities += [random_int_utility(rng, rng.randint(2, 4)) for _ in range(8)]
        huge = 2**70  # a + a^T holds 2 * huge + 1 and -2 * huge: the object-dtype path
        utilities.append(utility_from_json({"utility": [[0, huge, -huge], [huge + 1, 0, 1],
                                                        [-huge, -2, 0]]}))
        for U in utilities:
            for n in (1, 2, 3):
                if U.q**n <= 27:
                    g = symmetric_sender_graph(U, n)
                    assert set(g.edges()) == oracle_sender_edges(oracle_symmetric_part(U), n)

    def test_symmetric_table_sums_each_block_once(self, monkeypatch):
        # a + a^T equals its transpose, so every row block is summed once;
        # an asymmetric G_s^n block also sums the transposed table's rows.
        # A table in one block is summed whole, once per graph when it is
        # symmetric, and an asymmetric one sums the transposed table whole
        # too.  At n = 1 the graph is the table's own sign pattern, and
        # nothing is summed
        calls = []
        expand = ixcap.graphs._expand_rows

        def counted(table, n, rows=None):
            calls.append(rows)
            return expand(table, n, rows)

        monkeypatch.setattr(ixcap.graphs, "_expand_rows", counted)
        U = utility_from_json({"utility": [[0, -1, 2], [1, 0, -3], [-2, 1, 0]]})
        for n in (1, 2, 3):
            for build, sums in ((symmetric_sender_graph, 1), (sender_graph, 2)):
                calls.clear()
                build(U, n)
                assert calls == ([] if n == 1 else [None] * sums)
        monkeypatch.setattr(ixcap.utility, "BLOCK_CELLS", 40)
        for n, blocks, asymmetric in ((1, 0, 0), (2, 3, 6), (3, 27, 54)):
            calls.clear()
            symmetric_sender_graph(U, n)
            assert len(calls) == blocks
            calls.clear()
            sender_graph(U, n)
            assert len(calls) == asymmetric
            assert all(rows is not None for rows in calls)

    def test_peak_memory_keeps_only_booleans(self):
        # each row block is compared with 0 as soon as it is summed: with
        # both directions' int64 sums alive at once, this q = 3, n = 8
        # sender graph of an asymmetric utility peaked at 88 MB traced
        U = random_int_utility(random.Random(5), 3, (-2, -1, 0, 1))
        tracemalloc.start()
        try:
            g = sender_graph(U, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n_vertices == 3**8
        assert peak < 64e6

    def test_packed_rows_hold_the_set_bits(self):
        rng = random.Random(7)
        for rows, cols in ((0, 0), (3, 0), (1, 1), (5, 9), (17, 17)):
            adj = np.array([[rng.random() < 0.5 for _ in range(cols)] for _ in range(rows)],
                           dtype=bool).reshape(rows, cols)
            expected = tuple(sum(1 << j for j in range(cols) if adj[i, j])
                             for i in range(rows))
            assert ixcap.graphs._pack_bool_rows(adj) == expected

    def test_near_cap_builds_in_seconds(self):
        # 3**9 = 19683 vertices, just under the default 20000-vertex cap
        U = utility_from_graph(path_graph(3))
        start = time.perf_counter()
        g = sender_graph(U, 9)
        assert time.perf_counter() - start < 60
        assert g.n_vertices == 19683
        # an edge joins two sequences whose letters differ by at most one
        # everywhere: the strong power of the path, checked on sampled rows
        rng = random.Random(41)
        seqs = list(product(range(3), repeat=9))
        for x in rng.sample(range(3**9), 25):
            expected = sum(
                1 << y for y in range(3**9)
                if y != x and all(abs(a - b) <= 1 for a, b in zip(seqs[x], seqs[y]))
            )
            assert g.rows[x] == expected

    def test_vertex_cap(self, pentagon, monkeypatch):
        # the cap is read when a graph is built: 5**3 = 125 vertices
        monkeypatch.setattr(ixcap.utility, "DEFAULT_VERTEX_CAP", 125)
        assert sender_graph(pentagon, 3).n_vertices == 125
        monkeypatch.setattr(ixcap.utility, "DEFAULT_VERTEX_CAP", 100)
        with pytest.raises(CapExceededError, match="125 vertices exceed the cap of 100"):
            sender_graph(pentagon, 3)
        with pytest.raises(CapExceededError):
            symmetric_sender_graph(pentagon, 3)
        with pytest.raises(CapExceededError):
            confusability_graph(identity_channel(pentagon.alphabet), 3)

    def test_a_huge_blocklength_is_refused_without_its_power(self, pentagon):
        # 3**10000 has more digits than an int may print; 5**10**6 would
        # take seconds to compute
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match=r"^5\^1000000 vertices exceed the cap"):
            sender_graph(pentagon, 10**6)
        with pytest.raises(CapExceededError, match=r"^5\^1000000 vertices"):
            strong_power(cycle_graph(5), 10**6)
        assert time.perf_counter() - start < 1


class TestStrongProducts:
    def test_edgeless_power(self):
        g = empty_graph(3)
        p = strong_power(g, 3)
        assert p.n_vertices == 27
        assert edge_count(p) == 0
        assert independence_number(p)[0] == 27

    def test_c5_square_alpha_five(self):
        p = strong_power(cycle_graph(5), 2)
        assert oracle_alpha(p)[0] == 5
        assert independence_number(p)[0] == 5

    def test_empty_graph_powers(self):
        # the 0-vertex graph has an empty letter table, whose powers are
        # the 0-vertex graph again
        g = graph_from_edges(0, [])
        for n in (1, 2, 3):
            p = strong_power(g, n)
            assert p.n_vertices == 0 and p.rows == ()
            assert independence_number(p) == (0, ())

    def test_complete_products(self):
        k3 = complete_graph(3)
        assert strong_product(k3, k3) == complete_graph(9)

    def test_matches_definition(self):
        # (a, b) ~ (a', b') iff a' in N[a] and b' in N[b], not both equal, on
        # pairs of unequal sizes, with 1-vertex, edgeless and complete factors
        rng = random.Random(47)
        factors = [empty_graph(1), empty_graph(4), complete_graph(1), complete_graph(5),
                   path_graph(3)] + [random_graph(rng, rng.randint(2, 7), rng.random())
                                     for _ in range(10)]
        for g1 in factors:
            for g2 in factors:
                n2 = g2.n_vertices
                p = strong_product(g1, g2)
                assert p.n_vertices == g1.n_vertices * n2
                for x in range(p.n_vertices):
                    a, b = divmod(x, n2)
                    expected = sum(
                        1 << (a2 * n2 + b2)
                        for a2 in range(g1.n_vertices) for b2 in range(n2)
                        if (a2 == a or g1.has_edge(a, a2)) and (b2 == b or g2.has_edge(b, b2))
                        and (a2, b2) != (a, b))
                    assert p.rows[x] == expected

    def test_power_splits_into_products(self):
        rng = random.Random(29)
        for _ in range(5):
            g = random_graph(rng, 4)
            lhs = strong_power(g, 3)
            rhs = strong_product(strong_power(g, 2), g)
            assert lhs == rhs
            rhs2 = strong_product(g, strong_power(g, 2))
            assert lhs == rhs2

    @given(st.integers(1, 5), st.integers(1, 4), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_power_is_the_left_fold(self, q, n, rng):
        # each step puts g on the left; the power is the same graph, in the
        # same numbering, as ((g x g) x g) x ..., and carries g's closed-
        # neighbourhood table at n >= 2
        g = random_graph(rng, q, rng.random())
        fold = g
        for _ in range(n - 1):
            fold = strong_product(fold, g)
        power = strong_power(g, n)
        assert power == fold
        closed = tuple(tuple(0 if a == b or g.has_edge(a, b) else -1 for b in range(q))
                       for a in range(q))
        assert power.letters == (None if n == 1 else (closed, n))

    def test_power_validates(self, monkeypatch):
        with pytest.raises(InputError, match="^blocklength must be at least 1$"):
            strong_power(cycle_graph(5), 0)
        monkeypatch.setattr(ixcap.utility, "DEFAULT_VERTEX_CAP", 100)
        with pytest.raises(CapExceededError):
            strong_power(cycle_graph(5), 3)
        with pytest.raises(CapExceededError):
            strong_product(cycle_graph(5), complete_graph(21))

    def test_vertex_ordering_is_row_major(self):
        g1 = path_graph(2)
        g2 = empty_graph(3)
        p = strong_product(g1, g2)
        # (a, b) -> a*3 + b; edges require both coordinates adjacent-or-equal
        assert p.has_edge(0, 3)  # (0,0)-(1,0)
        assert not p.has_edge(0, 4)  # (0,0)-(1,1): second coords differ, no edge


class TestShannonGeneralizationIdentity:
    def test_c5(self):
        c5 = cycle_graph(5)
        U = utility_from_graph(c5)
        for n in (1, 2, 3):
            assert sender_graph(U, n) == strong_power(c5, n)

    def test_path_above_single_block_size(self):
        # 3**8 = 6561 vertices: built in row blocks
        p3 = path_graph(3)
        assert sender_graph(utility_from_graph(p3), 8) == strong_power(p3, 8)

    def test_random_small_graphs(self):
        rng = random.Random(31)
        for _ in range(8):
            g = random_graph(rng, rng.randint(1, 4))
            U = utility_from_graph(g)
            for n in (1, 2):
                assert sender_graph(U, n) == strong_power(g, n)


class TestIndependenceNumber:
    def test_path_three(self, example1):
        g = sender_graph(example1, 1)
        alpha, witness = independence_number(g)
        assert alpha == 2
        assert witness == (0, 2)

    def test_edgeless_27(self):
        alpha, witness = independence_number(empty_graph(27))
        assert alpha == 27
        assert witness == tuple(range(27))

    def test_pentagon_square_graphs(self, pentagon, pentagon_literal):
        assert independence_number(sender_graph(pentagon, 2))[0] == 5
        assert independence_number(sender_graph(pentagon_literal, 2))[0] == 4

    def test_matches_oracle_on_randoms(self, monkeypatch):
        # count the witness searches that succeed: on sparse draws the
        # maximum set found first is often not the lexicographically least,
        # so the witness pass must replace it along the way.  Each search
        # asks for at least one vertex, as at_least requires
        refreshed = 0
        at_least = ixcap.graphs._CliqueSearch.at_least

        def counting(self, cand, target):
            nonlocal refreshed
            assert target >= 1
            found = at_least(self, cand, target)
            refreshed += found
            return found

        monkeypatch.setattr(ixcap.graphs._CliqueSearch, "at_least", counting)
        rng = random.Random(37)
        graphs = [random_graph(rng, rng.randint(1, 12), rng.uniform(0.2, 0.8)) for _ in range(30)]
        sparse = random.Random(41)
        graphs += [random_graph(sparse, sparse.randint(6, 14), sparse.uniform(0.05, 0.2))
                   for _ in range(30)]
        for g in graphs:
            alpha, witness = independence_number(g)
            expect_alpha, _ = oracle_alpha(g)
            assert alpha == expect_alpha
            assert is_independent(g, witness)
            assert witness == oracle_lex_least_mis(g, alpha)
        assert refreshed > 0

    def test_edgeless_witness_needs_no_search(self):
        # every vertex is in the maximum set found first, so the witness
        # pass spends no node of the budget
        alpha, witness = independence_number(empty_graph(500), budget=1000)
        assert alpha == 500
        assert witness == tuple(range(500))

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_an_input_error(self, budget):
        with pytest.raises(InputError):
            independence_number(cycle_graph(5), budget=budget)

    def test_witness_canonical_under_relabeling(self):
        # a graph with several maximum independent sets: the 6-cycle
        g = cycle_graph(6)
        alpha, witness = independence_number(g)
        assert alpha == 3
        assert witness == (0, 2, 4)

    def test_budget_error_carries_best(self):
        rng = random.Random(41)
        g = random_graph(rng, 14, 0.3)
        with pytest.raises(BudgetExceededError) as err:
            independence_number(g, budget=3)
        assert err.value.best is not None

    def test_empty_graph(self):
        alpha, witness = independence_number(Graph(0, ()))
        assert alpha == 0 and witness == ()


def all_graphs(n: int):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        yield graph_from_edges(n, [e for k, e in enumerate(pairs) if bits >> k & 1])


def search_sizes(monkeypatch) -> list[int]:
    """Record the vertex count of every maximum search from now on."""
    sizes = []
    maximum = ixcap.graphs._CliqueSearch.maximum

    def recording(self, *args):
        sizes.append(len(self.rows))
        return maximum(self, *args)

    monkeypatch.setattr(ixcap.graphs._CliqueSearch, "maximum", recording)
    return sizes


def clique_cover(g, k, budget=10**6):
    """The cover search's answer for g and k, after checking that a
    partition it returns is one of g's vertices into at most k cliques."""
    cliques = ixcap.graphs._clique_cover(g, k, ixcap.graphs._Meter(budget))
    if cliques is not None:
        assert len(cliques) <= k
        assert sum(cliques) == (1 << g.n_vertices) - 1
        assert sum(c.bit_count() for c in cliques) == g.n_vertices
        assert all(c & ~(g.rows[v] | 1 << v) == 0
                   for c in cliques for v in ixcap.graphs._bits(c))
    return cliques


class TestCliqueCover:
    def test_matches_partition_oracle_on_every_small_graph(self):
        # a partition into at most k cliques exists exactly when k is at
        # least the clique cover number, on every graph of <= 6 vertices
        for n in range(7):
            for g in all_graphs(n):
                cover = oracle_clique_cover(g)
                for k in range(n + 1):
                    assert (clique_cover(g, k) is not None) == (k >= cover)

    def test_beats_the_greedy_colour_count(self):
        # the base of the q = 7 cube below: greedy colouring of its
        # complement in index order needs 5 classes, the cover number is 4
        g = graph_from_edges(7, [(0, 2), (0, 3), (0, 5), (2, 3), (2, 5), (2, 6), (3, 4)])
        assert clique_cover(g, 3) is None
        assert len(clique_cover(g, 4)) == 4 == independence_number(g)[0]

    def test_charged_to_the_node_budget(self):
        with pytest.raises(BudgetExceededError):
            clique_cover(cycle_graph(7), 4, budget=3)


@pytest.fixture(params=["own order", "degree order"])
def search_order(request, monkeypatch):
    """Run the maximum search in each vertex order, whatever the graph size."""
    if request.param == "degree order":
        monkeypatch.setattr(ixcap.graphs, "ORDERED_MIN_VERTICES", 0)
    return request.param


class TestDegreeOrder:
    def test_matches_oracle_on_randoms(self, search_order):
        rng = random.Random(61)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 13), rng.uniform(0.05, 0.8))
            alpha, witness = independence_number(g)
            assert alpha == oracle_alpha(g)[0]
            assert witness == oracle_lex_least_mis(g, alpha)

    def test_witness_rules_each_fire(self, search_order):
        # the witness pass settles a vertex outside its maximum set by an
        # exchange, a partition bound or a search, and each rule keeps the
        # lexicographically least witness
        settled = Counter()
        rng = random.Random(61)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 13), rng.uniform(0.05, 0.8))
            meter = ixcap.graphs._Meter(10**6)
            alpha, witness = ixcap.graphs._alpha(g, meter)
            assert witness == oracle_lex_least_mis(g, alpha)
            settled += meter.settled
        assert set(settled) == {"exchange", "partition", "search"}

    def test_a_vertex_with_no_conflict_means_alpha_was_too_small(self, search_order):
        # the path 0 - 1 - 2 has alpha 2; handed 1 and the maximum set {2},
        # vertex 0 conflicts with no member, so {0, 2} beats the claim
        g = path_graph(3)
        copy = ixcap.graphs._SearchCopy(g)
        search = ixcap.graphs._CliqueSearch(copy.rows, ixcap.graphs._Meter(100))
        with pytest.raises(VerificationError, match="alpha is above 1"):
            ixcap.graphs._lex_least(g, 1, copy.inward(1 << 2), copy.rows, copy.new_of,
                                    search)

    def test_large_graphs_are_relabelled(self, monkeypatch):
        sizes = search_sizes(monkeypatch)
        relabelled = []
        pack = ixcap.graphs._pack_bool_rows
        monkeypatch.setattr(ixcap.graphs, "_pack_bool_rows",
                            lambda adj: relabelled.append(adj.shape[0]) or pack(adj))
        n = ixcap.graphs.ORDERED_MIN_VERTICES
        for size in (n - 1, n):
            assert independence_number(cycle_graph(size))[0] == size // 2
        assert sizes == [n - 1, n] and relabelled == [n]


def relabelled(rows, new_of) -> list[int]:
    """The graph with the given rows and vertex v renamed new_of[v], row by
    row."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        out[new_of[v]] = ixcap.graphs._relabel(row, new_of)
    return out


class TestSearchCopy:
    """A relabelled copy is built in row blocks, and never as one V x V
    matrix; its rows are g's own rows, relabelled."""

    def graphs(self):
        rng = random.Random(83)
        graphs = [random_graph(rng, rng.randint(60, 300), rng.uniform(0.05, 0.9))
                  for _ in range(12)]
        graphs += [_random_sender_power(seed, 4, 3) for seed in range(4)]
        return graphs + [empty_graph(64), complete_graph(65), strong_power(cycle_graph(5), 3)]

    def test_copy_is_the_relabelled_graph(self, monkeypatch):
        graphs = self.graphs()
        for cells in (None, 50):  # whole, then in blocks of a row or less
            if cells:
                monkeypatch.setattr(ixcap.utility, "BLOCK_CELLS", cells)
            for g in graphs:
                copy = ixcap.graphs._SearchCopy(g)
                assert copy.ordered
                assert list(copy.rows) == relabelled(g.rows, copy.new_of)
                assert sorted(copy.order) == list(range(g.n_vertices))

    def test_a_small_copy_is_the_graph_itself(self):
        g = cycle_graph(ixcap.graphs.ORDERED_MIN_VERTICES - 1)
        copy = ixcap.graphs._SearchCopy(g)
        assert not copy.ordered and copy.rows is g.rows

    @pytest.mark.parametrize("cells", [1, 50, 1000])
    def test_row_blocks_give_the_same_copy(self, monkeypatch, cells):
        graphs = self.graphs()
        whole = [ixcap.graphs._SearchCopy(g) for g in graphs]
        monkeypatch.setattr(ixcap.utility, "BLOCK_CELLS", cells)
        for g, copy in zip(graphs, whole):
            blocked = ixcap.graphs._SearchCopy(g)
            assert blocked.rows == copy.rows and blocked.order == copy.order

    @pytest.mark.parametrize("cells", [None, 50])
    def test_the_sign_kernels_block_gives_the_packed_rows_copy(self, monkeypatch, cells):
        # a search handed the sign kernel's packed block for its copy and a
        # search of the same rows with no block (packed by the copy itself)
        # give the same copy, alpha, witness and meter counts, whole and in
        # row blocks; the block stays apart from the graph
        if cells:
            monkeypatch.setattr(ixcap.utility, "BLOCK_CELLS", cells)
        rng = random.Random(241)
        tables = [(_random_sender_table(seed, q), n) for seed, (q, n) in
                  enumerate([(4, 3), (5, 3), (3, 4), (4, 3), (5, 3)])]
        tables += [(ixcap.graphs._plus_transpose(
            random_utility(rng, 4).scaled_integer_entries[1]), 3) for _ in range(3)]
        for t, n in tables:
            g, block = ixcap.graphs._sign_block(t, n)
            assert block is not None
            width = (g.n_vertices + 7) // 8
            assert block.shape == (g.n_vertices, width) and block.dtype == np.uint8
            assert block.tobytes() == ixcap.graphs._pack_rows(g.rows, width).tobytes()
            bare = Graph(g.n_vertices, g.rows, g.letters)
            handed = ixcap.graphs._SearchCopy(g, block)
            packed = ixcap.graphs._SearchCopy(bare)
            assert handed.ordered
            assert handed.rows == packed.rows and handed.order == packed.order
            meters = [ixcap.graphs._Meter(10**7) for _ in range(2)]
            answers = [ixcap.graphs._alpha(g, meters[0], packed=block),
                       ixcap.graphs._alpha(bare, meters[1])]
            assert answers[0] == answers[1]
            assert (meters[0].spent, meters[0].settled) == (meters[1].spent, meters[1].settled)
            assert g == bare and g == ixcap.graphs._sign_graph(t, n)

    def test_a_graph_holds_its_rows_and_no_array(self):
        # the sign kernel's block reaches a search by argument only, so a
        # graph is its vertex count, rows and letter table, and the table
        # is no part of its identity
        assert [f.name for f in dataclasses.fields(Graph)] == ["n_vertices", "rows", "letters"]
        g = _random_sender_power(3, 4, 3)
        assert g.letters is not None
        assert not [v for v in vars(g).values() if isinstance(v, np.ndarray)]
        bare = Graph(g.n_vertices, g.rows)
        assert bare == g and hash(bare) == hash(g) and repr(bare) == repr(g)
        assert g != Graph(g.n_vertices, (0,) * g.n_vertices, g.letters)

    def test_peak_memory_stays_near_the_graph(self):
        # a q = 3, n = 8 sender graph has 6561 vertices, 5.4 MB of packed
        # rows; the copy once unpacked them into one V x V matrix and read
        # 82 MB of traced peak, and in row blocks it stays within 4 times
        # the rows
        g = _random_sender_power(5, 3, 8)
        packed_bytes = g.n_vertices * ((g.n_vertices + 7) // 8)
        tracemalloc.start()
        try:
            copy = ixcap.graphs._SearchCopy(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(copy.rows) == g.n_vertices
        assert peak < 4 * packed_bytes

    def test_peak_memory_of_a_handed_block_stays_near_the_graph(self):
        # the same bound when the copy is handed the sign kernel's block
        # instead of packing the rows itself
        g, block = ixcap.graphs._sign_block(_random_sender_table(5, 3), 8)
        packed_bytes = g.n_vertices * ((g.n_vertices + 7) // 8)
        tracemalloc.start()
        try:
            copy = ixcap.graphs._SearchCopy(g, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert copy.rows == ixcap.graphs._SearchCopy(Graph(g.n_vertices, g.rows)).rows
        assert peak < 4 * packed_bytes


def stripped(g: Graph) -> Graph:
    """g's rows with no letter table, which no search sandwiches."""
    return Graph(g.n_vertices, g.rows)


def is_sandwiched(g: Graph) -> bool:
    """Whether independence_number(g) bounds g by its letter table, which
    only a block graph at n >= 2 carries."""
    return g.letters is not None and g.n_vertices >= ixcap.graphs.ORDERED_MIN_VERTICES


def lettered(n_vertices: int, rows, table, n: int) -> Graph:
    """A graph that claims the letter table (table, n), true or not."""
    return Graph(n_vertices, tuple(rows), (tuple(map(tuple, table)), n))


def edgeless_table(q: int):
    """The q x q table whose sign graph is edgeless."""
    return [[0 if a == b else -1 for b in range(q)] for a in range(q)]


@pytest.mark.usefixtures("search_order")
class TestBlockSandwich:
    """A block graph is searched between the bounds of its letter table;
    the answer is that of the same rows with no table.  In degree order
    (``ORDERED_MIN_VERTICES`` = 0) every block graph at n >= 2 is
    sandwiched, however small."""

    def assert_same_with_and_without(self, g):
        alpha, witness = independence_number(stripped(g))
        assert independence_number(g) == (alpha, witness)
        assert alpha == oracle_alpha(g)[0]
        assert witness == oracle_lex_least_mis(g, alpha)

    def test_sender_powers_match_plain_search_and_oracle(self):
        rng = random.Random(43)
        for q, n in ((3, 2), (4, 2), (3, 3)) * 4:
            U = random_utility(rng, q)
            self.assert_same_with_and_without(sender_graph(U, n))
            self.assert_same_with_and_without(symmetric_sender_graph(U, n))

    def test_nonzero_diagonal_gets_no_base(self):
        # u(x, x) = -1 would break the sandwich: 00 and 01 are independent in
        # G_s^2 (both block sums are -1), though G_s and G_s^Sym are both K2
        # and would claim a ceiling of 1. Such a matrix cannot be built, so
        # no sender graph carries its table; its column-shifted form does,
        # and the sandwiched search stays exact on it.
        rows = [[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        with pytest.raises(InputError, match="zero diagonal"):
            UtilityMatrix(Alphabet.of_size(2), tuple(map(tuple, rows)))
        U = normalize_diagonal(rows)
        self.assert_same_with_and_without(sender_graph(U, 2))
        rng = random.Random(53)
        for q, n in ((2, 3), (3, 2), (3, 3)) * 3:
            U = normalize_diagonal([[Fraction(rng.randint(-4, 3), rng.randint(1, 2))
                                     for _ in range(q)] for _ in range(q)])
            self.assert_same_with_and_without(sender_graph(U, n))

    def test_confusability_powers_match_plain_search_and_oracle(self):
        rng = random.Random(47)
        for q, n in ((3, 2), (4, 2), (3, 3)) * 3:
            supports = [rng.sample(range(q), rng.randint(1, 2)) for _ in range(q)]
            rows = [[Fraction(1, len(s)) if z in s else Fraction(0) for z in range(q)]
                    for s in supports]
            channel = make_channel(Alphabet.of_size(q), rows)
            self.assert_same_with_and_without(confusability_graph(channel, n))

    def test_product_set_at_the_ceiling_skips_the_maximum_search(self, monkeypatch):
        # C4 at n = 3: alpha = cover number = 2, so I^3 is maximum by the bounds
        sizes = search_sizes(monkeypatch)
        alpha, witness = independence_number(strong_power(cycle_graph(4), 3))
        assert alpha == 8
        assert witness == (0, 2, 8, 10, 32, 34, 40, 42)  # {0, 2}^3
        assert 64 not in sizes

    def test_noisy_cliff_inside_a_small_budget(self):
        # alpha(G_s^5) = 32 lies between 2^5 and the ceiling 3^5; the seed
        # I^5 is already maximum, and the search proves it within 1000 nodes
        U = normalize_diagonal([[0, -3, 1], [Fraction(-1, 2), 0, Fraction(3, 2)],
                                [Fraction(-5, 3), Fraction(-4, 3), 0]])
        alpha, witness = independence_number(sender_graph(U, 5), budget=1000)
        assert alpha == 32 and len(witness) == 32

    def test_orbit_pruning_on_every_sandwiched_search(self, monkeypatch):
        # a block graph is the sign graph of a letterwise sum, so every
        # coordinate permutation maps it onto itself: each sandwiched search
        # that the bounds leave open reads the type classes for its
        # incumbent, and again to prune its root by them unless that
        # incumbent meets the ceiling.  The same rows with no table get
        # neither bounds nor classes, and the same answer
        calls = []
        sandwich, type_classes = ixcap.graphs._sandwich, ixcap.graphs._type_classes

        def recorded_sandwich(g, *args):
            seed, ceiling, cliques = sandwich(g, *args)
            calls.append("settled" if seed.bit_count() == ceiling else "open")
            return seed, ceiling, cliques

        monkeypatch.setattr(ixcap.graphs, "_sandwich", recorded_sandwich)
        monkeypatch.setattr(ixcap.graphs, "_type_classes",
                            lambda q, n: calls.append("classes") or type_classes(q, n))
        rng = random.Random(71)
        seen = Counter()
        for n in (2, 3, 4) * 4:
            g = sender_graph(random_int_utility(rng, 3, (-2, -1, 0, 1)), n)
            calls.clear()
            assert independence_number(stripped(g)) == independence_number(g)
            if is_sandwiched(g):
                assert calls in (["settled"], ["open", "classes", "classes"])
            else:
                assert calls == []
            seen[tuple(calls)] += 1
        assert seen["open", "classes", "classes"]

    def test_noisy_cliff_at_k1_inside_a_small_budget(self):
        # perfbench's noisy structure (3, 5) k = 1: alpha(G_s^5) = 37 lies
        # strictly between 2^5 and 3^5.  Searched in index order, with no
        # orbits, the proof took about 1.5 * 10^5 nodes, most of them in the
        # witness pass; the witness is the one that search returns
        g = sender_graph(_noisy_k1_utility(), 5)
        alpha, witness = independence_number(g, budget=20_000)
        assert alpha == 37
        assert witness == (
            17, 23, 25, 35, 47, 51, 68, 70, 76, 89, 101, 105, 121, 122, 124, 130, 134,
            140, 142, 146, 148, 150, 154, 156, 176, 178, 184, 194, 196, 200, 202, 204,
            208, 210, 217, 219, 225)
        assert is_independent(g, witness)

    def test_dependent_seed_is_a_verification_error(self):
        # the edgeless table makes I^3 every vertex of a complete graph
        g = lettered(64, complete_graph(64).rows, edgeless_table(4), 3)
        with pytest.raises(VerificationError, match="not independent"):
            independence_number(g)

    def test_seed_above_its_ceiling_is_a_verification_error(self, monkeypatch):
        # no table can give it, since G_s^Sym is a subgraph of G_s and
        # alpha(G_s) <= alpha(G_s^Sym) <= its cover number; a faulty cover
        # search can, and the check refuses its ceiling 1 below |I^3| = 27.
        # Letters 0 and 1 are adjacent, so alpha(H) = 3 is below q = 4 and
        # the minimum cover is searched
        monkeypatch.setattr(ixcap.graphs, "_clique_cover",
                            lambda g, k, meter: [(1 << g.n_vertices) - 1])
        table = edgeless_table(4)
        table[0][1] = table[1][0] = 0
        g = lettered(64, empty_graph(64).rows, table, 3)
        with pytest.raises(VerificationError, match="above its ceiling"):
            independence_number(g)

    def test_bases_are_charged_to_the_node_budget(self):
        with pytest.raises(BudgetExceededError) as exc:
            independence_number(strong_power(cycle_graph(5), 3), budget=2)
        assert exc.value.best is None  # it ran out inside the bases' searches


def recorded_unions(monkeypatch) -> list[tuple[Graph, int, int]]:
    """Record (g, I^n, the incumbent) of every class search from now on."""
    unions = []
    best_union = ixcap.graphs._best_union

    def recorded(g, seed, meter):
        union = best_union(g, seed, meter)
        unions.append((g, seed, union))
        return union

    monkeypatch.setattr(ixcap.graphs, "_best_union", recorded)
    return unions


def assert_class_union(g: Graph, seed: int, union: int):
    """The incumbent is independent in g, a union of whole type classes,
    and holds at least the |I|^n words of I^n."""
    table, n = g.letters
    _, masks = ixcap.graphs._type_classes(len(table), n)
    assert is_independent(g, list(ixcap.graphs._bits(union)))
    assert all(union & m in (0, m) for m in masks)
    assert union.bit_count() >= seed.bit_count()


def random_sender_powers(rng: random.Random, sizes, repeats: int) -> list[Graph]:
    """Sender powers of random and small-integer utilities, each (q, n) of
    sizes repeats times."""
    graphs = []
    for q, n in sizes * repeats:
        graphs.append(sender_graph(random_utility(rng, q), n))
        graphs.append(sender_graph(random_int_utility(rng, q, (-2, -1, 0, 1)), n))
    return graphs


def random_confusability_powers(rng: random.Random, sizes, repeats: int) -> list[Graph]:
    """Confusability powers of random channels on one or two outputs each."""
    return [_confusability_power(
        [rng.sample(range(q), rng.randint(1, 2)) for _ in range(q)], n)
            for q, n in sizes * repeats]


class TestTypeClassIncumbent:
    """An open sandwiched search starts from the largest union of type
    classes that its class search finds, when that beats I^n; alpha and the
    witness stay those of a search of the same rows with no table."""

    def test_small_powers_match_the_oracle(self, monkeypatch):
        # in degree order every block graph at n >= 2 is sandwiched; a base
        # graph on at most 4 letters is perfect, so a confusability power
        # stays open only from 5 letters on
        monkeypatch.setattr(ixcap.graphs, "ORDERED_MIN_VERTICES", 0)
        unions = recorded_unions(monkeypatch)
        rng = random.Random(235)
        senders = random_sender_powers(
            rng, ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)), 2)
        channels = random_confusability_powers(rng, ((4, 2), (3, 3)), 2) + [
            _confusability_power([(y, (y + step) % 5) for y in range(5)], 2)
            for step in (1, 2)]
        for g in senders + channels:
            alpha, witness = independence_number(g)
            assert alpha == oracle_alpha(g)[0]
            assert witness == oracle_lex_least_mis(g, alpha)
            assert independence_number(stripped(g)) == (alpha, witness)
        assert {g.n_vertices for g, _, _ in unions} >= {8, 9, 16, 25, 27}
        for g, seed, union in unions:
            assert_class_union(g, seed, union)
        # on these strong powers I^n is as large as every union found; on
        # the sender powers unions gain
        assert any(union.bit_count() > seed.bit_count() for _, seed, union in unions)

    def test_large_powers_match_the_plain_search(self, monkeypatch):
        unions = recorded_unions(monkeypatch)
        rng = random.Random(229)
        for g in random_sender_powers(rng, ((4, 3), (3, 4), (4, 4)), 2):
            assert independence_number(stripped(g)) == independence_number(g)
        assert len(unions) >= 6
        for g, seed, union in unions:
            assert_class_union(g, seed, union)
        assert sum(union.bit_count() > seed.bit_count() for _, seed, union in unions) >= 3

    def test_rows_that_break_the_symmetry_are_a_verification_error(self):
        # the incumbent of the noisy-q4 graph holds the class of 0013; an
        # edge between 0013 and 0031, which the tests on the class's
        # highest word 3100 never read, makes that union dependent.  The
        # broken rows have alpha 18, so a search from the union's 19 words
        # would have reported a wrong alpha
        g = sender_graph(_noisy_q4_utility(), 4)
        rows = list(g.rows)
        rows[7] |= 1 << 13
        rows[13] |= 1 << 7
        broken = lettered(g.n_vertices, rows, *g.letters)
        assert independence_number(stripped(broken))[0] == 18
        with pytest.raises(VerificationError, match="union of type classes"):
            independence_number(broken)

    def test_class_search_spends_at_most_one_node_per_class(self):
        # 400 words in 210 classes, and an open sandwich
        U = random_int_utility(random.Random(1), 20, (-2, -1, 0, 1))
        g = sender_graph(U, 2)
        bases = ixcap.graphs._letter_bases(*g.letters, ixcap.graphs._Meter(10**6))
        seed, ceiling, _ = ixcap.graphs._sandwich(g, bases)
        assert seed.bit_count() < ceiling
        masks = ixcap.graphs._type_classes(20, 2)[1]
        meter = ixcap.graphs._Meter(10**6)
        union = ixcap.graphs._best_union(g, seed, meter)
        assert_class_union(g, seed, union)
        assert union.bit_count() < ceiling
        assert 0 < meter.spent <= len(masks) == 210


    def test_no_union_reaches_the_ceiling(self):
        # the class search has no stop at the ceiling cover_number(H)^n:
        # on open sandwiches no union it finds reaches it
        rng = random.Random(4601)
        sizes = [(q, n) for q in range(3, 7) for n in range(2, 5)]
        opened = Counter()
        while sum(opened.values()) < 300:
            q, n = rng.choice(sizes)
            U = (random_int_utility(rng, q, (-2, -1, 0, 1)) if rng.random() < 0.5
                 else random_utility(rng, q))
            t = U.scaled_integer_entries[1]
            g = ixcap.graphs._sign_graph(t, n)
            meter = ixcap.graphs._Meter(10**6)
            seed, ceiling, _ = ixcap.graphs._sandwich(
                g, ixcap.graphs._letter_bases(t, n, meter))
            if seed.bit_count() == ceiling:
                continue
            union = ixcap.graphs._best_union(g, seed, meter)
            assert_class_union(g, seed, union)
            assert union.bit_count() < ceiling
            opened[q, n] += 1
        assert set(opened) == set(sizes)


class TestLetters:
    """Every graph the library builds on X^n, n >= 2, records the table it
    is the sign graph of, and none at n = 1; the table is no part of the
    graph's identity."""

    def test_lettered_graphs_are_their_tables_sign_graphs(self):
        rng = random.Random(211)
        for _ in range(25):
            q, n = rng.randint(2, 4), rng.randint(1, 3)
            U = random_utility(rng, q)
            graphs = [sender_graph(U, n), symmetric_sender_graph(U, n),
                      confusability_graph(random_channel(rng, q), n),
                      strong_power(random_graph(rng, q, rng.random()), n)]
            for g in graphs:
                if n == 1:
                    assert g.letters is None
                    continue
                table, m = g.letters
                assert m == n and len(table) == q
                assert g == ixcap.graphs._sign_graph(table, n)
                assert all(table[a][a] == 0 for a in range(q))

    def test_edge_lists_and_products_carry_no_table(self):
        c5 = cycle_graph(5)
        c25 = strong_power(c5, 2)
        assert c25.letters is not None
        assert graph_from_edges(3, [(0, 1)]).letters is None
        assert strong_product(c25, c5).letters is None

    def test_single_letters_carry_no_table(self):
        U = utility_from_graph(cycle_graph(5))
        channel = identity_channel(Alphabet.of_size(3))
        for g in (strong_power(cycle_graph(5), 1), sender_graph(U, 1),
                  symmetric_sender_graph(U, 1), confusability_graph(channel, 1),
                  ixcap.graphs._sign_graph(edgeless_table(3), 1)):
            assert g.letters is None

    def test_first_power_of_a_large_graph_builds_no_table(self):
        # the closed-neighbourhood table of a 3000-vertex graph took 23.8 s
        # and 69 MB, and nothing at n = 1 reads it
        g = path_graph(3000)
        start = time.perf_counter()
        power = strong_power(g, 1)
        assert time.perf_counter() - start < 1
        assert power == g and power.letters is None

    def test_the_bases_are_the_graphs_own_rows(self):
        # the search reads a table only through q, n and its bases I and H,
        # and G's rows give both: (a, 0, ..) ~ (b, 0, ..) iff ab is an edge
        # of I, and (a, b, 0, ..) ~ (b, a, 0, ..) iff ab is an edge of H.  So
        # a memo of searches may key on rows alone (upper_bounds.xi_bracket)
        rng = random.Random(4509)
        for _ in range(300):
            q, n = rng.randint(2, 6), rng.randint(2, 3)
            t = [[0 if a == b else rng.randint(-3, 3) for b in range(q)] for a in range(q)]
            g = ixcap.graphs._sign_graph(t, n)
            first, second = q ** (n - 1), q ** (n - 2)
            i_rows = [sum(g.has_edge(a * first, b * first) << b for b in range(q))
                      for a in range(q)]
            h_rows = [sum(g.has_edge(a * first + b * second, b * first + a * second) << b
                          for b in range(q) if b != a) for a in range(q)]
            assert tuple(i_rows) == ixcap.graphs._sign_graph(t, 1).rows
            assert tuple(h_rows) == ixcap.graphs._sign_graph(
                ixcap.graphs._plus_transpose(t), 1).rows

    def test_table_is_no_part_of_identity(self):
        g = sender_graph(utility_from_graph(cycle_graph(5)), 2)
        plain = stripped(g)
        assert g == plain and hash(g) == hash(plain) and repr(g) == repr(plain)
        assert g == plain


def _noisy_k1_utility():
    return normalize_diagonal([[0, 0, -3], [Fraction(-4, 3), 0, Fraction(-4, 3)],
                               [1, -1, 0]])


def _noisy_q4_utility():
    return normalize_diagonal([[0, 60, -90, -150], [-75, 0, -90, -180],
                               [10, -150, 0, 90], [-30, 90, 15, 0]])


def _closed_q3_utility():
    """A q = 3 utility whose sender graph at n = 4 (81 words, alpha = 16)
    has a closed sandwich with I != H, so its witness pass walks g's rows
    and runs ``at_least`` searches with the partition rule on."""
    return utility_from_json({"utility": [[0, -3, -1], [1, 0, -1], [1, -1, 0]]})


def _random_sender_table(seed, q):
    """The integer table of a random {-2, -1, 0, 1} utility."""
    return random_int_utility(random.Random(seed), q, (-2, -1, 0, 1)).scaled_integer_entries[1]


def _random_sender_power(seed, q, n):
    return sender_graph(random_int_utility(random.Random(seed), q, (-2, -1, 0, 1)), n)


def _confusability_power(supports, n):
    """G_c^n of the channel that spreads each input evenly on its support."""
    q = len(supports)
    rows = [[Fraction(1, len(s)) if z in s else Fraction(0) for z in range(q)]
            for s in supports]
    return confusability_graph(make_channel(Alphabet.of_size(q), rows), n)


def _random_supports(seed, q):
    rng = random.Random(seed)
    return [rng.sample(range(q), 2) for _ in range(q)]


class TestPinnedSearchTree:
    """Each case's alpha with the fewest nodes its whole search takes, the
    bases' searches and the witness pass included: one node fewer runs out.
    A change to the branch order, the bounds or the pruning moves these
    counts, so the colouring kernel cannot change the search tree unseen.
    The two 49-vertex powers and random-60 lie below
    ``ORDERED_MIN_VERTICES``: they are searched in their own numbering,
    coloured from their last vertex, without bounds, incumbent or orbits.

    The type-class incumbent moved the four sender powers: noisy-cliff-k1
    from 11 749 nodes, sender-3 from 691 and sender-22 from 1 389, whose
    searches start from a union at alpha, and sender-5 from 6 152 by the 6
    nodes of its class search alone (its union of 15 words leaves the
    maximum search's tree as it was from I^5).  noisy-q4, the structure of
    perfbench's noisy job 10, took 1 363 nodes from I^4.  confusability-4
    took 12 nodes while H's cover search ran its own alpha search of the
    rows of I, whose |L| it now starts from.  closed-sender-4's sandwich is
    closed, so no maximum search runs: its 12 nodes are the bases' and the
    closed walk's 5 refused ``at_least`` searches."""

    @pytest.mark.parametrize("build, alpha, nodes", [
        (lambda: sender_graph(_noisy_k1_utility(), 5), 37, 7881),
        (lambda: _random_sender_power(3, 3, 5), 51, 34),
        (lambda: _random_sender_power(5, 3, 5), 21, 6158),
        (lambda: _random_sender_power(22, 3, 4), 19, 1395),
        (lambda: sender_graph(_noisy_q4_utility(), 4), 19, 806),
        (lambda: _confusability_power([(y, (y + 1) % 7) for y in range(7)], 2), 10, 1394),
        (lambda: _confusability_power(_random_supports(7, 7), 2), 10, 441),
        (lambda: _confusability_power(_random_supports(4, 6), 3), 27, 9),
        (lambda: random_graph(random.Random(1), 60, 0.25), 14, 562),
        (lambda: random_graph(random.Random(3), 90, 0.3), 13, 2203),
        (lambda: sender_graph(_closed_q3_utility(), 4), 16, 12),
    ], ids=["noisy-cliff-k1", "sender-3", "sender-5", "sender-22", "noisy-q4", "C7-squared",
            "confusability-7", "confusability-4", "random-60", "random-90",
            "closed-sender-4"])
    def test_node_count(self, build, alpha, nodes):
        g = build()
        assert independence_number(g, budget=nodes)[0] == alpha
        with pytest.raises(BudgetExceededError):
            independence_number(g, budget=nodes - 1)


def closed_sandwich_graphs():
    """Small block graphs whose sandwich closes: strong powers of perfect
    graphs (every graph of at most 4 vertices is; alpha = cover number, so
    |I|^n meets the ceiling) and sender graphs of sign tables with
    |I| = cover_number(H).  The letter rule answers the strong powers; it
    declines the sender graphs whose I differs from H, among them
    ``LEX_COUNTEREXAMPLE`` at n = 2."""
    rng = random.Random(223)
    graphs = []
    for q, n in ((3, 2), (4, 2), (2, 3), (3, 3)) * 3:
        supports = [rng.sample(range(q), rng.randint(1, 2)) for _ in range(q)]
        graphs.append(_confusability_power(supports, n))
        graphs.append(sender_graph(random_int_utility(rng, q, (-2, -1, 0, 1)), n))
    graphs.append(sender_graph(utility_from_json({"utility": LEX_COUNTEREXAMPLE}), 2))
    closed = []
    for g in graphs:
        bases = ixcap.graphs._letter_bases(*g.letters, ixcap.graphs._Meter(10**6))
        seed, ceiling, _ = ixcap.graphs._sandwich(g, bases)
        if seed.bit_count() == ceiling:
            closed.append(g)
    return closed


class TestClosedSandwich:
    """When |I|^n meets the ceiling, I^n is maximum: no maximum search runs,
    and the witness pass walks g's own rows, partitioned by the product
    cliques of H's minimum clique partition."""

    def test_witness_is_the_lex_least_maximum_set(self, monkeypatch):
        """Every closed graph's witness is the oracle's.  Each one walked
        g's rows before the letter rule; now only those whose I differs
        from H do, and the rule answers the others with no walk of g."""
        # in degree order every block graph at n >= 2 is sandwiched
        monkeypatch.setattr(ixcap.graphs, "ORDERED_MIN_VERTICES", 0)
        graphs = closed_sandwich_graphs()
        assert len(graphs) >= 12
        kinds = Counter()
        walks = Counter()
        lex_least = ixcap.graphs._lex_least

        def recorded(g, alpha, maxset, rows, new_of, search):
            # count each walk, and the partition rule's settles in closed ones
            before = search.meter.settled["partition"]
            witness = lex_least(g, alpha, maxset, rows, new_of, search)
            kind = type(search).__name__
            walks[kind] += 1
            walks[kind, "partition"] += search.meter.settled["partition"] - before
            return witness

        monkeypatch.setattr(ixcap.graphs, "_lex_least", recorded)
        sizes = search_sizes(monkeypatch)
        partitioned = 0
        for g in graphs:
            walks.clear()
            sizes.clear()
            alpha, witness = independence_number(g)
            # base I's walk is not closed; g's is, where the rule declines.
            # Only the bases are searched
            answered = oracle_letter_rule(g.letters[0])
            kinds[answered] += 1
            assert (walks["_ClosedSearch"], walks["_CliqueSearch"]) == (1 - answered, 1)
            assert max(sizes) == len(g.letters[0]) < g.n_vertices
            assert alpha == oracle_alpha(g)[0]
            assert witness == oracle_lex_least_mis(g, alpha)
            partitioned += walks["_ClosedSearch", "partition"]
            walks.clear()
            assert independence_number(stripped(g)) == (alpha, witness)
            assert walks["_ClosedSearch"] == 0
        assert partitioned > 0
        assert kinds[True] >= 6 and kinds[False] >= 3

    def test_searches_alone_give_the_same_witness(self, monkeypatch):
        # with the partition rule off, every vertex it would settle costs a
        # search on the copy built at the first one; none of these finds a
        # set, as the rule foresaw, and the witness is unchanged
        monkeypatch.setattr(ixcap.graphs, "ORDERED_MIN_VERTICES", 0)
        monkeypatch.setattr(ixcap.graphs, "_meets_fewer", lambda classes, rest, k: False)
        searched = []
        at_least = ixcap.graphs._ClosedSearch.at_least
        monkeypatch.setattr(ixcap.graphs._ClosedSearch, "at_least",
                            lambda self, cand, target: searched.append(target) or
                            at_least(self, cand, target))
        for g in closed_sandwich_graphs():
            alpha, witness = independence_number(g)
            assert witness == oracle_lex_least_mis(g, alpha)
        assert searched

    def test_searches_with_the_partition_rule_on(self, monkeypatch):
        # at its own size, with no threshold lowered, the closed walk of
        # closed-sender-4 settles 35 vertices by the partition rule and
        # runs 5 at_least searches, each of which refuses; with the rule
        # off, the walk runs 40 searches, all refused, and the witness
        # holds.  The meter's settled counts g's own walk alone: the walk
        # of its letter base I settles one more vertex, by the partition
        # rule or, with the rule off, by a search
        g = sender_graph(_closed_q3_utility(), 4)
        assert g.n_vertices >= ixcap.graphs.ORDERED_MIN_VERTICES
        found = []
        at_least = ixcap.graphs._ClosedSearch.at_least
        monkeypatch.setattr(ixcap.graphs._ClosedSearch, "at_least",
                            lambda self, cand, target: found.append(
                                at_least(self, cand, target)) or found[-1])
        meter = ixcap.graphs._Meter(10**6)
        alpha, witness = ixcap.graphs._alpha(g, meter)
        assert (alpha, meter.spent, found) == (16, 12, [False] * 5)
        assert meter.settled == {"exchange": 0, "partition": 35, "search": 5}
        monkeypatch.setattr(ixcap.graphs, "_meets_fewer", lambda classes, rest, k: False)
        found.clear()
        meter = ixcap.graphs._Meter(10**6)
        assert ixcap.graphs._alpha(g, meter) == (alpha, witness)
        assert found == [False] * 40
        assert meter.settled == {"exchange": 0, "partition": 0, "search": 40}

    def test_a_search_answers_in_the_graphs_own_numbering(self, monkeypatch):
        # the copy is numbered by degree; a search takes its candidates and
        # returns its set in g's numbering
        monkeypatch.setattr(ixcap.graphs, "ORDERED_MIN_VERTICES", 0)
        rng = random.Random(233)
        for g in closed_sandwich_graphs():
            meter = ixcap.graphs._Meter(10**6)
            cliques = ixcap.graphs._letter_bases(*g.letters, meter).cliques
            search = ixcap.graphs._ClosedSearch(g, meter, cliques)
            for _ in range(6):
                cand = rng.getrandbits(g.n_vertices)
                members = list(ixcap.graphs._bits(cand))
                induced = Graph(len(members), tuple(
                    sum(1 << k for k, u in enumerate(members) if g.has_edge(u, v))
                    for v in members))
                alpha = oracle_alpha(induced)[0]
                assert search.at_least(cand, alpha)
                assert search.best_mask & ~cand == 0
                assert search.best_mask.bit_count() == alpha
                assert is_independent(g, list(ixcap.graphs._bits(search.best_mask)))
                assert not search.at_least(cand, alpha + 1)
            assert search.copy.ordered

    def test_product_parts_partition_the_words_into_cliques(self):
        # the partition that a closed walk reads; no test input so far
        # keeps a vertex that the partition rule tests, so a missing part
        # would show only here
        rng = random.Random(227)
        graphs = [sender_graph(random_int_utility(rng, q, (-2, -1, 0, 1)), n)
                  for q, n in ((3, 2), (4, 2), (3, 3), (5, 2), (4, 3)) * 4]
        graphs += [_confusability_power(_random_supports(seed, 5), 3) for seed in range(4)]
        for g in graphs:
            meter = ixcap.graphs._Meter(10**6)
            seed, ceiling, cliques = ixcap.graphs._sandwich(
                g, ixcap.graphs._letter_bases(*g.letters, meter))
            parts = ixcap.graphs._ClosedSearch(g, meter, cliques).clique_partition()
            assert len(parts) == ceiling == len(cliques) ** g.letters[1]
            assert sum(parts) == (1 << g.n_vertices) - 1
            assert sum(p.bit_count() for p in parts) == g.n_vertices
            for p in parts:
                members = list(ixcap.graphs._bits(p))
                assert all(g.has_edge(u, v) for i, u in enumerate(members)
                           for v in members[i + 1:])
            if seed.bit_count() == ceiling:
                # the product set meets every part once
                assert all((p & seed).bit_count() == 1 for p in parts)

    def test_letter_rows_match_the_block_kernel(self):
        # an n = 1 sign graph reads its table in Python; the numpy kernel
        # that builds every longer block gives the same rows from its packed
        # block, also on entries past int64, which it sums as Python ints
        rng = random.Random(229)
        huge = 2**70
        for _ in range(60):
            q = rng.randint(1, 8)
            values = rng.choice([(-2, -1, 0, 1), (-huge, -huge + 1, huge - 1, huge)])
            table = [[0 if a == b else rng.choice(values) for b in range(q)] for a in range(q)]
            # H, the sign graph of t + t^T, is I of that symmetric table
            i, h = ixcap.graphs._letter_graphs(table)
            for t, rows in ((table, i.rows), (ixcap.graphs._plus_transpose(table), h.rows)):
                packed = ixcap.graphs._block_sign_rows(t, 1, q)
                assert packed.shape == (q, (q + 7) // 8) and packed.dtype == np.uint8
                assert rows == ixcap.graphs._packed_rows(packed)
                assert ixcap.graphs._sign_graph(t, 1).rows == rows


class TestLetterGraphs:
    """``_letter_graphs(t)`` gives, in one pass over the pairs of t, the
    sign graphs I of t and H of t + t^T that two passes of the definition,
    on t and on t + t^T, give."""

    def test_one_pass_is_the_two_pass_definition(self):
        rng = random.Random(263)
        tables = [[[rng.randint(-3, 3) for _ in range(q)] for _ in range(q)]
                  for q in (rng.randint(1, 9) for _ in range(500))]
        tables += [load_utility(path).scaled_integer_entries[1] for path in CORPUS_UTILITIES]
        tables += [ixcap.graphs._closed_table(random_graph(rng, q, rng.uniform(0.1, 0.9)))
                   for q in (rng.randint(1, 9) for _ in range(100))]
        ties = 0
        for t in tables:
            i, h = ixcap.graphs._letter_graphs(t)
            assert (i.n_vertices, h.n_vertices) == (len(t), len(t))
            assert i.rows == oracle_sign_rows(t)
            assert h.rows == oracle_sign_rows(oracle_plus_transpose(t))
            # the n = 1 sign graph, with no block, is I
            g, block = ixcap.graphs._sign_block(t, 1)
            assert g.rows == i.rows and block is None
            ties += any(t[x][y] + t[y][x] == 0 and t[x][y] for x in range(len(t))
                        for y in range(x))
        assert ties > 300

    def test_the_empty_table(self):
        empty = Graph(0, ())
        assert ixcap.graphs._letter_graphs(()) == (empty, empty)
        for n in (1, 2, 5):
            assert ixcap.graphs._sign_block((), n) == (empty, None)


def sign_symmetric_table(rng: random.Random, q: int):
    """A random q x q letter table whose sign graph is that of t + t^T: a
    symmetric utility's, a 0/-1 graph utility's or a strong power's."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_symmetric_utility(rng, q).scaled_integer_entries[1]
    g = random_graph(rng, q, rng.uniform(0.2, 0.8))
    if kind == 1:
        return utility_from_graph(g).scaled_integer_entries[1]
    return ixcap.graphs._closed_table(g)


class TestLetterRule:
    """A block graph whose table t has a sign graph I with the rows of H,
    the sign graph of t + t^T, and alpha(I) = cover_number(H) = c is
    answered from t alone: alpha = c^n, and L^n is the lexicographically
    least maximum set, L that of I.  No graph on X^n is built or walked."""

    def test_rule_is_the_oracle_and_the_walk(self):
        rng = random.Random(241)
        compared = Counter()
        for _ in range(120):
            q, n = rng.randint(2, 5), rng.randint(2, 3)
            t = sign_symmetric_table(rng, q)
            meter = ixcap.graphs._Meter(10**6)
            bases = ixcap.graphs._letter_bases(t, n, meter)
            assert bases.lex_least == oracle_letter_rule(t)
            if not bases.lex_least:
                continue
            g = ixcap.graphs._sign_graph(t, n)
            alpha, witness = len(bases.cliques) ** n, bases.words
            assert independence_number(stripped(g))[0] == alpha
            # the walk that answered a closed sandwich before the rule
            seed, ceiling, cliques = ixcap.graphs._sandwich(g, bases)
            assert (seed, ceiling) == (sum(1 << w for w in witness), alpha)
            assert witness == ixcap.graphs._lex_least(
                g, alpha, seed, g.rows, range(g.n_vertices),
                ixcap.graphs._ClosedSearch(g, meter, cliques))
            compared["walk"] += 1
            if g.n_vertices <= 64:
                assert witness == oracle_lex_least_mis(g, alpha)
                compared["oracle"] += 1
        assert compared["walk"] > compared["oracle"] >= 90

    def test_graph_and_table_paths_agree(self, monkeypatch):
        # from 64 vertices on, independence_number(g) answers by the rule
        # once its sandwich has checked I^n on g's rows, and the table path
        # answers with no g; a table that the rule declines builds g, the
        # sign graph of its letters, once, with its block
        rng = random.Random(251)
        built = []
        build = ixcap.graphs._sign_block
        monkeypatch.setattr(ixcap.graphs, "_sign_block",
                            lambda ints, n: built.append(n) or build(ints, n))
        for q, n in ((4, 3), (5, 3)) * 4:
            t = sign_symmetric_table(rng, q)
            g = build(t, n)[0]
            built.clear()
            answer = ixcap.graphs.block_independence_number(t, n)
            assert built.count(n) == (not oracle_letter_rule(t))
            assert answer == independence_number(g)

    def test_declines_where_I_differs_from_H(self):
        U = utility_from_json({"utility": LEX_COUNTEREXAMPLE})
        t = U.scaled_integer_entries[1]
        assert not oracle_letter_rule(t)
        bases = ixcap.graphs._letter_bases(t, 3, ixcap.graphs._Meter(10**6))
        # the sandwich closes at 8, yet the least maximum set is not L^3
        assert len(bases.words) == len(bases.cliques) ** 3 == 8
        assert not bases.lex_least
        assert 81 in bases.words and 74 not in bases.words
        answer = ixcap.graphs.block_independence_number(t, 3)
        assert answer == independence_number(ixcap.graphs._sign_graph(t, 3))
        assert answer == (8, (31, 33, 41, 43, 74, 83, 91, 93))


class TestColorOrder:
    def test_kmin_lists_the_classes_from_kmin_up(self):
        # the cut drops the low classes from the full colouring and nothing
        # else; kmin = 1 is the full greedy colouring itself.  The search on
        # the complement's rows colours into cliques of the complement, the
        # independent sets of g that greedy_coloring(g.rows) builds
        rng = random.Random(191)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 40), rng.uniform(0.05, 0.9))
            search = ixcap.graphs._CliqueSearch(complement_rows(g), ixcap.graphs._Meter(1))
            for _ in range(5):
                cand = rng.getrandbits(g.n_vertices)
                full = search._color_order(cand)
                assert full == greedy_coloring(g.rows, cand)
                for kmin in range(1, (full[-1][1] if full else 0) + 3):
                    assert search._color_order(cand, kmin) == [
                        (v, c) for v, c in full if c >= kmin]

    def test_colour_classes_are_the_full_colouring(self):
        # cliques of the complement, as above, read after a maximum search
        rng = random.Random(193)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 40), rng.uniform(0.05, 0.9))
            search = ixcap.graphs._CliqueSearch(complement_rows(g), ixcap.graphs._Meter(10**7))
            search.maximum()
            classes = [0] * g.n_vertices
            for v, c in greedy_coloring(g.rows, (1 << g.n_vertices) - 1):
                classes[c - 1] |= 1 << v
            assert search.clique_partition() == [c for c in classes if c]

    def test_a_full_root_records_the_fresh_colouring(self):
        # every maximum search starts from every vertex and records its
        # root colouring's classes, which are a fresh greedy colouring of
        # the whole graph, whatever its incumbent and its ceiling
        rng = random.Random(251)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 90), rng.uniform(0.05, 0.9))
            nv = g.n_vertices
            full = (1 << nv) - 1
            classes = [0] * nv
            for v, c in greedy_coloring(g.rows, full):
                classes[c - 1] |= 1 << v
            fresh = [c for c in classes if c]
            search = ixcap.graphs._CliqueSearch(complement_rows(g), ixcap.graphs._Meter(10**7))
            search.maximum(0, rng.choice([None, 1, 2]))
            assert search.clique_partition() == fresh
            seed = 1 << rng.randrange(nv)  # a one-vertex incumbent
            search.maximum(seed, rng.choice([None, 2]))
            assert search.clique_partition() == fresh

    def test_an_open_search_colours_the_whole_graph_once(self, monkeypatch):
        # the witness pass reads the maximum search's root colouring: no
        # other colouring of every vertex runs in an open search
        colour = ixcap.graphs._CliqueSearch._color_order
        whole = []

        def counted(self, cand, *args):
            if cand == (1 << len(self.rows)) - 1:
                whole.append(len(self.rows))
            return colour(self, cand, *args)

        monkeypatch.setattr(ixcap.graphs._CliqueSearch, "_color_order", counted)
        rng = random.Random(257)
        partitions = 0
        for size in [*range(2, 30), 64, 70, 80]:
            g = random_graph(rng, size, rng.uniform(0.1, 0.8))
            whole.clear()
            meter = ixcap.graphs._Meter(10**7)
            alpha, witness = ixcap.graphs._alpha(g, meter)
            if size < 30:
                assert witness == oracle_lex_least_mis(g, alpha)
            assert whole == [g.n_vertices]
            partitions += meter.settled["partition"]
        assert partitions

    def test_a_large_copy_is_coloured_as_its_reverse_was_bottom_up(self):
        # a copy of 64 or more vertices numbers the ascending degree order
        # from the top, so the top-down greedy visits g's vertices in the
        # order the bottom-up greedy visited them on the copy numbered from
        # the bottom: the same classes, vertex for vertex
        rng = random.Random(197)
        for _ in range(10):
            g = random_graph(rng, rng.randint(64, 300), rng.uniform(0.05, 0.9))
            copy = ixcap.graphs._SearchCopy(g)
            ascending = np.argsort([r.bit_count() for r in g.rows], kind="stable").tolist()
            assert copy.ordered and copy.order == ascending[::-1]
            up_of = [0] * g.n_vertices
            for i, v in enumerate(ascending):
                up_of[v] = i
            up_rows = relabelled(complement_rows(g), up_of)
            search = ixcap.graphs._CliqueSearch(copy.rows, ixcap.graphs._Meter(1))
            for cand in [(1 << g.n_vertices) - 1] + [rng.getrandbits(g.n_vertices)
                                                     for _ in range(3)]:
                down = search._color_order(copy.inward(cand))
                up = greedy_coloring(up_rows, ixcap.graphs._relabel(cand, up_of),
                                     descending=False)
                assert ([(copy.order[v], c) for v, c in down]
                        == [(ascending[v], c) for v, c in up])

    def test_tables_stay_within_twice_the_rows(self):
        # the fences and the bit table of a q = 3, n = 8 copy (6561
        # vertices, 5.9 MB of rows) read 9.1 MB of traced peak, 3.1 MB of
        # it the bit table
        copy = ixcap.graphs._SearchCopy(_random_sender_power(5, 3, 8))
        tracemalloc.start()
        try:
            ixcap.graphs._CliqueSearch(copy.rows, ixcap.graphs._Meter(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sum(map(sys.getsizeof, copy.rows))


def greedy_coloring(rows, cand, descending=True):
    """(vertex, colour) of the sequential greedy colouring of cand, class by
    class, each class taking the highest vertices left that it can (the
    least, unless descending)."""
    order, colour = [], 0
    left = sorted((v for v in range(len(rows)) if cand >> v & 1), reverse=descending)
    while left:
        colour += 1
        members = []
        for v in left:
            if not any(rows[v] >> u & 1 for u in members):
                members.append(v)
        order += [(v, colour) for v in members]
        left = [v for v in left if v not in members]
    return order


class TestIsIndependent:
    def test_singleton(self, example1):
        g = sender_graph(example1, 1)
        assert is_independent(g, [1])

    def test_path_pair(self, example1):
        g = sender_graph(example1, 1)
        assert is_independent(g, [0, 2])
        assert not is_independent(g, [0, 1])

    def test_out_of_range(self, example1):
        g = sender_graph(example1, 1)
        with pytest.raises(InputError):
            is_independent(g, [0, 7])


class TestConfusabilityGraph:
    def test_identity_edgeless(self):
        ch = identity_channel(Alphabet.of_size(4))
        for n in (1, 2):
            assert edge_count(confusability_graph(ch, n)) == 0

    def test_partial_overlap_single_edge(self):
        ch = make_channel(Alphabet.of_size(3),
                          [[1, 0, 0], [0, "1/2", "1/2"], [0, "1/2", "1/2"]])
        g = confusability_graph(ch, 1)
        assert sorted(g.edges()) == [(1, 2)]

    def test_uniform_complete(self):
        ch = make_channel(Alphabet.of_size(3), [["1/3", "1/3", "1/3"]] * 3)
        g = confusability_graph(ch, 1)
        assert g == complete_graph(3)

    def test_power_equals_direct_definition(self):
        # direct product-support construction as the oracle for small n
        rng = random.Random(43)
        for _ in range(10):
            q = rng.randint(2, 3)
            rows = []
            for _ in range(q):
                support = [rng.randint(0, 1) for _ in range(q)]
                if not any(support):
                    support[rng.randrange(q)] = 1
                total = sum(support)
                rows.append([f"{s}/{total}" for s in support])
            ch = make_channel(Alphabet.of_size(q), rows)
            g2 = confusability_graph(ch, 2)
            # the channel's 0/-1 table is G_c's closed-neighbourhood table
            g1 = confusability_graph(ch, 1)
            assert ixcap.graphs._confusability_table(ch) == ixcap.graphs._closed_table(g1)
            # oracle: inputs adjacent iff all letter supports intersect
            for a in range(q**2):
                for b in range(a + 1, q**2):
                    ya, yb = divmod(a, q), divmod(b, q)
                    shares = all(
                        ch.support[sa] & ch.support[sb]
                        or sa == sb
                        for sa, sb in zip(ya, yb)
                    )
                    # strong-power semantics: equal letters allowed, but at
                    # least the pair must differ somewhere (a != b)
                    direct = all(
                        ch.support[sa] & ch.support[sb] for sa, sb in zip(ya, yb)
                    )
                    assert g2.has_edge(a, b) == direct == shares

    def test_float_zero_is_exact(self):
        ch = make_channel(Alphabet.of_size(2), [[1, 0.0], [0.0, 1]])
        assert ch.support == (1, 2)
        assert edge_count(confusability_graph(ch, 1)) == 0


class TestGraphsEqual:
    """Graphs are equal when their bitset rows are, in the shared index
    order; the edge order they were built from does not matter."""

    def test_self(self):
        g = cycle_graph(5)
        assert g == graph_from_edges(5, [(4, 0), (3, 4), (2, 3), (1, 2), (0, 1)])

    def test_size_mismatch_false(self):
        assert path_graph(3) != complete_graph(3)
        assert path_graph(3) != path_graph(4)


class TestGraphJson:
    def test_round_trip(self):
        g = graph_from_json({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]})
        assert g == cycle_graph(5)

    def test_rejects_bad_edges(self):
        with pytest.raises(InputError):
            graph_from_json({"n": 3, "edges": [[0, 3]]})
        with pytest.raises(InputError):
            graph_from_json({"n": 3, "edges": [[1, 1]]})
        with pytest.raises(InputError):
            graph_from_json({"edges": []})

    @pytest.mark.parametrize("obj", [
        {"n": "x", "edges": []},
        {"n": 3.0, "edges": []},
        {"n": -1, "edges": []},
        {"n": 3, "edges": 5},
        {"n": 3, "edges": [5]},
        {"n": 3, "edges": [[0, 1, 2]]},
        {"n": 5, "edges": [[0, 1.5]]},
        {"n": 5, "edges": [[0, "1"]]},
        {"n": 5, "edges": [[0, True]]},
    ])
    def test_rejects_bad_types(self, obj):
        # a count or endpoint that is not an integer is refused, never
        # truncated: [0, 1.5] once became the edge (0, 1)
        with pytest.raises(InputError):
            graph_from_json(obj)

    def test_vertex_count_above_the_cap_is_refused_before_any_row(self):
        # 3 * 10**6 declared vertices once cost 79 MB of rows before a
        # later construction refused them
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="3000000 vertices exceed the cap"):
                graph_from_json({"n": 3_000_000, "edges": []})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_a_huge_decimal_exponent_is_refused_at_once(self, tmp_path):
        # Fraction("1e999999999") would compute 10**999999999 before the
        # endpoint was found not to be an integer
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[0, 1e999999999]]}')
        start = time.perf_counter()
        with pytest.raises(InputError, match="cannot read graph file .* more than 4 digits"):
            load_graph(path)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("call, message", [
        (lambda: sender_graph(utility_from_json({"utility": [[0, 1], [-1, 0]]}), 0),
         "blocklength must be at least 1"),
        (lambda: Graph(2, (0,)), "adjacency rows must match the vertex count"),
    ], ids=["sender-blocklength-0", "rows-of-another-count"])
    def test_refusal(self, call, message):
        with pytest.raises(InputError) as info:
            call()
        assert (type(info.value), str(info.value)) == (InputError, message)

    def test_numpy_integers_are_vertex_numbers(self):
        g = graph_from_edges(np.int64(3), [(np.int64(0), np.int32(2))])
        assert g.n_vertices == 3 and edge_count(g) == 1 and g.has_edge(0, 2)


class TestSupermultiplicativity:
    def test_sender_alpha_supermultiplicative(self):
        rng = random.Random(47)
        utilities = [random_utility(rng, 3) for _ in range(4)]
        for U in utilities:
            alphas = {
                n: independence_number(sender_graph(U, n))[0] for n in (1, 2, 3, 4)
            }
            for m in (1, 2):
                for n in (1, 2):
                    if m + n <= 4:
                        assert alphas[m + n] >= alphas[m] * alphas[n]

    def test_subgraph_monotonicity(self):
        rng = random.Random(53)
        for _ in range(10):
            n = rng.randint(2, 9)
            g2 = random_graph(rng, n, 0.6)
            # remove some edges to get a subgraph
            kept = [e for e in g2.edges() if rng.random() < 0.5]
            g1 = graph_from_edges(n, kept)
            assert independence_number(g1)[0] >= independence_number(g2)[0]
