import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from conftest import (
    is_independent,
    oracle_block_sums,
    oracle_feasible,
    oracle_feasible_by_walks,
    oracle_alpha,
    oracle_largest_feasible,
    oracle_symmetric_part,
    random_int_utility,
    random_symmetric_utility,
    random_utility,
)
import ixcap.lower_bounds
from ixcap.errors import BudgetExceededError, InputError
from ixcap.graphs import (
    _Meter,
    independence_number,
    sender_graph,
    symmetric_sender_graph,
)
from ixcap.lower_bounds import (
    _largest_feasible,
    _nonneg_chain,
    _triple_masks,
    feasibility_report,
    gamma,
    gamma_n,
    is_feasible_O,
    sufficient_margin_check,
)
import ixcap.utility
from ixcap.utility import (
    _expand_rows,
    _sum_table,
    block_sums,
    block_utility,
    block_utility_rows,
    utility_from_json,
)


def _positive_edges_cycle(U, subset):
    """(found, cycle) for a cycle of weakly profitable misreports: the chain
    search on U's sign matrix, 0 where u >= 0 and -1 elsewhere, as
    ``sufficient_margin_check`` runs it."""
    chain = _nonneg_chain([[0 if x >= 0 else -1 for x in row] for row in U.u], tuple(subset))
    return chain is not None, chain


class TestPositiveEdgesCycle:
    def test_example3_none(self, example3):
        found, cycle = _positive_edges_cycle(example3, [0, 1, 2])
        assert not found and cycle is None

    def test_two_cycle(self):
        U = utility_from_json({"utility": [[0, 1], [2, 0]]})
        found, cycle = _positive_edges_cycle(U, [0, 1])
        assert found
        assert set(cycle) == {0, 1}

    def test_pentagon_full_alphabet(self, pentagon_literal, pentagon):
        for U in (pentagon_literal, pentagon):
            found, _ = _positive_edges_cycle(U, range(5))
            assert not found

    def test_three_cycle_witness_orientation(self):
        # arcs 0->1->2->0 all weakly profitable
        U = utility_from_json({"utility": [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]})
        found, cycle = _positive_edges_cycle(U, [0, 1, 2])
        assert found
        assert cycle[0] == min(cycle)
        k = len(cycle)
        assert all(
            U.u[cycle[(m + 1) % k]][cycle[m]] >= 0 for m in range(k)
        )


class TestFeasibility:
    def test_example2_both_methods(self, example2):
        # the chain search and the permutation oracle
        assert is_feasible_O(example2, [0, 1, 2])
        assert oracle_feasible(example2.u, (0, 1, 2))

    def test_independent_set_always_feasible(self):
        rng = random.Random(61)
        for _ in range(20):
            U = random_utility(rng, rng.randint(2, 5))
            g = sender_graph(U, 1)
            _, witness = independence_number(g)
            assert is_feasible_O(U, witness)

    def test_methods_agree_on_randoms(self):
        rng = random.Random(67)
        utilities = [random_utility(rng, 4) for _ in range(40)]
        utilities += [random_int_utility(rng, 4) for _ in range(40)]
        zero_sum = 0
        for U in utilities:
            for size in (2, 3, 4):
                for subset in combinations(range(4), size):
                    report = feasibility_report(U, subset)
                    assert report["feasible"] == is_feasible_O(U, subset) \
                        == oracle_feasible(U.u, subset) \
                        == oracle_feasible_by_walks(U.u, subset)
                    if report["feasible"]:
                        continue
                    # distinct members, chain[m] reported as chain[m + 1]
                    chain = [U.alphabet.index_of(s) for s in report["witness_chain"]]
                    k = len(chain)
                    assert k >= 2 and len(set(chain)) == k and set(chain) <= set(subset)
                    total = sum(U.u[chain[(m + 1) % k]][chain[m]] for m in range(k))
                    assert total >= 0
                    zero_sum += total == 0
        assert zero_sum > 20

    def test_ties_need_no_second_search(self):
        # entries in {-1, 0, 1}, mostly -1 and 0: about two thirds of the
        # infeasible subsets have no positive chain, only zero-sum ones,
        # which the one Bellman-Ford pass must find too
        rng = random.Random(151)
        infeasible = ties = 0
        for trial in range(32):
            U = random_int_utility(rng, 3 + trial % 4, values=(-1,) * 5 + (0,) * 4 + (1,))
            for size in range(2, U.q + 1):
                for subset in combinations(range(U.q), size):
                    report = feasibility_report(U, subset)
                    assert report["feasible"] == is_feasible_O(U, subset) \
                        == oracle_feasible(U.u, subset) \
                        == oracle_feasible_by_walks(U.u, subset)
                    if report["feasible"]:
                        continue
                    infeasible += 1
                    chain = [U.alphabet.index_of(s) for s in report["witness_chain"]]
                    k = len(chain)
                    assert k >= 2 and len(set(chain)) == k and set(chain) <= set(subset)
                    assert chain[0] == min(chain)
                    assert sum(U.u[chain[(m + 1) % k]][chain[m]] for m in range(k)) >= 0
                    # lowering every entry by 1/(size + 1) keeps the
                    # positive chains and breaks every tie
                    lowered = [[x - Fraction(1, size + 1) for x in row] for row in U.u]
                    ties += oracle_feasible_by_walks(lowered, subset)
        assert 2 * ties > infeasible

    def test_an_infeasible_set_stops_at_its_first_chain(self):
        # every word of a cyclic q = 3 utility at n = 6: all k rounds of
        # k * k relaxations on these 729 members once took 45 s, and the
        # pass now stops at the first cycle among its predecessors
        U = utility_from_json({"utility": [[0, -2, 1], [1, 0, -2], [-2, 1, 0]]})
        sums = block_sums(U, 6)[1].tolist()
        start = time.perf_counter()
        chain = _nonneg_chain(sums, range(729))
        assert time.perf_counter() - start < 2
        k = len(chain)
        assert k >= 2 and len(set(chain)) == k
        assert sum(sums[chain[(m + 1) % k]][chain[m]] for m in range(k)) >= 0

    def test_a_chain_through_every_member(self):
        # each member reported as the next gains 1, any other misreport
        # loses 300: the one nonnegative chain has all 200 members
        k = 200
        u = [[1 if b == (a + 1) % k else 0 if a == b else -300 for a in range(k)]
             for b in range(k)]
        assert _nonneg_chain(u, range(k)) == tuple(range(k))

    def test_zero_weight_chain_infeasible(self, pentagon_literal):
        # ties poison feasibility: this code admits a zero-sum 3-chain
        rows = block_utility_rows(pentagon_literal, 2)
        code = [0, 7, 14, 16, 23]  # 00, 12, 24, 31, 43
        assert not oracle_feasible(rows, code)
        value, cert = gamma_n(pentagon_literal, 2)
        assert value == 4

    def test_empty_subset_rejected(self, example1):
        # the report once called the empty subset feasible and the margin
        # check passed it, where is_feasible_O refused it
        for check in (is_feasible_O, feasibility_report, sufficient_margin_check):
            with pytest.raises(InputError, match="subset must be nonempty"):
                check(example1, [])
            with pytest.raises(InputError, match="repeated"):
                check(example1, [0, 0])

    @pytest.mark.parametrize("check", [is_feasible_O, feasibility_report,
                                       sufficient_margin_check])
    def test_symbol_out_of_range_rejected(self, example1, check):
        with pytest.raises(InputError) as info:
            check(example1, (0, 5))
        assert (type(info.value), str(info.value)) == (
            InputError, "symbol index 5 out of range for q=3")

    def test_report_has_witness(self, example1):
        report = feasibility_report(example1, [0, 1])
        assert report["feasible"] is False
        assert "witness_chain" in report
        report2 = feasibility_report(example1, [0, 2])
        assert report2["feasible"] is True


class TestGamma:
    def test_pentagon(self, pentagon):
        value, cert = gamma(pentagon)
        assert value == 2
        assert cert.labels == ("0", "2")
        assert (cert.size, cert.blocklength) == (2, 1)

    def test_example3_full_alphabet(self, example3):
        value, cert = gamma(example3)
        assert value == 3
        assert cert.labels == ("0", "1", "2")

    def test_symmetric_equals_alpha(self):
        rng = random.Random(71)
        for _ in range(15):
            U = random_symmetric_utility(rng, rng.randint(2, 5))
            value, _ = gamma(U)
            alpha, _ = independence_number(sender_graph(U, 1))
            assert value == alpha

    def test_sandwich(self):
        rng = random.Random(73)
        for _ in range(25):
            U = random_utility(rng, rng.randint(2, 5))
            value, _ = gamma(U)
            alpha, _ = independence_number(sender_graph(U, 1))
            alpha_sym, _ = independence_number(sender_graph(oracle_symmetric_part(U), 1))
            assert alpha <= value <= alpha_sym


class TestGammaBlocklength:
    def test_pentagon_two(self, pentagon):
        value, cert = gamma_n(pentagon, 2)
        assert value == 5
        assert cert.labels == ("00", "12", "24", "31", "43")
        assert cert.optimal
        assert (cert.size, cert.blocklength) == (5, 2)
        assert cert.bound_float == pytest.approx(math.sqrt(5))

    def test_n1_matches_gamma(self):
        rng = random.Random(79)
        for _ in range(10):
            U = random_utility(rng, rng.randint(2, 4))
            assert gamma_n(U, 1)[0] == gamma(U)[0]

    def test_supermultiplicative_example1(self, example1):
        values = {n: gamma_n(example1, n)[0] for n in (1, 2, 3)}
        assert values[2] >= values[1] ** 2
        assert values[3] >= values[1] * values[2]

    def test_doubling_subsequence(self):
        rng = random.Random(83)
        for _ in range(8):
            U = random_utility(rng, rng.randint(2, 4))
            g1 = gamma_n(U, 1)[0]
            g2 = gamma_n(U, 2)[0]
            assert g2 ** (1 / 2) >= g1 - 1e-12

    def test_certificate_subset_is_feasible_and_independent(self, pentagon):
        value, cert = gamma_n(pentagon, 2)
        rows = block_utility_rows(pentagon, 2)
        assert oracle_feasible(rows, cert.subset)
        sym2 = sender_graph(oracle_symmetric_part(pentagon), 2)
        assert is_independent(sym2, cert.subset)

    def test_large_space_fallback_is_flagged(self, example1):
        value, cert = gamma_n(example1, 4)  # 81 sequences
        assert value == 16
        assert cert.optimal

    def test_peak_memory_stays_near_the_graph(self):
        # above 161 words, where one row block no longer holds the triple
        # cells, candidates are summed letter by letter,
        # never from a q**n x q**n table: at q=3, n=6 (729 sequences) the
        # peak stays within 1.5x that of building the symmetric-part sender
        # graph alone
        U = utility_from_json({"utility": [[0, 0, 0], [-1, 0, 0], [1, 0, 0]]})

        def peak(build):
            tracemalloc.start()
            try:
                result = build()
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        graph_peak, _ = peak(lambda: sender_graph(oracle_symmetric_part(U), 6))
        gamma_peak, (value, cert) = peak(lambda: gamma_n(U, 6))
        assert (value, cert.optimal) == (64, True)
        assert gamma_peak <= 1.5 * graph_peak

    def test_node_budget_bounds_the_search(self):
        # G_s^Sym,6 is edgeless on 729 vertices, where an unbudgeted
        # subset search runs for minutes
        U = utility_from_json({"utility": [[0, -2, 1], [1, 0, -2], [-2, 1, 0]]})
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            gamma_n(U, 6, node_budget=1000)
        assert time.perf_counter() - start < 20

    def test_node_budget_bounds_the_witness_test(self):
        # G_s^Sym,7 is edgeless on 2187 vertices: its alpha search fits in
        # 5000 nodes, but testing the 2187-member witness would not
        U = utility_from_json({"utility": [[0, -2, 1], [1, 0, -2], [-2, 1, 0]]})
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="feasibility test of 2187 members"):
            gamma_n(U, 7, node_budget=5000)
        assert time.perf_counter() - start < 20

    def test_certificate_carries_alpha_sym(self, pentagon):
        for n in (1, 2):
            _, cert = gamma_n(pentagon, n)
            alpha_sym, _ = independence_number(sender_graph(oracle_symmetric_part(pentagon), n))
            assert cert.alpha_sym == cert.to_json_dict()["alpha_sym"] == alpha_sym

    def test_validates_blocklength(self, example1):
        with pytest.raises(InputError):
            gamma_n(example1, 0)

    def test_open_input_at_n3_stops_inside_its_budget(self):
        # the one bracket input whose capacity the tool leaves open, in
        # integers x12: at n = 3 the search cannot prove Gamma inside 20 000
        # nodes, and returns its feasible incumbent in well under a second
        U = utility_from_json({"utility": OPEN_BRACKET_INPUT})
        start = time.perf_counter()
        value, cert = gamma_n(U, 3, node_budget=20_000)
        assert time.perf_counter() - start < 20
        assert not cert.optimal and cert.alpha_sym == 27
        rows = oracle_block_sums(U, 3)
        assert oracle_feasible(rows, cert.subset)
        assert all(rows[t][y] + rows[y][t] < 0 for t, y in combinations(cert.subset, 2))

    @pytest.mark.parametrize("q, n", [(3, 2), (4, 2), (5, 2)])
    def test_matches_the_enumeration_oracle(self, q, n):
        # above q**n = 8: the first feasible set among the independent sets
        # of G_s^Sym,n, by decreasing size in lexicographic order
        rng = random.Random(131 + q)
        for trial in range(16):
            U = (random_int_utility if trial % 2 else random_utility)(rng, q)
            best = oracle_largest_feasible(U, n)
            value, cert = gamma_n(U, n)
            assert (value, cert.subset, cert.optimal) == (len(best), best, True)

    @pytest.mark.parametrize("q, n", [(3, 2), (4, 2)])
    def test_matches_the_oracle_on_symmetric_and_sign_utilities(self, q, n):
        # symmetric utilities, on which every independent set of G_s^Sym,n
        # is feasible, and {-1, 0, 1} utilities, among them three drawn from
        # {-1, 0} whose zero-sum chains leave Gamma(U_n) below alpha_sym:
        # there the canonical set fails its test, and the subset search
        # runs under its clique cover bound
        rng = random.Random(151 + q)
        cases = [make(rng, q) for _ in range(4)
                 for make in (random_symmetric_utility, random_int_utility)]
        below = []
        for _ in range(400):
            U = random_int_utility(rng, q, (-1, 0))
            alpha_sym = oracle_alpha(sender_graph(oracle_symmetric_part(U), n))[0]
            if len(oracle_largest_feasible(U, n)) < alpha_sym:
                below.append(U)
                if len(below) == 3:
                    break
        assert len(below) == 3
        for U, pruned in [(U, False) for U in cases] + [(U, True) for U in below]:
            best = oracle_largest_feasible(U, n)
            value, cert = gamma_n(U, n)
            assert (value, cert.subset, cert.optimal) == (len(best), best, True)
            assert value < cert.alpha_sym or not pruned

    def test_matches_brute_force_over_all_subsets(self):
        # the lexicographically first largest feasible subset of X^n, by
        # the permutation oracle over every subset, for q**n <= 8
        rng = random.Random(109)
        for q, n in ((2, 1), (2, 2), (2, 3), (3, 1), (4, 1), (5, 1), (6, 1), (8, 1)):
            for trial in range(6):
                U = (random_int_utility if trial % 2 else random_utility)(rng, q)
                rows = oracle_block_sums(U, n)
                best = next(
                    s for size in range(q**n, 0, -1)
                    for s in combinations(range(q**n), size)
                    if oracle_feasible(rows, s)
                )
                value, cert = gamma_n(U, n)
                assert (value, cert.subset, cert.optimal) == (len(best), best, True)


#: the bracket input left open at [2, 3]: alpha(G_s^n) = 2**n and
#: alpha(G_s^Sym,n) = 3**n for n <= 4
OPEN_BRACKET_INPUT = [[0, 42, 0, -84], [-56, 0, 84, 28], [-84, -252, 0, 84], [-84, 14, 21, 0]]

#: every pair is strictly negative in total, but the chain 0 -> 1 -> 2 -> 0
#: gains 3: the canonical maximum independent set {0, 1, 2} of the
#: symmetric-part graph is infeasible, and the sender graph is complete
CYCLIC = [[0, -2, 1], [1, 0, -2], [-2, 1, 0]]


def _cyclic_plus_three():
    """CYCLIC on symbols 0-2, symbols 3-5 with every misreport among them
    costing 1, and +1 for every misreport across the two triples."""
    rows = [[0 if i == j else (1 if (i < 3) != (j < 3) else -1)
             for j in range(6)] for i in range(6)]
    for i in range(3):
        for j in range(3):
            if i != j:
                rows[i][j] = CYCLIC[i][j]
    return utility_from_json({"utility": rows})


class TestPinnedSubsetSearch:
    """The fewest nodes in which the subset search proves Gamma(U_n) on the
    open bracket input, whose canonical set of G_s^Sym,n is infeasible: one
    node fewer leaves the answer not optimal.  A change to the branch
    order, the bound, the triple masks or the core skipping moves these
    counts.  Bounded by the member count plus the open candidates alone,
    the search took 24 nodes at n = 1 and 3000 at n = 2; the clique cover
    of G_s^Sym,n took 17 and 1746; with each child's candidates also
    cleared of the words that close a 3-cycle of sum >= 0 with two
    members, it took 16 and 954, and finds the same subsets.  At n = 1 the
    masks are no longer built, which costs the one node they saved: 17."""

    @pytest.mark.parametrize("n, nodes, subset", [(1, 17, (0, 1)), (2, 954, (0, 1, 4, 5))],
                             ids=["n1", "n2"])
    def test_node_count(self, n, nodes, subset):
        U = utility_from_json({"utility": OPEN_BRACKET_INPUT})
        value, cert = gamma_n(U, n, node_budget=nodes)
        assert (value, cert.subset, cert.optimal) == (len(subset), subset, True)
        assert cert.alpha_sym == 3**n
        assert not gamma_n(U, n, node_budget=nodes - 1)[1].optimal

    def test_open_input_at_n3_is_proved_inside_three_million_nodes(self):
        # 2 788 319 nodes, about 2-3 s; 5 740 921 without the triple masks
        U = utility_from_json({"utility": OPEN_BRACKET_INPUT})
        value, cert = gamma_n(U, 3, node_budget=3 * 10**6)
        assert cert.optimal and cert.alpha_sym == 27
        assert cert.subset == (0, 1, 4, 5, 16, 17, 20, 21)


def _pair_table(U, n):
    """The whole pair-sum table of X^n that the subset search holds, in
    the type that adds three of its sums."""
    return _expand_rows(_sum_table(U.scaled_integer_entries[1], 3 * n), n)


def _cyclic_utility(rng, q):
    """Costly misreports, -3 to -1, except along one random cycle through
    every symbol, whose arcs gain 0 or 1: G_s^Sym,n's canonical set is
    often infeasible, so the subset search runs."""
    u = [[0 if i == j else rng.choice((-3, -2, -1)) for j in range(q)] for i in range(q)]
    order = rng.sample(range(q), q)
    for a, b in zip(order, order[1:] + order[:1]):
        u[b][a] = rng.choice((0, 1))
    return utility_from_json({"utility": u})


class TestTripleMasks:
    """Once the canonical set fails at n >= 2, the subset search clears
    from each child's candidates every word that closes a 3-cycle of sum
    >= 0 with the new vertex and a member, read from ``_triple_masks``."""

    @pytest.mark.parametrize("q, n", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2),
                                      (2, 3), (3, 3), (4, 3)])
    def test_masks_match_the_fraction_cycles(self, q, n):
        # bit c of masks[a][b] iff a, b, c are distinct and a -> b -> c -> a
        # or a -> c -> b -> a has block utility sum >= 0 (u(b, a) for a
        # reported as b); every pair (a, b) below 16 words, 200 drawn above
        rng = random.Random(167 + 10 * q + n)
        words = list(product(range(q), repeat=n))
        nv = len(words)
        for trial in range(3):
            U = (random_utility, random_int_utility, _cyclic_utility)[trial](rng, q)
            rows = [[block_utility(U, t, y) for y in words] for t in words]
            masks = _triple_masks(_pair_table(U, n))
            pairs = (list(product(range(nv), repeat=2)) if nv <= 16 else
                     [(rng.randrange(nv), rng.randrange(nv)) for _ in range(200)])
            for a, b in pairs:
                expected = sum(
                    1 << c for c in range(nv) if len({a, b, c}) == 3 and (
                        rows[b][a] + rows[c][b] + rows[a][c] >= 0
                        or rows[c][a] + rows[b][c] + rows[a][b] >= 0))
                assert masks[a][b] == expected

    def test_masks_only_while_one_block_holds_them(self, monkeypatch):
        # the search sums its whole table, and so can build the masks, only
        # while one block of utility.BLOCK_CELLS cells holds the (q**n)**3
        # triple cells: 128 words of 2**22, not 256, and 8 words of 8**3
        # cells, not of one fewer; at n = 1 it reads the integer utility
        tables, masks = [], []
        expand, triple_masks = ixcap.lower_bounds._expand_rows, _triple_masks
        monkeypatch.setattr(ixcap.lower_bounds, "_expand_rows",
                            lambda table, n: tables.append(n) or expand(table, n))
        monkeypatch.setattr(ixcap.lower_bounds, "_triple_masks",
                            lambda s: masks.append(len(s)) or triple_masks(s))
        U = utility_from_json({"utility": OPEN_BRACKET_INPUT})
        edgeless = utility_from_json({"utility": [[0, -1], [-1, 0]]})
        for V, n, cells, built in ((edgeless, 7, None, True), (edgeless, 8, None, False),
                                   (U, 1, None, False), (edgeless, 3, 8**3, True),
                                   (edgeless, 3, 8**3 - 1, False)):
            tables.clear()
            with monkeypatch.context() as patch:
                if cells:
                    patch.setattr(ixcap.utility, "BLOCK_CELLS", cells)
                gamma_n(V, n)
            assert tables == ([n] if built else [])
        # the canonical set of each edgeless G_s^Sym,n is feasible, so no
        # masks were built; the open input's fails at n = 2, so they are,
        # from the table, and at n = 1 they are not
        assert masks == []
        for n, cells, built in ((2, None, True), (2, 16**3 - 1, False), (1, None, False)):
            masks.clear()
            with monkeypatch.context() as patch:
                if cells:
                    patch.setattr(ixcap.utility, "BLOCK_CELLS", cells)
                assert gamma_n(U, n)[1].optimal
            assert masks == ([4**n] if built else [])

    def test_an_open_search_sums_one_table(self, monkeypatch):
        # Gamma(U_2) on the open bracket input fails its canonical set, so
        # the search reads its pair sums and builds its masks: both from
        # one whole table of X^2, counted wherever the library sums one.
        # Divided by 7, the input's entries reach 36, so its pair sums fit
        # int8 and the masks' sums of three need the table in int16
        U = utility_from_json({"utility": [[x // 7 for x in row] for row in OPEN_BRACKET_INPUT]})
        sym = symmetric_sender_graph(U, 2)
        _, first = independence_number(sym)
        assert not oracle_feasible(oracle_block_sums(U, 2), first)
        assert _sum_table(U.scaled_integer_entries[1], 2).dtype == np.int8
        whole, dtypes = [], []
        monkeypatch.setattr(ixcap.lower_bounds, "_triple_masks",
                            lambda s: dtypes.append(s.dtype) or _triple_masks(s))

        def counted(expand):
            def expand_rows(table, n, rows=None):
                if rows is None:
                    whole.append(n)
                return expand(table, n, rows)
            return expand_rows

        for module in (ixcap.utility, ixcap.lower_bounds):
            monkeypatch.setattr(module, "_expand_rows", counted(module._expand_rows))
        assert _largest_feasible(U, 2, sym, first, _Meter(10**6)) == ((0, 1, 4, 5), True)
        assert whole == [2] and dtypes == [np.int16]

    def test_no_chain_test_below_four_members(self, monkeypatch):
        # the canonical set is tested first; inside the search every set of
        # at most three members is feasible by construction at n >= 2, and
        # of at most two at n = 1, where no masks are built
        sizes = []

        def counted(u, subset):
            sizes.append(len(subset))
            return _nonneg_chain(u, subset)

        monkeypatch.setattr(ixcap.lower_bounds, "_nonneg_chain", counted)
        rng = random.Random(173)
        searched = 0
        for trial in range(24):
            q = rng.randint(3, 4)
            U = (random_int_utility, _cyclic_utility)[trial % 2](rng, q)
            for n in (1, 2):
                sizes.clear()
                gamma_n(U, n)
                searched += len(sizes) > 1
                assert all(k >= (3 if n == 1 else 4) for k in sizes[1:])
        assert searched >= 5

    @pytest.mark.parametrize("q, n", [(3, 1), (4, 1), (5, 1), (3, 2), (4, 2)])
    def test_matches_the_enumeration_oracle_when_the_search_runs(self, q, n, monkeypatch):
        built = []
        monkeypatch.setattr(ixcap.lower_bounds, "_triple_masks",
                            lambda s: built.append(len(s)) or _triple_masks(s))
        rng = random.Random(179 + 10 * q + n)
        for trial in range(12):
            U = (random_int_utility, _cyclic_utility, random_utility)[trial % 3](rng, q)
            best = oracle_largest_feasible(U, n)
            value, cert = gamma_n(U, n)
            assert (value, cert.subset, cert.optimal) == (len(best), best, True)
        # the masks are built only at n >= 2
        assert built if n > 1 else not built


class TestGammaBudget:
    """With the subset search's nodes spent, gamma_n returns the largest
    feasible subset found so far, a floor under Gamma(U_n), flagged optimal
    only at alpha_sym, which stops the search; gamma raises with that
    floor's size in ``best``."""

    @staticmethod
    def _check_spent(U, n, node_budget):
        """gamma_n under node_budget, checked: its subset is feasible and
        independent in G_s^Sym,n, and an optimal answer is the unbudgeted
        one.  Returns (value, optimal), or None when the budget runs out in
        the maximum search, in the canonical set's test or before the first
        subset."""
        try:
            value, cert = gamma_n(U, n, node_budget=node_budget)
        except BudgetExceededError:
            return None
        assert oracle_feasible_by_walks(oracle_block_sums(U, n), cert.subset)
        assert is_independent(sender_graph(oracle_symmetric_part(U), n), cert.subset)
        assert value == cert.size == len(cert.subset)
        if cert.optimal:
            # the same search, finished inside the smaller budget
            assert gamma_n(U, n) == (value, cert)
        else:
            assert value < cert.alpha_sym
        if n == 1:
            if cert.optimal:
                assert gamma(U, node_budget=node_budget) == (value, cert)
            else:
                with pytest.raises(BudgetExceededError) as info:
                    gamma(U, node_budget=node_budget)
                assert info.value.best == value
        return value, cert.optimal

    @pytest.mark.parametrize("U, n, exhaustive", [
        (utility_from_json({"utility": CYCLIC}), 1, (0, 1)),  # 3 sequences
        (_cyclic_plus_three(), 1, (3, 4, 5)),  # 6 sequences
        (utility_from_json({"utility": CYCLIC}), 4, None),  # 81 sequences
        (_cyclic_plus_three(), 2, (21, 22, 23, 27, 28, 29, 33, 34, 35)),  # 36 sequences
    ], ids=["cyclic-1", "cyclic_plus_three-1", "cyclic-4", "cyclic_plus_three-2"])
    def test_floor_when_witness_infeasible(self, U, n, exhaustive):
        alpha_sym, witness = independence_number(sender_graph(oracle_symmetric_part(U), n))
        assert not oracle_feasible(oracle_block_sums(U, n), witness)
        # the canonical set's test costs alpha_sym**2 nodes and the first
        # trial, a singleton, 2 more
        with pytest.raises(BudgetExceededError, match="subset search exceeded"):
            gamma_n(U, n, node_budget=alpha_sym**2 + 1)
        assert self._check_spent(U, n, alpha_sym**2 + 2) == (1, False)
        values = [self._check_spent(U, n, alpha_sym**2 + extra)[0]
                  for extra in (2, 5, 20, 50, 100, 200, 400)]
        assert values == sorted(values)  # a larger budget never finds less
        if exhaustive is not None:
            value, cert = gamma_n(U, n)
            assert (cert.subset, cert.optimal) == (exhaustive, True)
            assert values[-1] <= value

    def test_cyclic_exhaustive_value(self):
        U = utility_from_json({"utility": CYCLIC})
        value, cert = gamma(U)
        assert (value, cert.subset, cert.optimal) == (2, (0, 1), True)

    @pytest.mark.parametrize("q, n", [(3, 1), (4, 1), (4, 2), (5, 2), (3, 4)])
    def test_tiny_budget_on_randoms(self, q, n):
        rng = random.Random(113 + 10 * q + n)
        answered = 0
        for trial in range(8):
            U = (random_int_utility if trial % 2 else random_utility)(rng, q)
            for node_budget in (10, 100, 1000):
                answered += self._check_spent(U, n, node_budget) is not None
        assert answered >= 8

    @staticmethod
    def _either_side_of_the_cut(monkeypatch, U, n, node_budget, cuts):
        """(subset, optimal) or None, and the nodes spent, of the subset
        search on U at n under ``utility.BLOCK_CELLS`` patched to each of
        cuts, None leaving it as it is."""
        sym = symmetric_sender_graph(U, n)
        _, first = independence_number(sym)
        outcomes = []
        for cells in cuts:
            with monkeypatch.context() as patch:
                if cells is not None:
                    patch.setattr(ixcap.utility, "BLOCK_CELLS", cells)
                meter = _Meter(node_budget)
                try:
                    found = _largest_feasible(U, n, sym, first, meter)
                except BudgetExceededError:
                    found = None
            outcomes.append((found, meter.spent))
        return outcomes

    def test_pair_table_and_letter_sums_search_alike(self, monkeypatch):
        # one block of utility.BLOCK_CELLS cells holds the nv**3 triple
        # cells of nv words at nv**3 cells, not at one fewer: on that side
        # the subset search reads its pair sums from the whole table and
        # builds its masks, on the other it adds letters and builds none
        # (at n = 1 both read the integer utility itself, with no masks).
        # Both find the same first largest subset.  The letter side spends
        # more nodes at n >= 2, since nothing prunes its triples, so out of
        # budget the two may keep different subsets, each feasible and
        # independent in G_s^Sym,n; at n = 1 they spend the same.  A cycle
        # of weakly profitable misreports among otherwise costly ones
        # leaves G_s^Sym,n's canonical set infeasible, so the search runs
        rng = random.Random(131)
        finished = 0
        for trial in range(18):
            q = rng.randint(2, 4)
            U = (random_utility, random_int_utility, _cyclic_utility)[trial % 3](rng, q)
            for n in (1, 2, 3):
                nv = q**n
                sums = oracle_block_sums(U, n)
                sym = sender_graph(oracle_symmetric_part(U), n)
                for node_budget in (30, 300, 10**4):
                    (table, spent), (letters, letter_spent) = self._either_side_of_the_cut(
                        monkeypatch, U, n, node_budget, (nv**3, nv**3 - 1))
                    if n == 1:
                        assert (table, spent) == (letters, letter_spent)
                    for found in (table, letters):
                        if found is not None:
                            assert oracle_feasible_by_walks(sums, found[0])
                            assert is_independent(sym, found[0])
                    if table and letters and table[1] and letters[1]:
                        assert table == letters
                        finished += 1
        assert finished >= 100

    def test_pair_sources_search_alike_above_64_words(self, monkeypatch):
        # q = 9, n = 2: 81 words, either side of the whole table's cut
        # forced through utility.BLOCK_CELLS; and q = 15, n = 2: 225 words,
        # above the 161 whose triples one block holds, so the search adds
        # letters as it stands, against the whole table forced.  Each side
        # proves the same first largest subset; the letter side, with no
        # masks, spends more nodes
        searched = 0
        for q, seed, draws, cuts in ((9, 210, 4, (81**3, 81**3 - 1)),
                                     (15, 208, 1, (225**3, None))):
            rng = random.Random(seed)
            for _ in range(draws):
                U = random_utility(rng, q)
                _, first = independence_number(symmetric_sender_graph(U, 2))
                (table, spent), (letters, letter_spent) = self._either_side_of_the_cut(
                    monkeypatch, U, 2, 10**6, cuts)
                assert table[1] and table == letters
                assert spent <= letter_spent
                searched += table[0] != first
        assert searched == 3


class TestTypeClassLift:
    def test_feasible_sets_lift_to_independent_type_classes(self):
        # uniform type classes over a feasible subset stay independent
        rng = random.Random(89)
        tried = 0
        for _ in range(30):
            U = random_utility(rng, 3)
            value, cert = gamma(U)
            subset = cert.subset
            if len(subset) < 2:
                continue
            for K in (1, 2, 3):
                n = K * len(subset)
                if n > 6:
                    continue
                tried += 1
                g = sender_graph(U, n)
                members = _uniform_type_class(3, subset, K)
                assert is_independent(g, members)
        assert tried > 5


def _uniform_type_class(q, symbols, K):
    """Indices of all sequences in which each symbol appears exactly K times."""
    from itertools import permutations as perms

    n = K * len(symbols)
    letters = []
    for s in symbols:
        letters.extend([s] * K)
    out = set()
    for p in set(perms(letters)):
        idx = 0
        for s in p:
            idx = idx * q + s
        out.add(idx)
    return sorted(out)


class TestSufficientMargin:
    def test_example3_true(self, example3):
        assert sufficient_margin_check(example3, [0, 1, 2])

    def test_example2_false_but_feasible(self, example2):
        assert not sufficient_margin_check(example2, [0, 1, 2])
        assert is_feasible_O(example2, [0, 1, 2])

    def test_independent_set_vacuous(self, pentagon):
        assert sufficient_margin_check(pentagon, [0, 2])

    def test_margin_implies_feasible(self):
        rng = random.Random(97)
        hits = 0
        for _ in range(200):
            U = random_utility(rng, rng.randint(2, 4))
            q = U.q
            for size in (2, 3):
                for subset in combinations(range(q), min(size, q)):
                    if len(subset) < 2:
                        continue
                    if sufficient_margin_check(U, subset):
                        hits += 1
                        assert is_feasible_O(U, subset)
        assert hits > 20


class TestCertificateJson:
    def test_round_trip_fields(self, pentagon):
        _, cert = gamma_n(pentagon, 2)
        d = cert.to_json_dict()
        assert d["subset"] == ["00", "12", "24", "31", "43"]
        assert d["bound"]["base"] == 5 and d["bound"]["root"] == 2
        assert d["optimal"] is True
