import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import (
    oracle_block_sums,
    oracle_feasible,
    random_int_utility,
    random_symmetric_utility,
    random_utility,
)
from ixcap.errors import BudgetExceededError, InputError
from ixcap.graphs import independence_number, is_independent, sender_graph
from ixcap.lower_bounds import (
    beta_cycle_bound,
    feasibility_report,
    gamma,
    gamma_n,
    has_positive_edges_cycle,
    is_feasible_O,
    sufficient_margin_check,
    transport_lower_bound,
    type_class_size,
)
from ixcap.utility import (
    block_utility_rows,
    symmetric_part,
    utility_from_json,
)


class TestPositiveEdgesCycle:
    def test_example3_none(self, example3):
        found, cycle = has_positive_edges_cycle(example3, [0, 1, 2])
        assert not found and cycle is None

    def test_two_cycle(self):
        U = utility_from_json({"utility": [[0, 1], [2, 0]]})
        found, cycle = has_positive_edges_cycle(U, [0, 1])
        assert found
        assert set(cycle) == {0, 1}

    def test_pentagon_full_alphabet(self, pentagon_literal, pentagon):
        for U in (pentagon_literal, pentagon):
            found, _ = has_positive_edges_cycle(U, range(5))
            assert not found

    def test_three_cycle_witness_orientation(self):
        # arcs 0->1->2->0 all weakly profitable
        U = utility_from_json({"utility": [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]})
        found, cycle = has_positive_edges_cycle(U, [0, 1, 2])
        assert found
        k = len(cycle)
        assert all(
            U.u[cycle[(m + 1) % k]][cycle[m]] >= 0 for m in range(k)
        )

    def test_requires_two_symbols(self, example1):
        with pytest.raises(InputError):
            has_positive_edges_cycle(example1, [0])


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
            assert is_feasible_O(U, witness.vertices)

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
                        == oracle_feasible(U.u, subset)
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

    def test_zero_weight_chain_infeasible(self, pentagon_literal):
        # ties poison feasibility: this code admits a zero-sum 3-chain
        rows = block_utility_rows(pentagon_literal, 2)
        code = [0, 7, 14, 16, 23]  # 00, 12, 24, 31, 43
        assert not oracle_feasible(rows, code)
        value, cert = gamma_n(pentagon_literal, 2)
        assert value == 4

    def test_empty_subset_rejected(self, example1):
        with pytest.raises(InputError):
            is_feasible_O(example1, [])
        with pytest.raises(InputError):
            is_feasible_O(example1, [0, 0])

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
            alpha_sym, _ = independence_number(sender_graph(symmetric_part(U), 1))
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
        sym2 = sender_graph(symmetric_part(pentagon), 2)
        assert is_independent(sym2, cert.subset)

    def test_large_space_fallback_is_flagged(self, example1):
        value, cert = gamma_n(example1, 4)  # 81 sequences
        assert value == 16
        assert cert.optimal

    def test_peak_memory_stays_near_the_graph(self):
        # candidates are summed letter by letter, never from a q**n x q**n
        # table: at q=3, n=6 (729 sequences) the peak stays within 1.5x that
        # of building the symmetric-part sender graph alone
        U = utility_from_json({"utility": [[0, 0, 0], [-1, 0, 0], [1, 0, 0]]})

        def peak(build):
            tracemalloc.start()
            try:
                result = build()
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        graph_peak, _ = peak(lambda: sender_graph(symmetric_part(U), 6))
        gamma_peak, (value, cert) = peak(lambda: gamma_n(U, 6))
        assert (value, cert.optimal) == (64, True)
        assert gamma_peak <= 1.5 * graph_peak

    def test_node_budget_bounds_the_search(self):
        # G_s^Sym,6 is edgeless on 729 vertices, where an unbudgeted
        # independent-set search runs for minutes
        U = utility_from_json({"utility": [[0, -2, 1], [1, 0, -2], [-2, 1, 0]]})
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            gamma_n(U, 6, budget=1, node_budget=1000)
        assert time.perf_counter() - start < 20

    def test_node_budget_bounds_the_witness_test(self):
        # G_s^Sym,7 is edgeless on 2187 vertices: its alpha search fits in
        # 5000 nodes, but testing the 2187-member witness would not
        U = utility_from_json({"utility": [[0, -2, 1], [1, 0, -2], [-2, 1, 0]]})
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="feasibility test of 2187 members"):
            gamma_n(U, 7, budget=1, node_budget=5000)
        assert time.perf_counter() - start < 20

    def test_certificate_carries_alpha_sym(self, pentagon):
        for n in (1, 2):
            _, cert = gamma_n(pentagon, n)
            alpha_sym, _ = independence_number(sender_graph(symmetric_part(pentagon), n))
            assert cert.alpha_sym == cert.to_json_dict()["alpha_sym"] == alpha_sym

    def test_validates_blocklength(self, example1):
        with pytest.raises(InputError):
            gamma_n(example1, 0)

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


class TestGammaBudget:
    """With the budget spent, gamma_n returns the canonical maximum
    independent set of G_s^n (the floor), optimal iff it reaches alpha_sym."""

    @staticmethod
    def _floor_and_alpha_sym(U, n):
        floor = independence_number(sender_graph(U, n))[1].vertices
        alpha_sym, witness = independence_number(sender_graph(symmetric_part(U), n))
        return floor, alpha_sym, witness.vertices

    @pytest.mark.parametrize("U, n, floor_optimal", [
        (utility_from_json({"utility": CYCLIC}), 1, False),  # 3 sequences
        (_cyclic_plus_three(), 1, True),  # 6 sequences
        (utility_from_json({"utility": CYCLIC}), 4, False),  # 81 sequences
        (_cyclic_plus_three(), 2, True),  # 36 sequences
    ], ids=["cyclic-1", "cyclic_plus_three-1", "cyclic-4", "cyclic_plus_three-2"])
    def test_floor_when_witness_infeasible(self, U, n, floor_optimal):
        floor, alpha_sym, witness = self._floor_and_alpha_sym(U, n)
        value, cert = gamma_n(U, n, budget=1)
        assert cert.subset == floor != witness
        assert value == len(floor)
        assert cert.optimal == floor_optimal == (len(floor) == alpha_sym)
        if n == 1:
            if floor_optimal:
                assert gamma(U, budget=1) == (value, cert)
            else:
                with pytest.raises(BudgetExceededError) as info:
                    gamma(U, budget=1)
                assert info.value.best == value

    def test_cyclic_exhaustive_value(self):
        U = utility_from_json({"utility": CYCLIC})
        value, cert = gamma(U)
        assert (value, cert.subset, cert.optimal) == (2, (0, 1), True)

    @pytest.mark.parametrize("q, n", [(3, 1), (4, 1), (4, 2), (5, 2), (3, 4)])
    def test_tiny_budget_on_randoms(self, q, n):
        rng = random.Random(113 + 10 * q + n)
        for trial in range(8):
            U = (random_int_utility if trial % 2 else random_utility)(rng, q)
            floor, alpha_sym, witness = self._floor_and_alpha_sym(U, n)
            # the witness is tried whatever the budget; any other candidate
            # exceeds a budget of 0 or 1
            for budget in (0, 1):
                value, cert = gamma_n(U, n, budget=budget)
                assert cert.subset in (witness, floor)
                assert cert.optimal == (value == alpha_sym)
                if n > 1:
                    continue
                if cert.optimal:
                    assert gamma(U, budget=budget) == (value, cert)
                else:
                    with pytest.raises(BudgetExceededError) as info:
                        gamma(U, budget=budget)
                    assert info.value.best == value


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


class TestBetaCycleBound:
    def test_independent_set_with_large_beta(self):
        U = utility_from_json({"utility": [[0, 4, -2], [-3, 0, -2], [-2, -2, 0]]})
        # beta = 4/2 = 2 >= 1; subset {1,2} has no nonnegative arcs
        assert beta_cycle_bound(U, [1, 2])

    def test_example3_counts(self, example3):
        assert beta_cycle_bound(example3, [0, 1, 2])

    def test_positive_two_cycle_false(self):
        U = utility_from_json({"utility": [[0, 1, -4], [1, 0, -4], [-4, -4, 0]]})
        assert not beta_cycle_bound(U, [0, 1])

    def test_implies_feasible(self):
        rng = random.Random(101)
        hits = 0
        for _ in range(200):
            U = random_utility(rng, 3)
            if all(x >= 0 for row in U.u for x in row):
                continue
            for subset in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
                if beta_cycle_bound(U, subset):
                    hits += 1
                    assert is_feasible_O(U, subset)
        assert hits > 10

    def test_requires_negative_entry(self):
        U = utility_from_json({"utility": [[0, 1], [1, 0]]})
        with pytest.raises(InputError):
            beta_cycle_bound(U, [0, 1])


class TestTypeClassSize:
    def test_small_values(self):
        assert type_class_size(2, 2) == 6
        assert type_class_size(1, 5) == 1
        assert type_class_size(3, 1) == 6

    def test_matches_enumeration(self):
        assert type_class_size(2, 3) == len(_uniform_type_class(2, (0, 1), 3))
        assert type_class_size(3, 2) == len(_uniform_type_class(3, (0, 1, 2), 2))

    def test_root_approaches_set_size(self):
        # (1/600)-th root of the count lies within 5% of 3, checked in
        # exact integer arithmetic: 2.85^600 <= T <= 3.15^600
        value = type_class_size(3, 200)
        assert Fraction(285, 100) ** 600 <= value <= Fraction(315, 100) ** 600

    def test_validates(self):
        with pytest.raises(InputError):
            type_class_size(0, 5)


def _couplings(supplies):
    """Every nonnegative integer q x q matrix, as {(i, j): mass}, whose row
    sums and column sums both equal supplies."""
    q = len(supplies)
    rows = [[r for r in product(range(s + 1), repeat=q) if sum(r) == s] for s in supplies]
    for matrix in product(*rows):
        if all(sum(row[j] for row in matrix) == supplies[j] for j in range(q)):
            yield {(i, j): matrix[i][j] for i in range(q) for j in range(q)}


class TestTransport:
    def test_uniform_on_independent_pair(self, pentagon):
        res = transport_lower_bound(pentagon, ["1/2", 0, "1/2", 0, 0])
        assert res.optimum == 0
        assert res.unique_diagonal
        assert res.entropy_bound == pytest.approx(2.0)

    def test_point_mass(self, pentagon):
        res = transport_lower_bound(pentagon, [0, 0, 1, 0, 0])
        assert res.optimum == 0
        assert res.unique_diagonal
        assert res.entropy_bound == pytest.approx(1.0)

    def test_positive_two_cycle_not_unique(self):
        U = utility_from_json({"utility": [[0, 1], [1, 0]]})
        res = transport_lower_bound(U, ["1/2", "1/2"])
        assert not res.unique_diagonal
        assert res.optimum > 0

    def test_zero_tie_not_unique(self):
        # swapping mass along a zero-sum pair loses nothing
        U = utility_from_json({"utility": [[0, 1], [-1, 0]]})
        res = transport_lower_bound(U, ["1/2", "1/2"])
        assert res.optimum == 0
        assert not res.unique_diagonal

    def test_unique_implies_support_feasible(self):
        rng = random.Random(103)
        uniques = 0
        for _ in range(60):
            U = random_utility(rng, rng.randint(2, 4))
            q = U.q
            weights = [rng.randint(0, 3) for _ in range(q)]
            if sum(weights) == 0:
                weights[0] = 1
            total = sum(weights)
            P = [Fraction(w, total) for w in weights]
            res = transport_lower_bound(U, P)
            assert res.optimum >= 0
            if res.unique_diagonal:
                uniques += 1
                support = [i for i in range(q) if P[i] > 0]
                assert is_feasible_O(U, support)
                assert res.optimum == 0
        assert uniques > 5

    def test_optimum_matches_brute_force_over_vertices(self):
        # transportation optimum equals the best permutation-mixture value
        # for uniform marginals (Birkhoff): cross-check on full support
        rng = random.Random(107)
        from itertools import permutations as perms

        for _ in range(15):
            U = random_utility(rng, 3)
            P = [Fraction(1, 3)] * 3
            res = transport_lower_bound(U, P)
            best = max(
                sum(U.u[p[j]][j] for j in range(3)) for p in perms(range(3))
            )
            assert res.optimum == Fraction(best, 3)

    def test_optimum_matches_every_integer_coupling(self):
        # non-uniform marginals, zero-mass symbols included: the optimum is
        # the best of all integer couplings with the cleared margins
        rng = random.Random(109)
        for _ in range(60):
            q = rng.randint(1, 3)
            U = random_utility(rng, q)
            den = rng.randint(1, 4)
            supplies = [0] * q
            for _ in range(den):
                supplies[rng.randrange(q)] += 1
            res = transport_lower_bound(U, [Fraction(s, den) for s in supplies])
            assert res.optimum == max(
                sum(f * U.u[i][j] for (i, j), f in coupling.items()) / den
                for coupling in _couplings(supplies))

    def test_validates_distribution(self, example1):
        with pytest.raises(InputError):
            transport_lower_bound(example1, ["1/2", "1/2"])
        with pytest.raises(InputError):
            transport_lower_bound(example1, ["1/2", "1/2", "1/2"])
        with pytest.raises(InputError):
            transport_lower_bound(example1, ["3/2", "-1/2", 0])


class TestCertificateJson:
    def test_round_trip_fields(self, pentagon):
        _, cert = gamma_n(pentagon, 2)
        d = cert.to_json_dict()
        assert d["subset"] == ["00", "12", "24", "31", "43"]
        assert d["bound"]["base"] == 5 and d["bound"]["root"] == 2
        assert d["optimal"] is True
