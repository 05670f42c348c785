"""Lower-bound certificates: feasible symbol subsets at blocklength n, the
transport test, and the quick sufficient conditions.

A subset is feasible when every closed chain of distinct members (each one
reported as the next) has strictly negative total utility; Gamma(U_n), the
size of the largest feasible subset of X^n, gives the capacity lower bound
Gamma(U_n)^(1/n).  Ties matter: a zero-sum chain already destroys
feasibility.  Every feasibility question has one answer path,
``_nonneg_chain``: a Bellman-Ford pass that returns the offending chain
itself, checked by its exact utility sum.  ``gamma_n`` has one search over
the independent sets of the symmetric-part graph, and ``gamma`` is
``gamma_n`` at n = 1.  All arithmetic is exact, on the integer utilities of
``UtilityMatrix.scaled_integer_entries``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Callable, Sequence

from .errors import BudgetExceededError, CapExceededError, InputError, VerificationError
from .graphs import DEFAULT_NODE_BUDGET, Graph, independence_number, sender_graph
from .utility import (
    UtilityMatrix,
    parse_rational,
    sign_class_extrema,
    symmetric_part,
)

#: most symbols whose cycles ``beta_cycle_bound`` enumerates (exponential)
BRUTE_FORCE_SUBSET_CAP = 9
#: default number of candidate subsets examined before giving up
DEFAULT_SUBSET_BUDGET = 500_000


@dataclass(frozen=True)
class FeasibleSetCertificate:
    """A subset certified feasible, carrying the bound |subset|^(1/n) and
    alpha_sym, the independence number of G_s^Sym,n that bounds the size of
    every feasible subset."""

    subset: tuple[int, ...]
    labels: tuple[str, ...]
    blocklength: int
    size: int
    optimal: bool
    alpha_sym: int

    @property
    def bound_float(self) -> float:
        return self.size ** (1.0 / self.blocklength)

    def to_json_dict(self) -> dict:
        return {
            "subset": list(self.labels),
            "blocklength": self.blocklength,
            "size": self.size,
            "bound": {
                "base": self.size,
                "root": self.blocklength,
                "value": self.bound_float,
            },
            "optimal": self.optimal,
            "alpha_sym": self.alpha_sym,
        }


def _validate_subset(q: int, subset: Sequence[int]) -> tuple[int, ...]:
    subset = tuple(subset)
    if len(set(subset)) != len(subset):
        raise InputError(f"subset has repeated symbols: {subset}")
    for s in subset:
        if not 0 <= s < q:
            raise InputError(f"symbol index {s} out of range for q={q}")
    return subset


def has_positive_edges_cycle(U: UtilityMatrix, subset: Sequence[int]
                             ) -> tuple[bool, tuple[int, ...] | None]:
    """Detect a cyclic arrangement along which every misreport is weakly
    profitable.

    Searches for a directed cycle in the graph with an arc j -> i whenever
    u(i, j) >= 0.  Returns (True, chain) with the chain rotated so its
    smallest symbol comes first, or (False, None).
    """
    subset = _validate_subset(U.q, subset)
    if len(subset) < 2:
        raise InputError("a cycle needs at least two symbols")
    return _nonneg_arc_cycle(lambda i, j: U.u[i][j] >= 0, subset)


def _nonneg_arc_cycle(arc: Callable[[int, int], bool], subset: tuple[int, ...]
                      ) -> tuple[bool, tuple[int, ...] | None]:
    # iterative DFS with colors over arcs j -> i (observe j, recover i)
    succ = {
        j: [i for i in subset if i != j and arc(i, j)] for j in subset
    }
    color = {v: 0 for v in subset}  # 0 unvisited, 1 on stack, 2 done
    parent: dict[int, int] = {}
    for root in subset:
        if color[root]:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(succ[w])))
                    advanced = True
                    break
                if color[w] == 1:
                    cycle = [v]
                    x = v
                    while x != w:
                        x = parent[x]
                        cycle.append(x)
                    cycle.reverse()
                    return True, _rotate_min_first(tuple(cycle))
            if not advanced:
                color[v] = 2
                stack.pop()
    return False, None


def _rotate_min_first(cycle: tuple[int, ...]) -> tuple[int, ...]:
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def _nonneg_chain(u, subset: tuple[int, ...]) -> tuple[int, ...] | None:
    """A closed chain of distinct subset members with utility sum >= 0, or None.

    Bellman-Ford on the negated weights w(a -> b) = -u[b][a] ("report a as
    b") from a virtual super-source.  A vertex still relaxed in round
    |subset| leads back along its predecessors into a strictly positive
    chain; otherwise the distances are potentials, and a chain summing to
    exactly zero is a cycle of the zero-reduced-weight subgraph.  The chain
    comes in arc order (chain[m] is reported as chain[m + 1]), smallest
    symbol first, and its sum is checked exactly before it is returned.
    """
    k = len(subset)
    if k < 2:
        return None
    w = [[-u[subset[b]][subset[a]] for b in range(k)] for a in range(k)]
    dist = [0] * k
    pred = [-1] * k
    for _ in range(k):
        last = None
        for a in range(k):
            da = dist[a]
            row = w[a]
            for b in range(k):
                if b != a and da + row[b] < dist[b]:
                    dist[b] = da + row[b]
                    pred[b] = a
                    last = b
        if last is None:
            break
    if last is not None:
        # k steps back from a vertex relaxed in round k land on a cycle
        for _ in range(k):
            last = pred[last]
        cycle = [last]
        v = pred[last]
        while v != last:
            cycle.append(v)
            v = pred[v]
        cycle.reverse()
    else:
        zero_succ = [
            [b for b in range(k) if b != a and dist[a] + w[a][b] == dist[b]]
            for a in range(k)
        ]
        found, cycle = _nonneg_arc_cycle(lambda i, j: i in zero_succ[j], tuple(range(k)))
        if not found:
            return None
    chain = tuple(subset[x] for x in cycle)
    if sum(u[chain[(m + 1) % len(chain)]][c] for m, c in enumerate(chain)) < 0:
        raise VerificationError(f"chain {chain} has negative utility sum")
    return _rotate_min_first(chain)


def is_feasible_O(U: UtilityMatrix, subset: Sequence[int]) -> bool:
    """Whether every non-identity permutation of subset has negative total
    utility (equivalently, every closed chain is strictly negative)."""
    subset = _validate_subset(U.q, subset)
    if not subset:
        raise InputError("subset must be nonempty")
    return _nonneg_chain(U.u, subset) is None


def feasibility_report(U: UtilityMatrix, subset: Sequence[int]) -> dict:
    """Verdict plus, for an infeasible subset, the closed chain that proves
    it (``witness_chain``, each member reported as the next)."""
    subset = _validate_subset(U.q, subset)
    chain = _nonneg_chain(U.u, subset)
    report = {
        "subset": [U.alphabet.symbols[s] for s in subset],
        "feasible": chain is None,
    }
    if chain is not None:
        report["witness_chain"] = [U.alphabet.symbols[s] for s in chain]
    return report


def _independent_subsets(graph: Graph, size: int):
    """All independent vertex subsets of the given size, in lex order."""
    n = graph.n_vertices
    chosen: list[int] = []

    def rec(start: int, excl: int):
        if len(chosen) == size:
            yield tuple(chosen)
            return
        # not enough vertices left to finish
        for v in range(start, n - (size - len(chosen)) + 1):
            if (excl >> v) & 1:
                continue
            chosen.append(v)
            yield from rec(v + 1, excl | graph.rows[v])
            chosen.pop()

    yield from rec(0, 0)


class _SubsetSearch:
    """Largest feasible subset, searched by decreasing size over independent
    sets of the symmetric-part graph, with infeasible-core memoization.

    A candidate's k x k block sums come from the q x q integer utility,
    letter by letter, so no q**n x q**n table is ever built."""

    def __init__(self, U: UtilityMatrix, n: int, sym_graph: Graph, budget: int,
                 node_budget: int):
        self.ints = U.scaled_integer_entries()[1]
        # the letters of every sequence, in canonical index order
        self.words = list(product(range(U.q), repeat=n))
        self.sym_graph = sym_graph
        self.budget = budget
        self.node_budget = node_budget
        self.examined = 0
        self.infeasible_cores: list[frozenset[int]] = []

    def _pruned(self, subset: tuple[int, ...]) -> bool:
        s = frozenset(subset)
        return any(core <= s for core in self.infeasible_cores)

    def _accepts(self, subset: tuple[int, ...]) -> bool:
        # the test relaxes up to k*k rows of k members, each charged as one
        # search node, so node_budget bounds it as it bounds the MIS searches
        k = len(subset)
        if k * k > self.node_budget:
            raise BudgetExceededError(
                f"feasibility test of {k} members exceeds {self.node_budget} nodes")
        ints = self.ints
        words = [self.words[s] for s in subset]
        sums = [[sum(ints[a][b] for a, b in zip(t, y)) for y in words] for t in words]
        chain = _nonneg_chain(sums, range(len(subset)))
        if chain is None:
            return True
        self.infeasible_cores.append(frozenset(subset[m] for m in chain))
        return False

    def run(self) -> tuple[int, tuple[int, ...] | None]:
        """(alpha_sym, the lexicographically first largest feasible subset),
        with None in place of the subset when the budget runs out."""
        alpha_sym, witness = independence_number(self.sym_graph, budget=self.node_budget)
        # the canonical witness is the first candidate; it is tried whatever
        # the budget, since a feasible one matches the alpha_sym upper bound
        first = witness.vertices
        self.examined = 1
        if self._accepts(first):
            return alpha_sym, first
        for size in range(alpha_sym, 0, -1):
            for subset in _independent_subsets(self.sym_graph, size):
                if subset == first:
                    continue
                self.examined += 1
                if self.examined > self.budget:
                    return alpha_sym, None
                if not self._pruned(subset) and self._accepts(subset):
                    return alpha_sym, subset
        raise VerificationError("no feasible subset, though singletons always are")


def gamma(U: UtilityMatrix, budget: int = DEFAULT_SUBSET_BUDGET
          ) -> tuple[int, FeasibleSetCertificate]:
    """Gamma(U): the size of the largest feasible symbol subset, with its
    certificate.  This is ``gamma_n`` at n = 1, except that a certificate
    that is not provably optimal raises BudgetExceededError, which carries
    the size of the feasible floor in ``best``.
    """
    value, cert = gamma_n(U, 1, budget)
    if not cert.optimal:
        raise BudgetExceededError(
            f"subset search exceeded budget of {budget} candidates",
            best=value,
        )
    return value, cert


def gamma_n(U: UtilityMatrix, n: int, budget: int = DEFAULT_SUBSET_BUDGET,
            node_budget: int = DEFAULT_NODE_BUDGET
            ) -> tuple[int, FeasibleSetCertificate]:
    """Gamma(U_n): the largest subset of X^n feasible for the blocklength-n
    problem, with a certificate; Gamma(U_n)^(1/n) bounds the capacity below.

    Every feasible subset is independent in the symmetric-part graph
    G_s^Sym,n, so its independence number alpha_sym bounds Gamma(U_n) above.
    The search tries the canonical maximum independent set of that graph
    first, then every independent set by decreasing size in lexicographic
    order, and returns the first feasible one, which is optimal.  Each
    candidate is tested on its own k x k block sums, summed letter by letter
    from the q x q integer utility, so memory stays at the size of the
    graphs.  If more than ``budget`` candidates are needed, it returns the
    canonical maximum independent set of the sender graph G_s^n instead,
    which is always feasible; that certificate is flagged optimal only when
    its size reaches alpha_sym.  The certificate carries alpha_sym.  Both
    maximum-independent-set searches stop after ``node_budget`` nodes with
    BudgetExceededError, and so does the test of a candidate of k members
    when its k*k Bellman-Ford rows exceed ``node_budget``.
    """
    if n < 1:
        raise InputError("blocklength must be at least 1")
    sym_graph = sender_graph(symmetric_part(U), n)
    alpha_sym, subset = _SubsetSearch(U, n, sym_graph, budget, node_budget).run()
    optimal = subset is not None
    if subset is None:
        _, floor = independence_number(sender_graph(U, n), budget=node_budget)
        subset = floor.vertices
        optimal = len(subset) == alpha_sym
    cert = FeasibleSetCertificate(
        subset=subset,
        labels=tuple(sym_graph.labels[s] for s in subset),
        blocklength=n,
        size=len(subset),
        optimal=optimal,
        alpha_sym=alpha_sym,
    )
    return len(subset), cert


def sufficient_margin_check(U: UtilityMatrix, subset: Sequence[int]) -> bool:
    """Margin condition: no positive-edges cycle and the smallest penalty
    outweighs (|subset|-1) times the largest gain.  True implies feasibility;
    the converse fails in general."""
    subset = _validate_subset(U.q, subset)
    if len(subset) < 2:
        return True
    cycle, _ = _nonneg_arc_cycle(lambda i, j: U.u[i][j] >= 0, subset)
    if cycle:
        return False
    negs = []
    nonnegs = []
    for i in subset:
        for j in subset:
            if i == j:
                continue
            x = U.u[i][j]
            (nonnegs if x >= 0 else negs).append(x)
    if not nonnegs:
        # no weakly profitable misreport at all: the subset is independent in
        # the base sender graph and trivially feasible
        return True
    return min(-x for x in negs) > (len(subset) - 1) * max(nonnegs)


def beta_cycle_bound(U: UtilityMatrix, subset: Sequence[int]) -> bool:
    """Per-chain arc-count condition derived from the capped utility.

    With beta = max-gain / |max-penalty|, every cyclic arrangement of distinct
    subset symbols must contain a negative arc and strictly fewer than 1/beta
    nonnegative arcs.  True implies the subset is feasible.
    """
    subset = _validate_subset(U.q, subset)
    max_nonneg, max_neg, _, _ = sign_class_extrema(U)
    if max_neg is None:
        raise InputError("utility has no negative entries; beta is undefined")
    beta = (max_nonneg if max_nonneg is not None else Fraction(0)) / (-max_neg)
    if len(subset) > BRUTE_FORCE_SUBSET_CAP:
        raise CapExceededError(
            f"cycle enumeration capped at {BRUTE_FORCE_SUBSET_CAP} symbols"
        )
    for k in range(2, len(subset) + 1):
        for combo in combinations(subset, k):
            first, rest = combo[0], combo[1:]
            for tail in permutations(rest):
                cycle = (first,) + tail
                arcs = [
                    (cycle[m], cycle[(m + 1) % k]) for m in range(k)
                ]
                nonneg = sum(1 for j, i in arcs if U.u[i][j] >= 0)
                neg = k - nonneg
                if neg == 0 or nonneg * beta >= 1:
                    return False
    return True


def type_class_size(set_size: int, K: int) -> int:
    """Number of sequences of length K*set_size in which each of the set's
    symbols appears exactly K times: (K*s)! / (K!)**s, exactly."""
    if set_size < 1 or K < 1:
        raise InputError("set_size and K must be at least 1")
    return math.factorial(K * set_size) // math.factorial(K) ** set_size


@dataclass(frozen=True)
class TransportResult:
    """Outcome of the equal-marginals transport relaxation."""

    marginal: tuple[Fraction, ...]
    optimum: Fraction
    unique_diagonal: bool
    entropy_bound: float | None

    def to_json_dict(self) -> dict:
        return {
            "marginal": [str(p) for p in self.marginal],
            "optimum": str(self.optimum),
            "unique_diagonal": self.unique_diagonal,
            "entropy_bound": self.entropy_bound,
        }


def transport_lower_bound(U: UtilityMatrix, P: Sequence) -> TransportResult:
    """Maximize the expected utility over couplings with both marginals P.

    Solved exactly after clearing denominators, as the largest-gain integer
    coupling of the q x q transport network (``_max_gain_coupling``).
    The diagonal coupling always achieves 0; when it is the unique optimum
    the support of P certifies exp(H(P)) as a capacity lower bound (q-ary
    entropy, exponential base q, which is base-independent).
    """
    q = U.q
    marginal = tuple(parse_rational(p) for p in P)
    if len(marginal) != q:
        raise InputError(f"marginal must have {q} entries, got {len(marginal)}")
    if any(p < 0 for p in marginal):
        raise InputError("marginal has a negative entry")
    if sum(marginal) != 1:
        raise InputError(f"marginal sums to {sum(marginal)}, expected 1")

    denom = 1
    for p in marginal:
        denom = denom * p.denominator // math.gcd(denom, p.denominator)
    supplies = [int(p * denom) for p in marginal]
    scale, uint = U.scaled_integer_entries()
    optimum = Fraction(_max_gain_coupling(uint, supplies), denom * scale)

    support = tuple(i for i in range(q) if marginal[i] > 0)
    unique = False
    if optimum == 0:
        # diagonal is optimal; it is unique iff no nonpositive chain lives in
        # the support (any alternative optimum decomposes into such chains)
        unique = _nonneg_chain(U.u, support) is None
    bound = None
    if unique:
        bound = math.exp(-sum(float(p) * math.log(float(p))
                              for p in marginal if p > 0))
    return TransportResult(marginal, optimum, unique, bound)


def _max_gain_coupling(gain, supplies: list[int]) -> int:
    """Largest sum of gain[i][j] * f[i][j] over nonnegative integer couplings
    f whose row sums and column sums both equal supplies.

    Successive longest augmenting paths on the q x q transport network: its
    residual arcs are x_i -> y_j with gain gain[i][j], and y_j -> x_i with
    gain -gain[i][j] wherever f[i][j] > 0.  Each round finds by Bellman-Ford
    the longest paths from the rows with supply left, and augments along the
    one to a column with demand left by its bottleneck.  Starting from the
    empty coupling, augmenting along longest paths leaves no positive
    residual cycle, so the final coupling is optimal.
    """
    q = len(supplies)
    flow = [[0] * q for _ in range(q)]
    left, need = list(supplies), list(supplies)
    total = 0
    while any(left):
        dx = [0 if left[i] else None for i in range(q)]
        dy = [None] * q
        px, py = [None] * q, [None] * q
        changed = True
        while changed:  # at most 2q rounds, as no residual cycle is positive
            changed = False
            for i, j in product(range(q), repeat=2):
                if dx[i] is not None and (dy[j] is None or dx[i] + gain[i][j] > dy[j]):
                    dy[j], py[j], changed = dx[i] + gain[i][j], i, True
            for i, j in product(range(q), repeat=2):
                if flow[i][j] and (dx[i] is None or dy[j] - gain[i][j] > dx[i]):
                    dx[i], px[i], changed = dy[j] - gain[i][j], j, True
        sink = next(j for j in range(q) if need[j])
        forward, backward, j = [], [], sink
        while True:
            i = py[j]
            forward.append((i, j))
            if px[i] is None:
                break
            j = px[i]
            backward.append((i, j))
        step = min(left[i], need[sink], *(flow[a][b] for a, b in backward))
        for a, b in forward:
            flow[a][b] += step
        for a, b in backward:
            flow[a][b] -= step
        left[i] -= step
        need[sink] -= step
        total += step * dy[sink]
    return total
