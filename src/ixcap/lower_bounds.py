"""Lower-bound certificates: feasible symbol subsets at blocklength n.

A subset is feasible when every closed chain of distinct members (each one
reported as the next) has strictly negative total utility; Gamma(U_n), the
size of the largest feasible subset of X^n, gives the capacity lower bound
Gamma(U_n)^(1/n).  Ties matter: a zero-sum chain already destroys
feasibility.  Every feasibility question has one answer path and one
algorithm, ``_nonneg_chain``: a single Bellman-Ford pass whose weights, the
integer utilities scaled by k + 1 for a k-member subset less 1 per arc,
make the chains with sum >= 0, ties included, exactly its negative cycles.
It returns the offending chain itself, checked by its exact utility sum.
``gamma_n`` has one search, a branch and bound over the independent sets of
the symmetric-part graph G_s^Sym,n in index order, and one budget,
``node_budget``, which counts the work of its trials and tests; out of
budget, it returns the largest feasible subset found.  A feasible subset is
independent in G_s^Sym,n, so it meets each clique of a clique partition at
most once: a branch is cut when the open candidates split into too few
cliques, by the greedy colouring of ``graphs._CliqueSearch`` on G_s^Sym,n's
own rows, to lift its members past the largest subset found.  At n >= 2,
while one row block holds its (q**n)**3 triple cells, the search sums one
whole q**n x q**n table, and once the canonical maximum independent set
fails it builds from it a mask per ordered pair of words of the words that
close a 3-cycle of sum >= 0 with them: every 3-member infeasible core.
Each child drops from its candidates the masks of its new vertex with
every member, so no set of at most three members needs a test, and the
clique cover sees only the words that can still join.  ``gamma`` is
``gamma_n`` at n = 1.  All arithmetic is exact, on the integer utilities a
of ``UtilityMatrix.scaled_integer_entries``; G_s^Sym,n is
``graphs.symmetric_sender_graph``, signs of the letter sums of a + a^T.

One sufficient condition is kept beside the exact test,
``sufficient_margin_check``, because ``ixcap gamma --subset`` prints it next
to the exact verdict and a corpus golden checks it on example 2, which is
feasible although it fails the margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, InputError, VerificationError
from .graphs import (
    DEFAULT_NODE_BUDGET,
    Graph,
    _CliqueSearch,
    _Meter,
    _alpha,
    _ensure_recursion_headroom,
    _pack_bool_rows,
    _plus_transpose,
    _sign_block,
)
from .utility import UtilityMatrix, _expand_rows, _row_blocks, _sum_table, sequence_labels


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
    """subset as a tuple; InputError if it is empty, repeats a symbol or
    names one outside 0..q-1."""
    subset = tuple(subset)
    if not subset:
        raise InputError("subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise InputError(f"subset has repeated symbols: {subset}")
    for s in subset:
        if not 0 <= s < q:
            raise InputError(f"symbol index {s} out of range for q={q}")
    return subset


def _rotate_min_first(cycle: tuple[int, ...]) -> tuple[int, ...]:
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def _nonneg_chain(u, subset: Sequence[int]) -> tuple[int, ...] | None:
    """A closed chain of distinct subset members with utility sum >= 0, or None.

    ``u`` holds integers.  One Bellman-Ford pass from a virtual super-source
    on the weights w(a -> b) = -(k + 1) * u[b][a] - 1 ("report a as b"),
    k = |subset|.  A simple cycle of L <= k arcs with utility sum s weighs
    -(k + 1) * s - L, which is negative for s >= 0 and, since the sums are
    integers, at least k + 1 - L > 0 for s <= -1: the negative cycles are
    exactly the chains that break feasibility, ties included.  A cycle among
    the predecessors is always negative, so the pass stops at the first
    round whose last relaxed vertex leads back into one; a vertex still
    relaxed in round k always does.  The chain comes in arc order (chain[m]
    is reported as chain[m + 1]), smallest symbol first, and its sum is
    checked exactly before it is returned.
    """
    k = len(subset)
    if k < 2:
        return None
    w = [[-(k + 1) * u[subset[b]][subset[a]] - 1 for b in range(k)] for a in range(k)]
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
            return None
        seen = set()
        while last != -1 and last not in seen:
            seen.add(last)
            last = pred[last]
        if last != -1:
            break
    cycle = [last]
    v = pred[last]
    while v != last:
        cycle.append(v)
        v = pred[v]
    chain = tuple(subset[x] for x in reversed(cycle))
    if sum(u[chain[(m + 1) % len(chain)]][c] for m, c in enumerate(chain)) < 0:
        raise VerificationError(f"chain {chain} has negative utility sum")
    return _rotate_min_first(chain)


def is_feasible_O(U: UtilityMatrix, subset: Sequence[int]) -> bool:
    """Whether every non-identity permutation of subset has negative total
    utility (equivalently, every closed chain is strictly negative)."""
    subset = _validate_subset(U.q, subset)
    return _nonneg_chain(U.scaled_integer_entries[1], subset) is None


def feasibility_report(U: UtilityMatrix, subset: Sequence[int]) -> dict:
    """Verdict plus, for an infeasible subset, the closed chain that proves
    it (``witness_chain``, each member reported as the next)."""
    subset = _validate_subset(U.q, subset)
    chain = _nonneg_chain(U.scaled_integer_entries[1], subset)
    report = {
        "subset": [U.alphabet.symbols[s] for s in subset],
        "feasible": chain is None,
    }
    if chain is not None:
        report["witness_chain"] = [U.alphabet.symbols[s] for s in chain]
    return report


def _triple_masks(s: np.ndarray) -> list[tuple[int, ...]]:
    """masks[a][b], bit c set iff the words a, b, c of X^n are distinct
    and one of their two 3-cycles, a -> b -> c -> a or a -> c -> b -> a
    (each word reported as the next), has utility sum >= 0.

    The cycle a -> b -> c -> a sums s[b, a] + s[c, b] + s[a, c], s the
    whole pair-sum table of X^n that ``_largest_feasible`` holds, in the
    dtype that ``_sum_table`` keeps from overflowing for three of them."""
    nv = len(s)
    closes = s.T[:, :, None] + s.T[None, :, :] + s[:, None, :] >= 0
    closes |= closes.transpose(0, 2, 1)
    words = np.arange(nv)
    closes[words, words, :] = False
    closes[words, :, words] = False
    closes[:, words, words] = False
    packed = _pack_bool_rows(closes.reshape(nv * nv, nv))
    return [packed[a * nv:(a + 1) * nv] for a in range(nv)]


def _largest_feasible(U: UtilityMatrix, n: int, sym_graph: Graph, first: tuple[int, ...],
                      meter: _Meter) -> tuple[tuple[int, ...], bool]:
    """(the lexicographically first largest feasible subset of X^n, True),
    or (the largest one found before ``meter`` ran out, False); with none
    found by then, the meter's BudgetExceededError goes through.

    ``first`` is the canonical maximum independent set of G_s^Sym,n; it is
    tested before anything else, since a feasible one meets the ceiling.
    Otherwise a depth-first search over the vertices in index order first
    includes the lowest open candidate that no member neighbours in
    G_s^Sym,n, then excludes it.  A failed test records its chain's members
    as an infeasible core, and a trial that contains a known core is
    skipped untested, since supersets of an infeasible set are infeasible.
    The members are feasible and all below the new vertex v, so only cores
    whose largest vertex is v can lie in the trial.

    When the canonical set fails and the search holds the whole table,
    ``_triple_masks`` gives from it, for each pair of words, the words
    that close a 3-cycle of sum >= 0 with them.  A child's candidates
    lose G_s^Sym,n's neighbours of its new vertex v, as before, and the
    mask of (v, m) for each member m: every set in the child holds v and m,
    so none can hold a word of that mask.  Every pair and triple of a set
    built this way is then feasible, and sets of at most three members go
    untested (at most two with no masks: at n = 1, where the build costs
    more than the node or so it saves, and above the table's cut).  Only
    sets that contain an infeasible triple leave the search, so the first
    largest set is unchanged.

    Each branch is bounded by a clique cover of its open candidates in
    G_s^Sym,n: the greedy colouring of ``graphs._CliqueSearch`` on
    G_s^Sym,n's own rows, whose colour classes are its cliques, made once
    per search.  A feasible subset is independent there and meets each
    clique at most once, so when the members plus the cliques come to no
    more than the incumbent, no set in the branch beats it, and the branch
    is cut (``_color_order`` lists no class from the one needed up).  The
    incumbent changes only for a strictly larger set, and the order (lowest
    open vertex first, including it before excluding it) is that of the
    unbounded search, whose first largest set found is the
    lexicographically least.  The branch that holds that set is never cut,
    since its open part is independent and so needs as many cliques as it
    has members: the bound changes the node count, never the answer.

    Each trial costs one node, and the test of a k-member set k*k more, its
    Bellman-Ford rows, also when the masks make the test unneeded, so a
    budget buys the same trials either way; the cover and the masks charge
    none.  The members' k x k block sums grow by one row and one column per
    trial: at n = 1 the integer utility's own entries, at n >= 2 the table
    (in the type that holds three of its sums) while one ``_row_blocks``
    block holds its triple cells, and above that sums of letters.
    """
    rows, ceiling, nv = sym_graph.rows, len(first), sym_graph.n_vertices
    cores: list[list[int]] = [[] for _ in range(nv)]
    best: tuple[int, ...] = ()
    meter.charge(ceiling * ceiling, f"feasibility test of {ceiling} members")

    ints = U.scaled_integer_entries[1]
    table = (_expand_rows(_sum_table(ints, 3 * n), n)
             if n > 1 and len(_row_blocks(nv * nv, nv)) == 1 else None)
    if n == 1 or table is not None:
        listed = ints if table is None else table.tolist()

        def pair(t: int, y: int) -> int:
            return listed[t][y]
    else:
        words = list(product(range(U.q), repeat=n))

        def pair(t: int, y: int) -> int:
            return sum(ints[a][b] for a, b in zip(words[t], words[y]))

    def feasible(members: Sequence[int], sums: list[list[int]]) -> bool:
        chain = _nonneg_chain(sums, range(len(members)))
        if chain is not None:
            core = [members[m] for m in chain]
            cores[max(core)].append(sum(1 << m for m in core))
        return chain is None

    if feasible(first, [[pair(t, y) for y in first] for t in first]):
        return first, True

    cover = _CliqueSearch(sym_graph.rows, meter)
    triples = None if table is None else _triple_masks(table)
    tested = 3 if triples is None else 4

    def search(members: list[int], sums: list[list[int]], mask: int, cand: int) -> bool:
        """Extend members from cand; True once best meets the ceiling."""
        nonlocal best
        while cover._color_order(cand, len(best) - len(members) + 1):
            v = (cand & -cand).bit_length() - 1
            cand ^= 1 << v
            trial = mask | 1 << v
            skip = any(core & trial == core for core in cores[v])
            meter.charge(1 if skip else 1 + (len(members) + 1) ** 2, "subset search")
            if skip:
                continue
            for m, row in zip(members, sums):
                row.append(pair(m, v))
            drop = rows[v]
            if triples is not None:
                for m in members:
                    drop |= triples[v][m]
            members.append(v)
            sums.append([pair(v, m) for m in members])
            if len(members) < tested or feasible(members, sums):
                if len(members) > len(best):
                    best = tuple(members)
                if len(best) == ceiling or search(members, sums, trial, cand & ~drop):
                    return True
            members.pop()
            sums.pop()
            for row in sums:
                row.pop()
        return False

    _ensure_recursion_headroom(ceiling)
    try:
        search([], [], 0, (1 << nv) - 1)
    except BudgetExceededError:
        if not best:
            raise
        return best, False
    return best, True


def gamma(U: UtilityMatrix, node_budget: int = DEFAULT_NODE_BUDGET
          ) -> tuple[int, FeasibleSetCertificate]:
    """Gamma(U): the size of the largest feasible symbol subset, with its
    certificate.  This is ``gamma_n`` at n = 1, except that a certificate
    that is not provably optimal raises BudgetExceededError, which carries
    the size of the largest feasible subset found in ``best``.  A search
    that runs out before it holds a feasible subset raises with ``best``
    None, so ``best`` never exceeds Gamma(U) and never falls as the budget
    grows.
    """
    try:
        value, cert = gamma_n(U, 1, node_budget)
    except BudgetExceededError as exc:
        # the alpha(G_s^Sym) search's best is an independent-set size
        value, message = None, str(exc)
    else:
        if cert.optimal:
            return value, cert
        message = f"subset search exceeded {node_budget} nodes"
    raise BudgetExceededError(message, best=value)


def gamma_n(U: UtilityMatrix, n: int, node_budget: int = DEFAULT_NODE_BUDGET
            ) -> tuple[int, FeasibleSetCertificate]:
    """Gamma(U_n): the largest subset of X^n feasible for the blocklength-n
    problem, with a certificate; Gamma(U_n)^(1/n) bounds the capacity below.

    Every feasible subset is independent in the symmetric-part graph
    G_s^Sym,n, so its independence number alpha_sym, which the certificate
    carries, bounds Gamma(U_n) above.  The subset search
    (``_largest_feasible``) returns the lexicographically first largest
    feasible subset.  ``node_budget`` bounds the maximum-independent-set
    search and, separately, the subset search; when the subset search runs
    out, it returns the largest feasible subset found so far, in a
    certificate not flagged optimal.  Raises BudgetExceededError when the
    maximum search runs out, or the subset search before it holds any set.
    The alpha search's copy starts from the sign kernel's block
    (``graphs._sign_block``).  ``xi_bracket`` runs the same search through
    ``_gamma_n`` at every n, on a U that is not symmetric, taking alpha_sym
    from its own memo of searches; at n_max = 2, G_s^Sym,n is too small for
    ``graphs.independence_number`` to bound it by its letter table unless
    q >= 8.
    """
    sym_graph, packed = _sign_block(_plus_transpose(U.scaled_integer_entries[1]), n)
    found = _alpha(sym_graph, _Meter(node_budget), True, packed=packed)
    return _gamma_n(U, n, sym_graph, found, node_budget)


def _gamma_n(U: UtilityMatrix, n: int, sym_graph: Graph, found: tuple[int, tuple[int, ...]],
             node_budget: int) -> tuple[int, FeasibleSetCertificate]:
    """``gamma_n`` on G_s^Sym,n already built and searched: ``found`` is
    its (alpha_sym, canonical witness)."""
    alpha_sym, witness = found
    subset, optimal = _largest_feasible(U, n, sym_graph, witness, _Meter(node_budget))
    cert = FeasibleSetCertificate(
        subset=subset,
        labels=sequence_labels(U.alphabet, n, subset),
        blocklength=n,
        size=len(subset),
        optimal=optimal,
        alpha_sym=alpha_sym,
    )
    return len(subset), cert


def sufficient_margin_check(U: UtilityMatrix, subset: Sequence[int]) -> bool:
    """Margin condition: no cycle of weakly profitable misreports and the
    smallest penalty outweighs (|subset|-1) times the largest gain.  True
    implies feasibility; the converse fails in general."""
    subset = _validate_subset(U.q, subset)
    if len(subset) < 2:
        return True
    # on U's sign matrix, 0 where u >= 0, a chain sums to 0 exactly when
    # every misreport along it is weakly profitable
    if _nonneg_chain([[0 if x >= 0 else -1 for x in row] for row in U.u], subset) is not None:
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
