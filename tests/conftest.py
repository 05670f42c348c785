"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's optimized code paths:
alpha by plain recursive backtracking, feasibility by enumerating every
permutation (or, for sets too large for that, by the heaviest closed walk),
sender graphs straight from the definition.  Golden values in
the tests were computed with these.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
import random

import pytest

import ixcap.graphs
from ixcap.channel import make_channel
from ixcap.cli import corpus_path
from ixcap.errors import InputError
from ixcap.game import DOMINATED, expected_block_utility
from ixcap.graphs import Graph, graph_from_edges
from ixcap.utility import (
    Alphabet,
    UtilityMatrix,
    load_utility,
    normalize_diagonal,
)


@pytest.fixture(scope="session")
def example1():
    return load_utility(corpus_path("example1.json"))


@pytest.fixture(scope="session")
def example1_prime():
    return load_utility(corpus_path("example1_prime.json"))


@pytest.fixture(scope="session")
def example2():
    return load_utility(corpus_path("example2.json"))


@pytest.fixture(scope="session")
def example3():
    return load_utility(corpus_path("example3.json"))


@pytest.fixture(scope="session")
def pentagon():
    return load_utility(corpus_path("pentagon.json"))


@pytest.fixture(scope="session")
def pentagon_literal():
    return load_utility(corpus_path("example4_literal.json"))


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def edge_count(g: Graph) -> int:
    return sum(r.bit_count() for r in g.rows) // 2


def is_independent(g: Graph, vertices) -> bool:
    """Whether no two of the vertices are adjacent in g; InputError for a
    vertex out of range."""
    vs = list(vertices)
    for v in vs:
        if not 0 <= v < g.n_vertices:
            raise InputError(f"vertex {v} out of range")
    mask = 0
    for v in vs:
        mask |= 1 << v
    return all(g.rows[v] & mask == 0 for v in vs)


def complement_rows(g: Graph) -> tuple[int, ...]:
    """The rows of g's complement: every other vertex that g's row lacks."""
    full = (1 << g.n_vertices) - 1
    return tuple((full ^ row) & ~(1 << v) for v, row in enumerate(g.rows))


def random_utility(rng: random.Random, q: int, den: int = 4,
                   lo: int = -8, hi: int = 8) -> UtilityMatrix:
    """Random zero-diagonal rational utility with denominators up to den."""
    rows = [
        [
            Fraction(0) if i == j
            else Fraction(rng.randint(lo, hi), rng.randint(1, den))
            for j in range(q)
        ]
        for i in range(q)
    ]
    return normalize_diagonal(rows, Alphabet.of_size(q))


def random_int_utility(rng: random.Random, q: int,
                       values=(-1, 0, 1)) -> UtilityMatrix:
    """Random zero-diagonal utility with entries drawn from values; small
    integers give zero-sum chains often, which random_utility rarely does."""
    rows = [[0 if i == j else rng.choice(values) for j in range(q)]
            for i in range(q)]
    return normalize_diagonal(rows, Alphabet.of_size(q))


def random_symmetric_utility(rng: random.Random, q: int) -> UtilityMatrix:
    u = random_utility(rng, q)
    rows = [
        [(u.u[i][j] + u.u[j][i]) / 2 for j in range(q)] for i in range(q)
    ]
    return UtilityMatrix(u.alphabet, tuple(tuple(r) for r in rows))


@pytest.fixture
def sandwich_calls(monkeypatch) -> list:
    """The graphs that independence_number bounds by their letter tables
    from now on, one entry per ``graphs._sandwich`` call."""
    calls = []
    sandwich = ixcap.graphs._sandwich
    monkeypatch.setattr(ixcap.graphs, "_sandwich",
                        lambda g, *args: calls.append(g) or sandwich(g, *args))
    return calls


def random_channel(rng, q: int):
    """Rows supported on one or two outputs with random rational weights."""
    rows = []
    for _ in range(q):
        weights = {z: rng.randint(1, 4) for z in rng.sample(range(q), rng.randint(1, 2))}
        total = sum(weights.values())
        rows.append([Fraction(weights.get(z, 0), total) for z in range(q)])
    return make_channel(Alphabet.of_size(q), rows)


def incremented(U: UtilityMatrix) -> UtilityMatrix:
    """The entrywise maximum of u and its transpose, that is the symmetric
    part plus the absolute antisymmetric part: a symmetric utility that
    dominates U."""
    q = U.q
    return UtilityMatrix(U.alphabet, tuple(
        tuple(max(U.u[i][j], U.u[j][i]) for j in range(q)) for i in range(q)))


def capped_max(U: UtilityMatrix) -> UtilityMatrix:
    """U with each off-diagonal sign class (>= 0 and < 0) replaced by its
    maximum: a utility that dominates U."""
    offdiag = sorted(x for i, row in enumerate(U.u) for j, x in enumerate(row) if i != j)
    top = {x >= 0: x for x in offdiag}
    return UtilityMatrix(U.alphabet, tuple(
        tuple(x if i == j else top[x >= 0] for j, x in enumerate(row))
        for i, row in enumerate(U.u)))


# ---------------------------------------------------------------- oracles


def oracle_alpha(graph) -> tuple[int, tuple[int, ...]]:
    """Maximum independent set by exhaustive recursive backtracking."""
    n = graph.n_vertices
    best = [0, ()]

    def rec(v, chosen_mask, chosen):
        if len(chosen) + (n - v) <= best[0]:
            return
        if v == n:
            if len(chosen) > best[0]:
                best[0], best[1] = len(chosen), tuple(chosen)
            return
        if not graph.rows[v] & chosen_mask:
            chosen.append(v)
            rec(v + 1, chosen_mask | (1 << v), chosen)
            chosen.pop()
        rec(v + 1, chosen_mask, chosen)

    rec(0, 0, [])
    return best[0], best[1]


def oracle_lex_least_mis(graph, alpha: int) -> tuple[int, ...]:
    """Lexicographically least maximum independent set by enumerating the
    alpha-sets in lexicographic order.  A prefix that is not independent,
    or has too few vertices after it to reach alpha, is skipped with every
    set it starts, none of which could be the answer."""
    n, rows, chosen = graph.n_vertices, graph.rows, []

    def first(start: int, mask: int) -> bool:
        if len(chosen) == alpha:
            return True
        for v in range(start, n - (alpha - len(chosen)) + 1):
            if not rows[v] & mask:
                chosen.append(v)
                if first(v + 1, mask | 1 << v):
                    return True
                chosen.pop()
        return False

    if not first(0, 0):
        raise AssertionError("no independent set of the claimed size")
    return tuple(chosen)


def oracle_letter_rule(table) -> bool:
    """Whether the q x q table t meets the condition under which a block
    graph is answered from its letters, read from the definitions: the sign
    graph I of t (a ~ b iff t(a, b) >= 0 or t(b, a) >= 0) has the edges of
    the sign graph H of t + t^T, and alpha(I) is H's clique cover number."""
    q = len(table)
    pairs = list(combinations(range(q), 2))
    i_edges = [(a, b) for a, b in pairs if table[a][b] >= 0 or table[b][a] >= 0]
    h_edges = [(a, b) for a, b in pairs if table[a][b] + table[b][a] >= 0]
    i_graph = ixcap.graphs.graph_from_edges(q, i_edges)
    return i_edges == h_edges and oracle_alpha(i_graph)[0] == oracle_clique_cover(i_graph)


#: a closed sandwich with I != H: alpha(I) = 2 = H's clique cover number
#: and L = (1, 3), yet at n = 3 the lexicographically least maximum set of
#: G_s^3 holds 74 where L^3 has 81
LEX_COUNTEREXAMPLE = [[0, 0, 1, 1, 2], [-1, 0, 1, -2, -1], [2, -3, 0, 1, 0],
                      [0, -1, 2, 0, -2], [-1, 1, 2, -3, 0]]


def oracle_perfect(graph) -> bool:
    """Perfectness from the definition: omega(H) = chi(H) for every induced
    subgraph H, with the clique number by enumeration and the chromatic
    number by backtracking over colour classes."""
    n = graph.n_vertices

    def colourable(vs, k, colours):
        if not vs:
            return True
        v, rest = vs[0], vs[1:]
        for c in range(k):
            if not graph.rows[v] & colours[c]:
                colours[c] |= 1 << v
                if colourable(rest, k, colours):
                    return True
                colours[c] &= ~(1 << v)
            if not colours[c]:  # the empty classes are interchangeable
                break
        return False

    for size in range(1, n + 1):
        for vs in combinations(range(n), size):
            omega = max(k for k in range(1, size + 1) for c in combinations(vs, k)
                        if all(graph.has_edge(a, b) for a, b in combinations(c, 2)))
            if not colourable(vs, omega, [0] * omega):
                return False
    return True


def oracle_clique_cover(graph) -> int:
    """Fewest blocks over every set partition of the vertices whose blocks
    are all cliques, by enumerating those partitions: a vertex joins each
    block that it is adjacent to all of, or opens a new one."""
    n = graph.n_vertices

    def partitions(v, blocks):
        if v == n:
            yield len(blocks)
            return
        for block in blocks:
            if all(graph.has_edge(u, v) for u in block):
                block.append(v)
                yield from partitions(v + 1, blocks)
                block.pop()
        blocks.append([v])
        yield from partitions(v + 1, blocks)
        blocks.pop()

    return min(partitions(0, []))


def oracle_symmetric_graph(U: UtilityMatrix) -> Graph:
    """G_s^Sym straight from the definition, on the Fraction symmetric part."""
    return graph_from_edges(U.q, sorted(oracle_sender_edges(oracle_symmetric_part(U), 1)))


def oracle_clique_certificate(U: UtilityMatrix, cert: dict, alpha: int | None = None) -> bool:
    """Whether a certificate's ``cliques``, lists of letter labels, are
    alpha(G_s^Sym) cliques of G_s^Sym that partition U's letters: the
    check of theta(G_s^Sym) = alpha that a reader runs in O(q^2).  alpha,
    when a caller knows it by other means, else by enumeration."""
    g = oracle_symmetric_graph(U)
    index = {s: i for i, s in enumerate(U.alphabet.symbols)}
    cliques = [[index[s] for s in c] for c in cert["cliques"]]
    return (sorted(v for c in cliques for v in c) == list(range(U.q))
            and all(g.has_edge(a, b) for c in cliques for a, b in combinations(c, 2))
            and len(cliques) == (oracle_alpha(g)[0] if alpha is None else alpha))


def oracle_feasible(u_rows, subset) -> bool:
    """All non-identity permutations strictly negative, by enumeration."""
    subset = tuple(subset)
    k = len(subset)
    idx = tuple(range(k))
    for p in permutations(idx):
        if p == idx:
            continue
        total = sum(
            (u_rows[subset[p[m]]][subset[m]] for m in range(k)), Fraction(0)
        )
        if total >= 0:
            return False
    return True


def oracle_feasible_by_walks(u_rows, subset) -> bool:
    """All closed chains strictly negative, by Floyd-Warshall: the heaviest
    walk between every two members, in Fractions.  A closed walk splits
    into closed chains, so some closed walk of weight >= 0 exists iff some
    closed chain has weight >= 0; every update is a real walk, so the
    heaviest closed walks are found even past a positive one."""
    subset = tuple(subset)
    k = len(subset)
    # arc a -> b: a is reported as b, worth u(b, a); None: no walk yet
    d = [[None if a == b else Fraction(u_rows[subset[b]][subset[a]]) for b in range(k)]
         for a in range(k)]
    for m in range(k):
        for a in range(k):
            if d[a][m] is None:
                continue
            for b in range(k):
                if d[m][b] is not None and (d[a][b] is None or d[a][m] + d[m][b] > d[a][b]):
                    d[a][b] = d[a][m] + d[m][b]
    return all(d[a][a] is None or d[a][a] < 0 for a in range(k))


def oracle_largest_feasible(U: UtilityMatrix, n: int) -> tuple[int, ...]:
    """The lexicographically first largest feasible subset of X^n.

    Candidates are the sets whose every pair and every triple is feasible
    (every pair: the independent sets of G_s^Sym,n), by decreasing size and
    in lexicographic order within a size, from the Fraction block sums; the
    first that ``oracle_feasible_by_walks`` accepts wins."""
    rows = oracle_block_sums(U, n)
    nv = len(rows)
    compatible = [sum(1 << y for y in range(nv) if y != t and rows[t][y] + rows[y][t] < 0)
                  for t in range(nv)]
    bad_triples = {
        (a, b, c) for a, b, c in combinations(range(nv), 3)
        if compatible[a] >> b & 1 and compatible[a] >> c & 1 and compatible[b] >> c & 1
        and not oracle_feasible(rows, (a, b, c))
    }

    def candidates(size, start, allowed, chosen):
        if len(chosen) == size:
            yield chosen
            return
        for v in range(start, nv - (size - len(chosen)) + 1):
            if allowed >> v & 1 and not any(
                    (a, b, v) in bad_triples for a, b in combinations(chosen, 2)):
                yield from candidates(size, v + 1, allowed & compatible[v], chosen + (v,))

    for size in range(nv, 0, -1):
        for subset in candidates(size, 0, (1 << nv) - 1, ()):
            if oracle_feasible_by_walks(rows, subset):
                return subset
    raise AssertionError("no feasible subset, though singletons always are")


def oracle_symmetric_part(U: UtilityMatrix) -> UtilityMatrix:
    """The symmetric part (u(i, j) + u(j, i)) / 2 in Fractions; its sender
    graph is G_s^Sym."""
    q = U.q
    return UtilityMatrix(U.alphabet, tuple(
        tuple((U.u[i][j] + U.u[j][i]) / 2 for j in range(q)) for i in range(q)))


def oracle_sender_edges(U: UtilityMatrix, n: int) -> set[tuple[int, int]]:
    """Sender-graph edge set straight from the definition, Fraction sums."""
    q = U.q
    seqs = list(product(range(q), repeat=n))
    edges = set()
    for a, b in combinations(range(len(seqs)), 2):
        x, y = seqs[a], seqs[b]
        uyx = sum(U.u[i][j] for i, j in zip(y, x))
        uxy = sum(U.u[i][j] for i, j in zip(x, y))
        if uyx >= 0 or uxy >= 0:
            edges.add((a, b))
    return edges


def oracle_block_sums(U: UtilityMatrix, n: int, rows=None) -> list[list[Fraction]]:
    """Block sums sum_k u(t_k, y_k) from the definition, in Fractions: one row
    per recovered sequence t in rows (default all), one column per observed y."""
    seqs = list(product(range(U.q), repeat=n))
    if rows is None:
        rows = range(len(seqs))
    return [
        [sum((U.u[a][b] for a, b in zip(seqs[t], y)), Fraction(0)) for y in seqs]
        for t in rows
    ]


def oracle_best_responses(raw_rows, q: int) -> list[tuple[int, ...]]:
    """Per observed symbol, the argmax set of recovered symbols (raw matrix,
    no normalization assumed); identifies the best-response structure."""
    out = []
    for j in range(q):
        col = [raw_rows[i][j] for i in range(q)]
        best = max(col)
        out.append(tuple(i for i in range(q) if col[i] == best))
    return out


def oracle_noisy_outcome(U: UtilityMatrix, channel, g
                         ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The pessimistic worst case of a receiver map g over a noisy channel,
    from the definition in Fractions: (the sources recovered under every best
    response, each source's best responses if it is recovered, else ()).

    The sender's best responses to x are the inputs of greatest expected
    utility (``expected_block_utility``) among those that reach no undecoded
    output; x is recovered when there are some and every possible output of
    every one of them decodes to x.  Supports are expanded word by word."""
    n = g.n
    words = list(product(range(U.q), repeat=n))
    supports = [[z for z, outs in enumerate(words)
                 if all(channel.support[a] >> b & 1 for a, b in zip(letters, outs))]
                for letters in words]
    decoded, summary = [], []
    for x in range(len(words)):
        values = {y: expected_block_utility(U, channel, g, y, x, n) for y in range(len(words))}
        live = {y: v for y, v in values.items() if v is not DOMINATED}
        best = max(live.values(), default=None)
        responses = tuple(y for y, v in live.items() if v == best)
        recovered = responses and all(g.decode[z] == x for y in responses for z in supports[y])
        if recovered:
            decoded.append(x)
        summary.append(responses if recovered else ())
    return tuple(decoded), tuple(summary)
