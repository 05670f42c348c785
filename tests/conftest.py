"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's optimized code paths:
alpha by plain recursive backtracking, feasibility by enumerating every
permutation, sender graphs straight from the definition.  Golden values in
the tests were computed with these.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
import random

import pytest

from ixcap.cli import corpus_path
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
    """Lexicographically least maximum independent set by full enumeration."""
    n = graph.n_vertices
    for combo in combinations(range(n), alpha):
        mask = 0
        ok = True
        for v in combo:
            if graph.rows[v] & mask:
                ok = False
                break
            mask |= 1 << v
        if ok:
            return combo
    raise AssertionError("no independent set of the claimed size")


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
