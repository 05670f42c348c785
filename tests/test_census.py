"""The q = 3 census: ``xi_bracket`` on every utility with off-diagonal
entries in {-2..2}, one per class under the 6 relabellings of the letters.

It pins how many classes the bracket closes and by which certificates, and
it checks, on every class, that the answer does not move under a
relabelling or a positive rescale with column offsets, and that each
blocklength's record keeps the order laws Gamma(U_n) >= alpha(G_s^n) and
alpha(G_s^n) <= cover_number(G_s^Sym)^n.  The open classes are listed, as
the targets of a stronger bound.  A seeded sample of 1500 of the 22 815
classes of the q = 4 census, entries in {-1, 0, 1}, pins its certificate
counts and keeps the same relations and order laws.

The graph census runs the graph utility of every graph on 5 and 6
vertices, up to isomorphism, through the bracket, and a metamorphic check
raises random utilities entrywise: neither lower bound may rise."""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from conftest import (
    oracle_clique_certificate,
    oracle_clique_cover,
    oracle_symmetric_graph,
    random_utility,
)
from ixcap.graphs import (
    Graph,
    cycle_graph,
    independence_number,
    sender_graph,
    symmetric_sender_graph,
)
from ixcap.lower_bounds import gamma_n
from ixcap.theta import lovasz_theta
from ixcap.upper_bounds import xi_bracket
from ixcap.utility import normalize_diagonal, utility_from_graph

Q = 3
CELLS = [(i, j) for i in range(Q) for j in range(Q) if i != j]
RELABELLINGS = list(permutations(range(Q)))

#: the classes that stay open at n_max = 2, each bracketed [2, 3] by the
#: alphabet size, with the name of its lower certificate
OPEN = [
    ([[0, -2, -2], [-2, 0, 1], [1, -2, 0]], "alpha_sender_power"),
    ([[0, -2, -2], [-1, 0, 1], [1, -2, 0]], "alpha_sender_power"),
    ([[0, -2, -2], [0, 0, 1], [1, -2, 0]], "gamma_blocklength"),
    ([[0, -2, -2], [1, 0, -2], [1, 1, 0]], "gamma_blocklength"),
    ([[0, -2, -1], [0, 0, -2], [-2, 1, 0]], "alpha_sender_power"),
    ([[0, -2, -1], [0, 0, -2], [-1, 1, 0]], "alpha_sender_power"),
    ([[0, -2, -1], [0, 0, -2], [0, 1, 0]], "gamma_blocklength"),
    ([[0, -2, -1], [1, 0, -2], [-2, 0, 0]], "alpha_sender_power"),
    ([[0, -2, -1], [1, 0, -2], [-2, 1, 0]], "alpha_sender_power"),
    ([[0, -2, -1], [1, 0, -2], [-1, 0, 0]], "alpha_sender_power"),
    ([[0, -2, -1], [1, 0, -2], [-1, 1, 0]], "alpha_sender_power"),
    ([[0, -2, -1], [1, 0, -2], [0, 0, 0]], "gamma_blocklength"),
    ([[0, -2, -1], [1, 0, -2], [0, 1, 0]], "gamma_blocklength"),
    ([[0, -2, -1], [1, 0, -1], [-2, 0, 0]], "alpha_sender_power"),
    ([[0, -2, -1], [1, 0, -1], [-1, 0, 0]], "alpha_sender_power"),
    ([[0, -2, -1], [1, 0, -1], [0, 0, 0]], "gamma_blocklength"),
    ([[0, -2, 0], [0, 0, -2], [-2, 0, 0]], "gamma_blocklength"),
    ([[0, -2, 0], [0, 0, -2], [-2, 1, 0]], "gamma_blocklength"),
    ([[0, -2, 0], [0, 0, -2], [-1, 0, 0]], "gamma_blocklength"),
    ([[0, -2, 0], [0, 0, -2], [-1, 1, 0]], "gamma_blocklength"),
    ([[0, -2, 0], [0, 0, -1], [-1, 0, 0]], "gamma_blocklength"),
    ([[0, -2, 0], [1, 0, -2], [-2, 1, 0]], "gamma_blocklength"),
    ([[0, -2, 0], [1, 0, -2], [-1, -1, 0]], "alpha_sender_power"),
    ([[0, -2, 0], [1, 0, -2], [-1, 0, 0]], "gamma_blocklength"),
    ([[0, -2, 0], [1, 0, -2], [-1, 1, 0]], "gamma_blocklength"),
    ([[0, -2, 0], [1, 0, -1], [-1, -1, 0]], "alpha_sender_power"),
    ([[0, -2, 0], [1, 0, -1], [-1, 0, 0]], "gamma_blocklength"),
    ([[0, -2, 0], [1, 0, 0], [-1, -1, 0]], "gamma_blocklength"),
    ([[0, -2, 1], [1, 0, -2], [-2, 1, 0]], "gamma_blocklength"),
    ([[0, -1, 0], [0, 0, -1], [-1, 0, 0]], "gamma_blocklength"),
]


def relabel(table, p):
    """The table with letter i renamed p[i]'s row and column."""
    return [[table[p[i]][p[j]] for j in range(len(p))] for i in range(len(p))]


def summary(b) -> tuple:
    """What a relabelling or a rescale must keep of a bracket."""
    return (b.lower, b.upper, (b.exact.base, b.exact.root) if b.exact else None,
            b.lower_certificate["name"], b.upper_certificate["name"], len(b.warnings))


@pytest.fixture(scope="module")
def census():
    """(table, bracket) for the least table of each class, in order."""
    classes = set()
    for values in product(range(-2, 3), repeat=len(CELLS)):
        table = [[0] * Q for _ in range(Q)]
        for (i, j), v in zip(CELLS, values):
            table[i][j] = v
        classes.add(min(tuple(map(tuple, relabel(table, p))) for p in RELABELLINGS))
    return [([list(row) for row in table], xi_bracket(normalize_diagonal(table)))
            for table in sorted(classes)]


def test_counts_and_certificates(census):
    assert len(census) == 2675
    exact = Counter((b.upper_certificate["name"], b.lower_certificate["name"])
                    for _, b in census if b.exact)
    assert exact == {
        ("theta_symmetric_part", "alpha_sender_power"): 1474,
        ("theta_symmetric_part", "gamma_blocklength"): 954,
        ("alphabet_size", "gamma_blocklength"): 134,
        ("perfect_graph_closure", "alpha_sender_power"): 67,
        ("alphabet_size", "alpha_sender_power"): 16,
    }
    assert sum(exact.values()) == 2645
    assert all(not b.warnings for _, b in census)


def test_the_open_classes(census):
    opened = [(table, b) for table, b in census if not b.exact]
    assert [(table, b.lower_certificate["name"]) for table, b in opened] == OPEN
    for _, b in opened:
        assert (b.lower, b.upper, b.upper_certificate["name"]) == (2.0, 3.0, "alphabet_size")
        assert [r["n"] for r in b.per_n] == [1, 2]


def test_relabelled_and_rescaled_copies_agree(census):
    # a relabelling renames the letters; a positive rescale with column
    # offsets, undone by normalize_diagonal, keeps every best response
    rng = random.Random(2675)
    for table, b in census:
        p = rng.choice(RELABELLINGS[1:])
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        offsets = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(Q)]
        shifted = [[scale * x + offsets[j] for j, x in enumerate(row)] for row in table]
        assert summary(xi_bracket(normalize_diagonal(relabel(table, p)))) == summary(b)
        assert summary(xi_bracket(normalize_diagonal(shifted))) == summary(b)


def test_order_laws_on_every_record(census):
    records = 0
    for table, b in census:
        cover = oracle_clique_cover(symmetric_sender_graph(normalize_diagonal(table), 1))
        for record in b.per_n:
            assert record["gamma"] >= record["alpha_sender"]
            assert record["alpha_sender"] <= cover ** record["n"]
            records += 1
    assert records == 2705


@pytest.fixture(scope="module")
def census4_sample():
    """(table, bracket) for the least tables of 1500 classes of the q = 4
    census, entries in {-1, 0, 1}, drawn as random tables: 22 815 classes
    in all, too slow for tier-1 whole."""
    rng = random.Random(4)
    relabellings = list(permutations(range(4)))
    classes = set()
    while len(classes) < 1500:
        table = [[0 if i == j else rng.randint(-1, 1) for j in range(4)] for i in range(4)]
        classes.add(min(tuple(map(tuple, relabel(table, p))) for p in relabellings))
    return [([list(row) for row in table], xi_bracket(normalize_diagonal(table)))
            for table in sorted(classes)]


def test_q4_sample(census4_sample):
    # how the sampled classes close, with every exact value at root 1; the
    # open ones, each [2, 3] below alpha(G_s^Sym) = 3 of a perfect G_s^Sym;
    # and, on every class, a relabelled and a rescaled copy's answer and the
    # order laws of each record
    exact = Counter((b.upper_certificate["name"], b.lower_certificate["name"],
                     b.exact.base, b.exact.root) for _, b in census4_sample if b.exact)
    assert exact == {
        ("theta_symmetric_part", "alpha_sender_power", 2, 1): 602,
        ("theta_symmetric_part", "gamma_blocklength", 2, 1): 583,
        ("theta_symmetric_part", "gamma_blocklength", 3, 1): 152,
        ("theta_symmetric_part", "alpha_sender_power", 1, 1): 132,
        ("theta_symmetric_part", "alpha_sender_power", 3, 1): 9,
        ("perfect_graph_closure", "alpha_sender_power", 2, 1): 7,
        ("perfect_graph_closure", "alpha_sender_power", 1, 1): 3,
        ("alphabet_size", "gamma_blocklength", 4, 1): 2,
        ("perfect_graph_closure", "alpha_sender_power", 3, 1): 1,
    }
    opened = [b for _, b in census4_sample if not b.exact]
    assert len(opened) == 9
    assert all((b.lower, b.upper, b.upper_certificate["name"], b.upper_certificate["theta"],
                len(b.upper_certificate["cliques"])) == (2.0, 3.0, "theta_symmetric_part", 3.0, 3)
               and len(b.per_n) == 2 for b in opened)
    rng = random.Random(4611)
    relabellings = list(permutations(range(4)))
    for table, b in census4_sample:
        p = rng.choice(relabellings[1:])
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        offsets = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        shifted = [[scale * x + offsets[j] for j, x in enumerate(row)] for row in table]
        assert summary(xi_bracket(normalize_diagonal(relabel(table, p)))) == summary(b)
        assert summary(xi_bracket(normalize_diagonal(shifted))) == summary(b)
        cover = oracle_clique_cover(symmetric_sender_graph(normalize_diagonal(table), 1))
        for record in b.per_n:
            assert record["alpha_sender"] <= record["gamma"]
            assert record["alpha_sender"] <= cover ** record["n"]


def canonical_rows(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The least row tuple of a graph over the numberings that list its
    vertices by (degree, sorted neighbour degrees): one form per
    isomorphism class, since every isomorphism keeps that key."""
    n = len(rows)
    degree = [r.bit_count() for r in rows]
    key = [(degree[v], sorted(degree[u] for u in range(n) if rows[v] >> u & 1))
           for v in range(n)]
    groups: dict = {}
    for v in sorted(range(n), key=key.__getitem__):
        groups.setdefault(repr(key[v]), []).append(v)
    best = None
    for choice in product(*(permutations(group) for group in groups.values())):
        order = [v for group in choice for v in group]
        new_of = {v: i for i, v in enumerate(order)}
        form = tuple(sum(1 << new_of[u] for u in range(n) if rows[v] >> u & 1) for v in order)
        best = form if best is None or form < best else best
    return best


def graphs_up_to_isomorphism(n_max: int) -> dict[int, list[tuple[int, ...]]]:
    """The canonical rows of every graph on 1..n_max vertices, one per
    isomorphism class: each class on n vertices is one on n - 1 with a
    new vertex joined to some of them."""
    level, found = {()}, {}
    for n in range(1, n_max + 1):
        level = {canonical_rows((*(r | (nbrs >> v & 1) << (n - 1) for v, r in enumerate(rows)),
                                 nbrs))
                 for rows in level for nbrs in range(1 << (n - 1))}
        found[n] = sorted(level)
    return found


@pytest.fixture(scope="module")
def graph_census():
    """(n, rows, U, bracket at n_max = 2) for the graph utility U of every
    graph on 5 and 6 vertices, up to isomorphism."""
    graphs = graphs_up_to_isomorphism(6)
    assert [len(graphs[n]) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    return [(n, rows, U, xi_bracket(U, n_max=2)) for n in (5, 6) for rows in graphs[n]
            for U in [utility_from_graph(Graph(n, rows))]]


def test_graph_census(graph_census):
    # every graph utility on 5 and 6 letters closes at n_max = 2 but
    # C5 + K1, whose capacity 1 + sqrt(5) no finite blocklength reaches.
    # The perfect-graph closure takes every graph with a cover by alpha
    # cliques: on 6 vertices the 147 perfect ones with edges, and 4 of the
    # 8 imperfect ones, such as C5 with a pendant vertex, which theta
    # closed before; the edgeless graph's alphabet bound ties and wins
    certificates, opened = Counter(), []
    for n, rows, _, b in graph_census:
        if b.exact is None:
            opened.append(rows)
            continue
        certificates[n, b.upper_certificate["name"], b.lower_certificate["name"]] += 1
    assert certificates == {
        (5, "perfect_graph_closure", "alpha_sender_power"): 32,
        (5, "theta_symmetric_part", "alpha_sender_power"): 1,
        (5, "alphabet_size", "alpha_sender_power"): 1,
        (6, "perfect_graph_closure", "alpha_sender_power"): 151,
        (6, "theta_symmetric_part", "alpha_sender_power"): 3,
        (6, "alphabet_size", "alpha_sender_power"): 1,
    }
    c5_k1 = canonical_rows((*cycle_graph(5).rows, 0))
    assert opened == [c5_k1]
    # alpha((C5 + K1)^2) = 10 below, theta = 1 + sqrt(5) plus tol above
    b = xi_bracket(utility_from_graph(Graph(6, c5_k1)), n_max=2)
    assert b.lower == pytest.approx(10 ** 0.5)
    assert b.upper == pytest.approx(1 + 5 ** 0.5, abs=2e-3)


def test_graph_census_certificates(graph_census):
    # every bracket whose upper side is alpha carries its cliques: alpha
    # cliques of G_s^Sym, built from the definition, that partition the
    # letters, with the solver's theta at alpha
    covered = 0
    for n, rows, U, b in graph_census:
        cert = b.upper_certificate
        if cert["name"] != "perfect_graph_closure":
            assert "cliques" not in cert
            continue
        covered += 1
        assert oracle_clique_certificate(U, cert)
        assert b.upper == cert["alpha"] == len(cert["cliques"])
        assert abs(lovasz_theta(oracle_symmetric_graph(U), tol=1e-6) - cert["alpha"]) <= 1e-5
    assert covered == 32 + 151


def test_raising_a_utility_raises_no_lower_bound():
    # a utility raised entrywise has more weakly profitable misreports:
    # every sender graph gains edges, and every chain's sum rises, so
    # fewer subsets are feasible.  Neither alpha(G_s^n) nor Gamma(U_n) may rise
    rng = random.Random(4610)
    rose = Counter()
    for _ in range(100):
        q = rng.randint(2, 4)
        U = random_utility(rng, q)
        raised = normalize_diagonal([
            [x if i == j or rng.random() < 0.4 else x + Fraction(rng.randint(0, 6), rng.randint(1, 3))
             for j, x in enumerate(row)] for i, row in enumerate(U.u)])
        for n in (1, 2):
            low, high = sender_graph(U, n), sender_graph(raised, n)
            assert all(r & ~h == 0 for r, h in zip(low.rows, high.rows))
            alpha, alpha_raised = independence_number(low)[0], independence_number(high)[0]
            (g, cert), (g_raised, cert_raised) = gamma_n(U, n), gamma_n(raised, n)
            assert cert.optimal and cert_raised.optimal
            assert alpha_raised <= alpha and g_raised <= g
            rose["alpha"] += alpha_raised < alpha
            rose["gamma"] += g_raised < g
    # the check sees a fall where one is
    assert rose["alpha"] and rose["gamma"]
