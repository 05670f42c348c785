"""The q = 3 census: ``xi_bracket`` on every utility with off-diagonal
entries in {-2..2}, one per class under the 6 relabellings of the letters.

It pins how many classes the bracket closes and by which certificates, and
it checks, on every class, that the answer does not move under a
relabelling or a positive rescale with column offsets, and that each
blocklength's record keeps the order laws Gamma(U_n) >= alpha(G_s^n) and
alpha(G_s^n) <= cover_number(G_s^Sym)^n.  The open classes are listed, as
the targets of a stronger bound."""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from conftest import oracle_clique_cover
from ixcap.graphs import symmetric_sender_graph
from ixcap.upper_bounds import xi_bracket
from ixcap.utility import normalize_diagonal

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
    return [[table[p[i]][p[j]] for j in range(Q)] for i in range(Q)]


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
