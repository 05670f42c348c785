"""Independent checks on ixcap results, written from the definitions.

Nothing here imports ixcap: utilities are plain lists of Fractions (row =
recovered symbol, column = observed symbol, zero diagonal), block sequences
are tuples of symbol indices, and graphs are lists of bitset rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def normalize(raw) -> list[list[Fraction]]:
    """Column shift u(i, j) - u(j, j), which zeroes the diagonal."""
    q = len(raw)
    return [[Fraction(raw[i][j]) - Fraction(raw[j][j]) for j in range(q)] for i in range(q)]


def symmetric_part(u):
    q = len(u)
    return [[(u[i][j] + u[j][i]) / 2 for j in range(q)] for i in range(q)]


def incremented(u):
    """Symmetric part plus the absolute antisymmetric part, entrywise."""
    q = len(u)
    return [[(u[i][j] + u[j][i]) / 2 + abs(u[i][j] - u[j][i]) / 2 for j in range(q)]
            for i in range(q)]


def capped_max(u):
    """Each off-diagonal sign class replaced by its maximum."""
    q = len(u)
    off = [u[i][j] for i in range(q) for j in range(q) if i != j]
    nonneg = [x for x in off if x >= 0]
    neg = [x for x in off if x < 0]
    top_nonneg = max(nonneg) if nonneg else None
    top_neg = max(neg) if neg else None
    return [[u[i][j] if i == j else (top_nonneg if u[i][j] >= 0 else top_neg)
             for j in range(q)] for i in range(q)]


def sequences(q: int, n: int) -> list[tuple[int, ...]]:
    """X^n in canonical index order (most significant letter first)."""
    return list(product(range(q), repeat=n))


def sender_adjacent(u, x, y) -> bool:
    """Misreporting x as y or y as x is weakly profitable."""
    return (sum(u[b][a] for a, b in zip(x, y)) >= 0
            or sum(u[a][b] for a, b in zip(x, y)) >= 0)


def independent(rows: list[int], vertices) -> bool:
    """Bitset independence test: no vertex of the set sees another."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return all(rows[v] & mask == 0 for v in vertices)


def sender_rows_on(u, seqs, vertices) -> list[int]:
    """Bitset rows of the sender graph restricted to the given vertices
    (rows of other vertices are left empty)."""
    rows = [0] * len(seqs)
    vs = sorted(set(vertices))
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            if sender_adjacent(u, seqs[a], seqs[b]):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return rows


def sender_independent(u, n: int, vertices) -> bool:
    seqs = sequences(len(u), n)
    return independent(sender_rows_on(u, seqs, vertices), vertices)


def sender_rows(u, n: int) -> list[int]:
    seqs = sequences(len(u), n)
    return sender_rows_on(u, seqs, range(len(seqs)))


def max_independent_size(rows: list[int]) -> int:
    """Exact independence number by plain branching on the lowest vertex."""

    def best(cand: int) -> int:
        if not cand:
            return 0
        v = (cand & -cand).bit_length() - 1
        rest = cand & ~(1 << v)
        take = 1 + best(rest & ~rows[v])
        if rows[v] & rest == 0:
            return take
        return max(take, best(rest))

    return best((1 << len(rows)) - 1)


def output_supports(supports: list[set[int]], n: int) -> list[frozenset[int]]:
    """Output-sequence indices reachable from each input sequence of a
    memoryless channel, given the per-letter supports."""
    q = len(supports)
    out = []
    for y in sequences(q, n):
        reach = set()
        for z in product(*(sorted(supports[s]) for s in y)):
            idx = 0
            for s in z:
                idx = idx * q + s
            reach.add(idx)
        out.append(frozenset(reach))
    return out


def label_to_index(label: str, symbols: list[str]) -> int:
    """Index of a block-sequence label rendered from single-character symbols."""
    q = len(symbols)
    idx = 0
    for ch in label:
        idx = idx * q + symbols.index(ch)
    return idx
