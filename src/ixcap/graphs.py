"""Bitset graphs: sender graphs, confusability graphs, strong products,
and exact maximum-independent-set search with canonical witnesses.

Sender graphs are sign tests on the exact integer block sums of
``utility.block_sums``, built in row blocks of at most ``BLOCK_CELLS``
cells."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, CapExceededError, InputError, VerificationError
from .utility import (
    BLOCK_CELLS,
    DEFAULT_VERTEX_CAP,
    BlockSequence,
    UtilityMatrix,
    block_sums,
    sequence_label,
)

DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with one bitset row per vertex."""

    n_vertices: int
    rows: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if len(self.rows) != self.n_vertices:
            raise InputError("adjacency rows must match the vertex count")

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self):
        for u in range(self.n_vertices):
            row = self.rows[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    yield (u, v)
                row >>= 1
                v += 1

    def complement_rows(self) -> tuple[int, ...]:
        full = (1 << self.n_vertices) - 1
        return tuple((full ^ self.rows[v]) & ~(1 << v) for v in range(self.n_vertices))


def graph_from_edges(n: int, edges: Sequence[Sequence[int]],
                     labels: Sequence[str] | None = None) -> Graph:
    rows = [0] * n
    for e in edges:
        if len(e) != 2:
            raise InputError(f"edge must be a pair: {e!r}")
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge endpoint out of range: {e!r}")
        if u == v:
            raise InputError(f"self-loops are not allowed: {e!r}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows), tuple(labels) if labels else None)


def graph_from_json(obj) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InputError('graph JSON must be an object with "n" and "edges"')
    return graph_from_edges(int(obj["n"]), obj["edges"])


def load_graph(path) -> Graph:
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read graph file {path}: {exc}") from exc
    return graph_from_json(obj)


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def _check_cap(n_vertices: int, cap: int):
    if n_vertices > cap:
        raise CapExceededError(f"{n_vertices} vertices exceed the cap of {cap}")


def _sequence_labels(U: UtilityMatrix, n: int) -> tuple[str, ...]:
    q = U.q
    return tuple(
        sequence_label(U.alphabet, BlockSequence.from_index(q, n, idx).symbols)
        for idx in range(q**n)
    )


def _pack_bool_rows(adj: np.ndarray) -> tuple[int, ...]:
    rows = []
    for r in np.packbits(adj, axis=1, bitorder="little"):
        rows.append(int.from_bytes(r.tobytes(), "little"))
    return tuple(rows)


def sender_graph(U: UtilityMatrix, n: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Graph on X^n with an edge when misreporting one sequence as the other
    is weakly profitable in at least one direction.

    Edge (x, y), x != y, iff sum_k u(y_k, x_k) >= 0 or sum_k u(x_k, y_k) >= 0
    (the 1/n factor does not affect the sign).  The sums are the exact
    integers of ``block_sums``: one block reusing S.T when the whole
    q**n x q**n table fits in ``BLOCK_CELLS``, else row blocks of that size.
    """
    if n < 1:
        raise InputError("blocklength must be at least 1")
    nv = U.q**n
    _check_cap(nv, cap)
    labels = _sequence_labels(U, n)
    if nv * nv <= BLOCK_CELLS:
        _, s = block_sums(U, n)
        adj = (s >= 0) | (s.T >= 0)
        np.fill_diagonal(adj, False)
        return Graph(nv, _pack_bool_rows(adj), labels)

    # S[y, x] is the transposed utility's S[x, y], so a row block of the
    # adjacency needs the same rows of both tables
    transposed = UtilityMatrix(U.alphabet, tuple(zip(*U.u)))
    step = max(1, BLOCK_CELLS // nv)
    rows: list[int] = []
    for start in range(0, nv, step):
        block = np.arange(start, min(start + step, nv))
        _, fwd = block_sums(U, n, block)
        _, bwd = block_sums(transposed, n, block)
        adj = (fwd >= 0) | (bwd >= 0)
        adj[np.arange(block.size), block] = False
        rows.extend(_pack_bool_rows(adj))
    return Graph(nv, tuple(rows), labels)


def strong_product(g1: Graph, g2: Graph, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Strong graph product; vertex (a, b) maps to index a * |V2| + b."""
    n1, n2 = g1.n_vertices, g2.n_vertices
    nv = n1 * n2
    _check_cap(nv, cap)
    # closed neighborhoods: (a,b) ~ (a',b') iff a' in N*[a], b' in N*[b], not both equal
    closed1 = [g1.rows[v] | (1 << v) for v in range(n1)]
    closed2 = [g2.rows[v] | (1 << v) for v in range(n2)]
    block = {}
    rows = []
    for a in range(n1):
        mask1 = closed1[a]
        for b in range(n2):
            key = (mask1, closed2[b])
            row = block.get(key)
            if row is None:
                row = 0
                m1 = mask1
                shift = 0
                while m1:
                    if m1 & 1:
                        row |= closed2[b] << shift
                    m1 >>= 1
                    shift += n2
                block[key] = row
            rows.append(row & ~(1 << (a * n2 + b)))
    labels = None
    if g1.labels and g2.labels:
        labels = tuple(
            f"{g1.labels[a]},{g2.labels[b]}" for a in range(n1) for b in range(n2)
        )
    return Graph(nv, tuple(rows), labels)


def strong_power(g: Graph, n: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    if n < 1:
        raise InputError("strong power requires n >= 1")
    _check_cap(g.n_vertices**n, cap)
    out = g
    for _ in range(n - 1):
        out = strong_product(out, g, cap=cap)
    return out


def graphs_equal(g1: Graph, g2: Graph) -> bool:
    """Exact bitset equality on the shared index order; size mismatch is False."""
    return g1.n_vertices == g2.n_vertices and g1.rows == g2.rows


def is_independent(g: Graph, vertices: Sequence[int]) -> bool:
    vs = list(vertices)
    for v in vs:
        if not 0 <= v < g.n_vertices:
            raise InputError(f"vertex {v} out of range")
    mask = 0
    for v in vs:
        mask |= 1 << v
    return all(g.rows[v] & mask == 0 for v in vs)


@dataclass(frozen=True)
class IndependentSetWitness:
    """A concrete independent set certifying a lower bound on alpha."""

    vertices: tuple[int, ...]
    size: int
    labels: tuple[str, ...] | None = None


class _Found(Exception):
    """Internal signal: the early-exit target clique size was reached."""


class _CliqueSearch:
    """Exact maximum clique by branch and bound with greedy-coloring bounds.

    Run on the complement, a maximum clique is a maximum independent set.
    A single node counter is shared across runs so the budget bounds total
    work even when the search is re-entered for witness canonicalization.
    """

    def __init__(self, rows: tuple[int, ...], budget: int):
        self.rows = rows
        self.budget = budget
        self.nodes = 0
        self.best_size = 0
        self.best_mask = 0
        self.stop_at: int | None = None

    def _color_order(self, cand: int) -> list[tuple[int, int]]:
        # greedy sequential coloring; returns (vertex, color#) in color order
        order = []
        color = 0
        remaining = cand
        while remaining:
            color += 1
            avail = remaining
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                avail &= ~(self.rows[v] | (1 << v))
                remaining &= ~(1 << v)
        return order

    def _expand(self, current_mask: int, size: int, cand: int):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(
                f"independence search exceeded {self.budget} nodes",
                best=self.best_size,
            )
        order = self._color_order(cand)
        for v, color in reversed(order):
            if size + color <= self.best_size:
                return
            new_cand = cand & self.rows[v]
            new_mask = current_mask | (1 << v)
            if size + 1 > self.best_size:
                self.best_size = size + 1
                self.best_mask = new_mask
                if self.stop_at is not None and self.best_size >= self.stop_at:
                    raise _Found
            if new_cand:
                self._expand(new_mask, size + 1, new_cand)
            cand &= ~(1 << v)

    def maximum(self, cand: int) -> tuple[int, int]:
        self.best_size, self.best_mask, self.stop_at = 0, 0, None
        if cand:
            self._expand(0, 0, cand)
        return self.best_size, self.best_mask

    def at_least(self, cand: int, target: int) -> bool:
        """True iff the graph restricted to cand has a clique of size >= target."""
        if target <= 0:
            return True
        self.best_size, self.best_mask = target - 1, 0
        self.stop_at = target
        try:
            if cand:
                self._expand(0, 0, cand)
            return False
        except _Found:
            return True
        finally:
            self.stop_at = None


def _ensure_recursion_headroom(n_vertices: int):
    # search depth is bounded by the independence number, i.e. by n_vertices
    import sys

    needed = n_vertices + 200
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)


def independence_number(g: Graph, budget: int = DEFAULT_NODE_BUDGET
                        ) -> tuple[int, IndependentSetWitness]:
    """Exact alpha(G) with the lexicographically least maximum independent set.

    Raises BudgetExceededError (carrying the best bound found) if the branch
    and bound runs out of nodes.
    """
    n = g.n_vertices
    if n == 0:
        return 0, IndependentSetWitness((), 0)
    _ensure_recursion_headroom(n)
    comp = g.complement_rows()
    search = _CliqueSearch(comp, budget)
    full = (1 << n) - 1
    alpha, _ = search.maximum(full)

    # canonical witness: greedily keep the smallest vertex that still allows
    # completing a maximum independent set among the remaining candidates
    chosen: list[int] = []
    cand = full
    needed = alpha
    for v in range(n):
        if needed == 0:
            break
        if not (cand >> v) & 1:
            continue
        rest = cand & comp[v] & ~((1 << (v + 1)) - 1)
        if search.at_least(rest, needed - 1):
            chosen.append(v)
            cand = rest
            needed -= 1
        else:
            cand &= ~(1 << v)
    if len(chosen) != alpha:
        raise VerificationError(
            f"canonical witness has {len(chosen)} vertices, expected {alpha}")
    labels = tuple(g.labels[v] for v in chosen) if g.labels else None
    return alpha, IndependentSetWitness(tuple(chosen), alpha, labels)


def confusability_graph(channel, n: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Inputs adjacent when some channel output has positive probability under
    both.  For n > 1 the memoryless product makes this the n-fold strong power
    of the base graph."""
    if n < 1:
        raise InputError("blocklength must be at least 1")
    q = channel.alphabet.q
    _check_cap(q**n, cap)
    rows = [0] * q
    for y1 in range(q):
        for y2 in range(y1 + 1, q):
            if channel.support[y1] & channel.support[y2]:
                rows[y1] |= 1 << y2
                rows[y2] |= 1 << y1
    base = Graph(q, tuple(rows), tuple(channel.alphabet.symbols))
    if n == 1:
        return base
    return strong_power(base, n, cap=cap)
