"""Bitset graphs: sender graphs, confusability graphs, strong products,
and exact maximum-independent-set search with canonical witnesses.

A graph is its vertex count and one bitset row per vertex: a graph on X^n
numbers its vertices by the sequences' canonical indices, and a witness is
a tuple of vertex numbers.  Sequences are named only where a report is
built, by ``utility.sequence_labels``.  A block graph that the library
builds on X^n, n >= 2, also records its letter table (``Graph.letters``),
which gives the search its bounds and its symmetry; the table is no part
of the graph's identity.

Every block graph is a sign test on exact integer letter sums, built by
one kernel, ``_sign_block``: G_s^n on the table a = scale * u, G_s^Sym,n
on a + a^T, a strong power g^n on g's closed-neighbourhood table, and
G_c^n on the channel's 0/-1 table.  At n = 1 the sign graph is the
table's own sign pattern, read in Python; at n >= 2 the sign graphs and
the search's relabelled copy are dense V x V tables, built in the row
blocks of ``utility._row_blocks``.  Each block graph is one narrow dense
pass: its letter sums come in ``utility._sum_table``'s narrowest exact
integer type, and both directions are tested on rows read in memory
order.  ``block_independence_number`` hands the packed uint8 block that
the rows are read from to its search's copy by argument, so no graph
holds it.  Each blocklength construction refuses more than
``utility.DEFAULT_VERTEX_CAP`` vertices, by ``utility._check_cap``.

A block graph of at least ``ORDERED_MIN_VERTICES`` vertices is bounded by
Shannon's sandwich, alpha(I)^n <= alpha(G) <= cover_number(H)^n, from its
two q-vertex bases (``_letter_bases``, ``_sandwich``).  When the two sides
meet, the sandwich is closed: alpha and one maximum set, I^n, are known,
and no maximum search runs.  If I also has H's rows, as for every
symmetric table and every strong power, the letter rule of
``_letter_bases`` gives the witness too: L^n, L the lexicographically
least maximum set of I, with no walk; ``block_independence_number``
answers so from the table alone, before G is built.  Otherwise the
witness pass walks G's own rows with the product cliques of H as its
partition, building the degree-ordered copy only if some vertex still
needs a search (``_ClosedSearch``).  Every coordinate permutation
maps a block graph onto itself, so the type classes of X^n (the words
with the same letters, ``_type_classes``) are its orbits: an open
sandwich's search starts from the largest union of whole classes that a
small search over the classes finds (``_best_union``), when it beats I^n,
and prunes its root by the classes.  Every other graph is searched on its
copy (``_SearchCopy``, ``_CliqueSearch``).  Every search reads its graph's
own rows, relabelled or not, and no complement is built.  An open search
colours its whole graph once: the maximum search always starts from every
vertex, and the witness pass reads its recorded root colouring as its
clique partition."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BudgetExceededError, InputError, VerificationError
from .utility import (UtilityMatrix, _check_cap, _expand_rows, _product_words, _read_json,
                      _row_blocks, _sum_table, parse_integer)

DEFAULT_NODE_BUDGET = 10**8
#: from this many vertices on, a graph's searches run on one copy
#: relabelled by degree (see ``_SearchCopy``),
#: the smallest size at which relabelling was measured to win.  Under the
#: bottom-up greedy of the time, the degree order lost on random sender
#: graphs at 16, 25, 36 and 49 vertices, won or lost by alphabet at 64
#: (won at q = 4, n = 3; lost at q = 8, n = 2), and won at 81 and 125;
#: sizes 50-63 were unmeasured, and the top-down greedy was not
#: remeasured.  A lettered graph of this size is also searched between the
#: bounds of its letter table (``_sandwich``), which cost more than they
#: save on xi_bracket's n = 2 graphs of at most 49 vertices
ORDERED_MIN_VERTICES = 64


class _Meter:
    """The node budget of one search, which may chain several searches.

    ``charge(k, what)`` spends k nodes and is the only place a node budget
    runs out: past the budget it raises BudgetExceededError, carrying
    ``best``, the size of the best answer the search knows, or None while it
    knows none.  Each search that takes a budget makes a fresh meter from it
    (``gamma_n`` has one for its alpha search and one for its subset search).
    ``settled`` counts how the witness passes settled the vertices outside
    their maximum set: by "exchange", "partition" or "search".  Only the
    passes over the searched graphs' own vertices count; the walk of a
    letter base (``_letter_bases``) is charged its nodes and counts none.
    """

    def __init__(self, budget: int):
        if budget < 1:
            raise InputError(f"node budget must be at least 1, got {budget}")
        self.budget = budget
        self.spent = 0
        self.best: int | None = None
        self.settled = {"exchange": 0, "partition": 0, "search": 0}

    def charge(self, k: int, what: str):
        self.spent += k
        if self.spent > self.budget:
            raise BudgetExceededError(f"{what} exceeded {self.budget} nodes", best=self.best)


def _bits(mask: int):
    """The vertices of the set mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with one bitset row per vertex.

    ``letters`` is (t, n) on a graph on X^n, n >= 2, that ``_sign_graph(t,
    n)`` built for the q x q integer table t, which has a zero diagonal:
    every sender graph, strong power and G_c^n at n >= 2, where the search
    reads it.  It is None on any other graph: a block graph at n = 1, and
    the graphs of ``graph_from_edges`` and ``strong_product``.  Equality,
    hashing and repr ignore it, and no module but this one reads it.  The
    search reads t only through q, n and the q-vertex graphs I =
    ``_sign_graph(t, 1)`` and H = ``_sign_graph(t + t^T, 1)``, and these
    are the graph's own rows: t's diagonal is zero, so the words (a, 0,
    ..., 0) and (b, 0, ..., 0) are adjacent iff ab is an edge of I, and
    (a, b, 0, ..., 0) and (b, a, 0, ..., 0) iff ab is an edge of H.  So
    two lettered graphs on q letters with the same rows are searched
    alike.  A graph holds its rows and no array: the sign kernel's packed
    block goes to a search by argument."""

    n_vertices: int
    rows: tuple[int, ...]
    letters: tuple[tuple[tuple[int, ...], ...], int] | None = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.rows) != self.n_vertices:
            raise InputError("adjacency rows must match the vertex count")

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def edges(self):
        for u, row in enumerate(self.rows):
            for v in _bits(row >> (u + 1) << (u + 1)):
                yield (u, v)


def graph_from_edges(n: int, edges: Sequence[Sequence[int]]) -> Graph:
    """The graph on vertices 0..n-1 with the given edges.  InputError
    unless n and every endpoint are integers, and each edge is a list or
    tuple of two distinct vertices; CapExceededError, before any row is
    allocated, when n exceeds ``DEFAULT_VERTEX_CAP``."""
    n = parse_integer(n, "vertex count")
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    _check_cap(n)
    if not isinstance(edges, (list, tuple)):
        raise InputError(f"edges must be a list of pairs, got {edges!r}")
    rows = [0] * n
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise InputError(f"edge must be a pair: {e!r}")
        u, v = (parse_integer(x, "edge endpoint") for x in e)
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge endpoint out of range: {e!r}")
        if u == v:
            raise InputError(f"self-loops are not allowed: {e!r}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def graph_from_json(obj) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InputError('graph JSON must be an object with "n" and "edges"')
    return graph_from_edges(obj["n"], obj["edges"])


def load_graph(path) -> Graph:
    """The graph in a JSON file; InputError for one with no vertex, which
    no command can report on."""
    g = graph_from_json(_read_json(path, "graph"))
    if not g.n_vertices:
        raise InputError("graph must have at least one vertex")
    return g


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _pack_bool_rows(adj: np.ndarray) -> tuple[int, ...]:
    """Bitset rows of a boolean matrix, bit j of row i set iff adj[i, j]."""
    return _packed_rows(np.packbits(adj, axis=1, bitorder="little"))


def _packed_rows(packed: np.ndarray) -> tuple[int, ...]:
    """Bitset rows of a C-contiguous packed uint8 block, little-endian within
    and across bytes; the zero bytes numpy drops from the end of a row are
    its high bits."""
    width = packed.shape[1]
    if not width:
        return (0,) * packed.shape[0]
    items = packed.view(f"S{width}").ravel().tolist()
    return tuple(map(int.from_bytes, items, repeat("little")))


def _pack_rows(rows: tuple[int, ...], width: int) -> np.ndarray:
    """The packed uint8 block of bitset rows, width bytes a row: the block
    that ``_packed_rows`` reads back."""
    raw = b"".join([r.to_bytes(width, "little") for r in rows])
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), width)


def _sign_graph(ints, n: int) -> Graph:
    """The graph of ``_sign_block(ints, n)``, without its block."""
    return _sign_block(ints, n)[0]


def _sign_block(ints, n: int) -> tuple[Graph, np.ndarray | None]:
    """(g, its packed block): g the graph on X^n with x ~ y, x != y, iff
    A[x, y] >= 0 or A[y, x] >= 0, A the n-fold letterwise sum of the q x q
    integer table ints, lettered by (ints, n) when n >= 2.  At n = 1, A is
    the table itself, whose sign pattern ``_letter_sign_rows`` reads in
    Python with no block (None), as it reads the empty table's no rows at
    any n; longer blocks go through the numpy kernel ``_block_sign_rows``,
    whose block a search copy (``_SearchCopy``) can start from."""
    nv = _check_cap(len(ints), n)
    if n == 1 or not nv:
        return Graph(nv, _letter_sign_rows(ints)), None
    packed = _block_sign_rows(ints, n, nv)
    return Graph(nv, _packed_rows(packed), (tuple(map(tuple, ints)), n)), packed


def _letter_sign_rows(ints) -> tuple[int, ...]:
    """The rows of the sign graph of the q x q table ints itself: bit y of
    row x set iff x != y and ints[x][y] >= 0 or ints[y][x] >= 0, read entry
    by entry with no array (about 3 us at q = 4, where the block kernel
    took 16 us)."""
    rows = []
    for x, (row, col) in enumerate(zip(ints, zip(*ints))):
        bits = 0
        for y, (a, b) in enumerate(zip(row, col)):
            if a >= 0 or b >= 0:
                bits |= 1 << y
        rows.append(bits & ~(1 << x))
    return tuple(rows)


def _block_sign_rows(ints, n: int, nv: int) -> np.ndarray:
    """The rows of ``_sign_graph(ints, n)`` on its nv = q**n vertices as one
    packed uint8 block (``_packed_rows`` reads it), built in the row blocks
    of ``_row_blocks``, each compared with 0 as soon as it is summed, in
    ``_sum_table``'s narrowest exact type.  A symmetric table (always for
    G_s^Sym,n), decided on its q x q entries, gives A = A^T, so its blocks
    test A[x, y] alone; otherwise each block also tests A[y, x] >= 0 on the
    same rows of the transposed table's sums, which, unlike a transposed
    comparison, reads memory in order.  One block that covers all of A is
    summed whole by ``_expand_rows`` with no rows."""
    table = _sum_table(ints, n)
    symmetric = list(map(tuple, ints)) == list(zip(*ints))
    blocks = _row_blocks(nv, nv)
    packed = np.empty((nv, (nv + 7) // 8), dtype=np.uint8) if len(blocks) > 1 else None
    for block in blocks:
        words = None if packed is None else np.arange(block.start, block.stop)
        adj = _expand_rows(table, n, words) >= 0
        if not symmetric:
            adj |= _expand_rows(table.T, n, words) >= 0
        adj.flat[block.start::nv + 1] = False  # cells (x, x) of the block's rows
        bits = np.packbits(adj, axis=1, bitorder="little")
        del adj  # before the next block sums its own
        if packed is None:
            return bits
        packed[block] = bits
    return packed


def sender_graph(U: UtilityMatrix, n: int) -> Graph:
    """Graph on X^n with an edge when misreporting one sequence as the other
    is weakly profitable in at least one direction.

    Edge (x, y), x != y, iff sum_k u(y_k, x_k) >= 0 or sum_k u(x_k, y_k) >= 0
    (the 1/n factor does not affect the sign), decided on the exact integer
    table scale * u."""
    return _sign_graph(U.scaled_integer_entries[1], n)


def symmetric_sender_graph(U: UtilityMatrix, n: int) -> Graph:
    """G_s^Sym,n, the sender graph of the symmetric part (u + u^T) / 2: edge
    (x, y), x != y, iff sum_k u(x_k, y_k) + u(y_k, x_k) >= 0, decided on the
    exact integer table a + a^T of a = scale * u."""
    return _sign_graph(_plus_transpose(U.scaled_integer_entries[1]), n)


def _plus_transpose(t) -> list[list[int]]:
    """The q x q table t + t^T."""
    q = len(t)
    return [[t[i][j] + t[j][i] for j in range(q)] for i in range(q)]


def strong_product(g1: Graph, g2: Graph) -> Graph:
    """Strong graph product; vertex (a, b) maps to index a * |V2| + b.

    (a, b) ~ (a', b') iff a' in N[a] and b' in N[b], not both equal (N the
    closed neighbourhood).  Row (a, b) is N[b] placed in the n2-bit field of
    each a' in N[a], by one multiply with spread[a] = sum 2**(a' * n2) that
    cannot carry, less its own bit.  spread[a] is N[a] in binary with each
    digit widened to n2 digits, which costs the same at any density.  The
    library builds strong powers with the sign kernel (``strong_power``);
    this is the general product of two graphs."""
    n1, n2 = g1.n_vertices, g2.n_vertices
    nv = n1 * n2
    _check_cap(nv)
    zero, one = "0" * n2, "0" * (n2 - 1) + "1"
    spread = [int(format(row | 1 << a, "b").replace("0", zero).replace("1", one), 2)
              for a, row in enumerate(g1.rows)]
    closed2 = [row | 1 << b for b, row in enumerate(g2.rows)]
    rows = tuple((spread[a] * closed2[b]) ^ (1 << (a * n2 + b))
                 for a in range(n1) for b in range(n2))
    return Graph(nv, rows)


def strong_power(g: Graph, n: int) -> Graph:
    """The strong n-th power of g: at n >= 2 the sign graph of the n-fold
    letter sum of g's closed-neighbourhood table t (t[a, b] = 0 for b in
    N[a], -1 elsewhere), lettered by it: two words are adjacent iff every
    letter pair lies in N, iff their letter sum is 0.  Its numbering is
    that of the fold g x g x ... x g of ``strong_product``.  At n = 1 it is
    g's rows, with no table.  ``utility._check_cap`` refuses n < 1 and q**n
    above the vertex cap before the table is built.  ``ixcap alpha`` hands
    the same table to ``block_independence_number`` instead."""
    q = g.n_vertices
    _check_cap(q, n)
    if n == 1:
        return Graph(q, g.rows)
    return _sign_graph(_closed_table(g), n)


def _closed_table(g: Graph) -> tuple[tuple[int, ...], ...]:
    """g's closed-neighbourhood table t: t[a, b] = 0 for b in N[a], -1
    elsewhere.  Its sign graph is g, and that of its n-fold letter sum is
    the strong power g^n."""
    q = g.n_vertices
    return tuple(tuple(((row | 1 << a) >> b & 1) - 1 for b in range(q))
                 for a, row in enumerate(g.rows))


class _Found(Exception):
    """Internal signal: a search reached its target size or its node cap."""


class _CliqueSearch:
    """Exact maximum independent set by branch and bound with colouring bounds.

    ``rows`` are the graph's rows in the search's numbering: a branch on v
    drops v's closed neighbourhood, and each colour class is a clique.
    Every expansion charges one node to ``meter``, which the other searches
    of the same answer share: the maximum search, the witness pass, and the
    searches that derived their bounds.  With ``reports``, each larger set
    that ``maximum`` finds becomes the meter's ``best``.  After a run
    that finds its set, ``best_mask`` holds that set, which the witness pass
    reuses.  ``maximum`` can prune the root by a symmetry group's orbits; no
    other level, and no ``at_least``, does.

    The colouring (Tomita et al. 2003/2010, San Segundo et al. 2011) takes
    each candidate's highest vertex into the open colour class, found by
    one ``bit_length`` b (Python has no cheap lowest bit), and then keeps
    only what ``fences[b]``, the row of vertex b - 1, allows in it.
    ``fences`` and ``bits`` are indexed by bit length, so vertex v sits at
    v + 1 and entry 0 is never read.  A node at set size ``size`` lists
    only the classes from kmin = best_size - size + 1 up: the lower ones
    are still coloured, since the greedy needs them, but the branch loop,
    which walks the list from its highest class down, would stop at the
    first of them, and best_size only grows while it walks.  So each node
    branches on the same vertices in the same order as a full listing
    would, and the search tree, its node count and its answer are
    unchanged.

    ``maximum`` searches every vertex, so its root colours the whole graph,
    and ``_color_order`` records that colouring's classes as masks
    (``partition``); ``clique_partition`` returns them, so the witness pass
    colours the graph no second time.
    """

    def __init__(self, rows: tuple[int, ...], meter: _Meter, reports: bool = False):
        self.rows = rows
        self.bits = [0, *(1 << v for v in range(len(rows)))]
        self.fences = [0, *rows]
        self.meter = meter
        self.reports = reports
        self.best_size = 0
        self.best_mask = 0
        self.stop_at: int | None = None
        self.partition: list[int] = []

    def _color_order(self, cand: int, kmin: int = 1, classes: list[int] | None = None
                     ) -> list[tuple[int, int]]:
        # greedy sequential coloring from the highest vertex down; returns
        # (vertex, color#) in color order for the colors from kmin up, and
        # appends every class's mask to classes, if given
        fences, bits = self.fences, self.bits
        order = []
        color = 0
        remaining = cand
        while remaining:
            color += 1
            avail = start = remaining
            if color < kmin:
                while avail:
                    b = avail.bit_length()
                    remaining ^= bits[b]
                    avail &= fences[b]
            else:
                while avail:
                    b = avail.bit_length()
                    order.append((b - 1, color))
                    remaining ^= bits[b]
                    avail &= fences[b]
            if classes is not None:
                classes.append(start ^ remaining)
        return order

    def _expand(self, current_mask: int, size: int, cand: int, orbit=None, classes=None):
        self.meter.charge(1, "independence search")
        order = self._color_order(cand, self.best_size - size + 1, classes)
        for v, color in reversed(order):
            if size + color <= self.best_size:
                return
            if orbit and not (cand >> v) & 1:
                continue  # its orbit was searched
            new_cand = cand & ~(self.rows[v] | 1 << v)
            new_mask = current_mask | (1 << v)
            if size + 1 > self.best_size:
                self.best_size = size + 1
                self.best_mask = new_mask
                if self.reports:
                    self.meter.best = self.best_size
                if self.stop_at is not None and self.best_size >= self.stop_at:
                    raise _Found
            if new_cand:
                self._expand(new_mask, size + 1, new_cand)
            cand &= ~(orbit(v) if orbit else 1 << v)

    def maximum(self, seed: int = 0, ceiling: int | None = None, orbit=None
                ) -> tuple[int, int]:
        """A maximum independent set of the search's graph, searched from
        the incumbent set ``seed`` and stopped as soon as one reaches
        ``ceiling``.

        ``orbit(v)``, if given, is the mask of v's orbit under a group of
        automorphisms of the graph.  The root then drops the whole orbit of
        each vertex it has branched on: a set through another member is the
        image of one through v, which that branch searched, and what stays
        open is still a union of orbits.  Deeper levels branch on single
        vertices.  The root records its colouring's classes for
        ``clique_partition``."""
        self.best_size, self.best_mask = seed.bit_count(), seed
        self.stop_at = ceiling
        self.partition = []
        try:
            self._expand(0, 0, (1 << len(self.rows)) - 1, orbit, self.partition)
        except _Found:
            pass
        finally:
            self.stop_at = None
        return self.best_size, self.best_mask

    def clique_partition(self) -> list[int]:
        """The classes of the last ``maximum``'s root colouring, a greedy
        colouring (``_color_order``) of all of the search's vertices, as
        masks: cliques of the search's graph."""
        return self.partition

    def at_least(self, cand: int, target: int) -> bool:
        """True iff cand holds an independent set of size >= target, for a
        target of at least 1: the witness pass asks for needed - 1 only
        where a vertex conflicts with two or more open members of its
        maximum set, so needed >= 2."""
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


def _relabel(mask: int, new_of: Sequence[int]) -> int:
    """The set mask with each vertex v renamed new_of[v]."""
    return sum(1 << new_of[v] for v in _bits(mask))


class _SearchCopy:
    """g's rows relabelled, on which every search of g runs.

    The copy numbers g's vertices from the top by ascending degree, ties by
    index: g's smallest-degree vertex is the copy's highest, where the
    top-down colouring of ``_CliqueSearch`` starts, so the colouring bound
    starts from the vertices of fewest conflicts (the initial order of
    Tomita et al. 2010).  Graphs below ``ORDERED_MIN_VERTICES`` keep g's
    own numbering, so their colouring starts from g's last vertex; a copy
    reversed to start from its first cost more than it saved.
    ``new_of[v]`` is vertex v's number in the copy and ``order[i]`` the
    vertex numbered i.  The copy starts from g's packed uint8 block: the one
    the sign kernel made (``_sign_block``), when the caller hands it over
    as ``packed``, or else g's rows packed here.  Each row block of
    ``_row_blocks`` takes the packed rows in the copy's order, unpacks
    them, takes their columns in that order and packs them again, so no
    V x V matrix is ever held.
    """

    def __init__(self, g: Graph, packed: np.ndarray | None = None):
        n = g.n_vertices
        self.ordered = n >= ORDERED_MIN_VERTICES
        if not self.ordered:
            self.rows = g.rows
            self.order = self.new_of = range(n)
            return
        order = np.argsort([r.bit_count() for r in g.rows], kind="stable")[::-1]
        if packed is None:
            packed = _pack_rows(g.rows, (n + 7) // 8)
        rows: list[int] = []
        for block in _row_blocks(n, n):
            adj = np.unpackbits(packed.take(order[block], 0), axis=1, count=n,
                                bitorder="little").view(bool).take(order, 1)
            rows.extend(_pack_bool_rows(adj))
            del adj  # before the next block is unpacked
        self.rows = tuple(rows)
        self.order = order.tolist()
        self.new_of = [0] * n
        for i, v in enumerate(self.order):
            self.new_of[v] = i

    def inward(self, mask: int) -> int:
        """A set of g's vertices in the copy's numbering."""
        return _relabel(mask, self.new_of) if self.ordered else mask

    def outward(self, mask: int) -> int:
        """A set of the copy's vertices in g's numbering."""
        return _relabel(mask, self.order) if self.ordered else mask


class _ClosedSearch:
    """The witness pass's partition and searches on a closed sandwich, in
    g's own numbering, in which the walk reads g's rows.  The partition is
    the product cliques of cliques, a minimum clique partition of H (see
    ``_sandwich``), made when the pass first needs it.  The ``at_least``
    searches run on g's degree-ordered copy, built at the first search from
    ``packed``, g's block if the caller holds it.  A pass that needs
    neither builds neither."""

    def __init__(self, g: Graph, meter: _Meter, cliques: list[int],
                 packed: np.ndarray | None = None):
        self.g = g
        self.meter = meter
        self.cliques = cliques
        self.packed = packed
        self.best_mask = 0
        self.copy: _SearchCopy | None = None
        self.search: _CliqueSearch | None = None

    def clique_partition(self) -> list[int]:
        t, n = self.g.letters
        return _product_parts(self.cliques, len(t), n)

    def at_least(self, cand: int, target: int) -> bool:
        if self.search is None:
            self.copy = _SearchCopy(self.g, self.packed)
            self.search = _CliqueSearch(self.copy.rows, self.meter)
            self.packed = None
        found = self.search.at_least(self.copy.inward(cand), target)
        if found:
            self.best_mask = self.copy.outward(self.search.best_mask)
        return found


def _lex_least(g: Graph, alpha: int, maxset: int, rows, new_of,
               search: _CliqueSearch | _ClosedSearch) -> tuple[int, ...]:
    """The lexicographically least maximum independent set, from alpha and
    one maximum set, in g's own index order.

    The walk visits g's vertices in g's order and keeps its sets in the
    search's numbering, in which rows[i] is the row of vertex i and
    new_of[v] is vertex v's number: the copy's (``_SearchCopy``) under a
    ``_CliqueSearch``, g's own under a ``_ClosedSearch``.  rest is what
    stays open beside vertex i: cand outside i's closed neighbourhood.  The
    chosen vertices and the open part maxset & cand always form a maximum
    independent set W, and cand holds no vertex below v, so rest holds none
    up to v.  A vertex i in W is kept.  Any other is settled by the first
    rule that applies, each counted in the meter's ``settled``:

    - it conflicts in g with exactly one open member w of W: W - w + i is
      maximum, so i is kept ("exchange");
    - it conflicts with none: W + i would beat alpha, a VerificationError;
    - rest meets fewer than needed - 1 classes of a clique partition of g:
      no set in rest is large enough, so i is rejected ("partition").  The
      partition is the search's ``clique_partition``, read at the first
      vertex that needs it: the greedy colouring that the maximum search's
      root made of every vertex, recorded there, so g is coloured no second
      time, or a closed sandwich's product cliques.  It charges no node.
      The classes that miss cand, which miss every later rest, are dropped
      before the first test after each kept vertex;
    - otherwise ``search.at_least`` decides, and on success its set
      ``search.best_mask`` becomes W's open part ("search").  Each search
      only asks whether a set exists, so it runs on the search copy,
      whatever the copy's order."""
    meter = search.meter
    chosen: list[int] = []
    cand = (1 << g.n_vertices) - 1
    needed = alpha
    classes: list[int] | None = None
    cut = None  # needed when classes were last cut to those meeting cand
    for v in range(g.n_vertices):
        if needed == 0:
            break
        i = new_of[v]
        if not (cand >> i) & 1:
            continue
        rest = cand & ~(rows[i] | 1 << i)
        if not (maxset >> i) & 1:
            kept = maxset & rest
            conflicts = ((maxset & cand) ^ kept).bit_count()
            if conflicts == 0:
                raise VerificationError(
                    f"vertex {v} extends a maximum independent set: "
                    f"alpha is above {alpha}")
            if conflicts == 1:
                meter.settled["exchange"] += 1
                maxset = kept
            else:
                if classes is None:
                    classes = search.clique_partition()
                if cut != needed:  # a vertex was kept since the last cut
                    classes = [c for c in classes if c & cand]
                    cut = needed
                if _meets_fewer(classes, rest, needed - 1):
                    meter.settled["partition"] += 1
                    cand ^= 1 << i
                    continue
                meter.settled["search"] += 1
                if not search.at_least(rest, needed - 1):
                    cand ^= 1 << i
                    continue
                maxset = search.best_mask
        chosen.append(v)
        cand = rest
        needed -= 1
    if len(chosen) != alpha:
        raise VerificationError(
            f"canonical witness has {len(chosen)} vertices, expected {alpha}")
    return tuple(chosen)


def _meets_fewer(classes: list[int], rest: int, k: int) -> bool:
    """Whether rest meets fewer than k of the classes, read only until the
    misses show it."""
    misses = len(classes) - k  # the most classes that rest may miss
    for c in classes:
        if not c & rest:
            if not misses:
                return True
            misses -= 1
    return False


def _clique_cover(g: Graph, k: int, meter: _Meter) -> list[int] | None:
    """A partition of g's vertices into at most k cliques, as masks, or None
    when g has none.

    Backtracking: vertices in index order join an open clique whose members
    are all neighbours, or open the next one while fewer than k are open;
    each placement is one node, charged to meter."""
    n = g.n_vertices
    _ensure_recursion_headroom(n)  # place recurses once per vertex
    cliques: list[int] = []

    def place(v: int) -> bool:
        if v == n:
            return True
        bit = 1 << v
        for c in range(len(cliques) + (len(cliques) < k)):
            if c == len(cliques):
                cliques.append(0)
            elif cliques[c] & ~g.rows[v]:
                continue
            meter.charge(1, "clique cover search")
            cliques[c] |= bit
            if place(v + 1):
                return True
            cliques[c] &= ~bit
            if not cliques[c]:
                cliques.pop()
        return False

    return cliques if place(0) else None


class _Bases(NamedTuple):
    """What the letter table (t, n) of a block graph G gives its alpha
    search from its two q-vertex bases, by ``_letter_bases``."""

    #: L^n in ascending order, L the lexicographically least maximum
    #: independent set of I
    words: tuple[int, ...]
    #: a minimum partition of H into cliques, as masks of letters: the
    #: library's one minimum-cover search
    cliques: list[int]
    #: whether words is G's lexicographically least maximum independent set
    lex_least: bool


def _letter_bases(t, n: int, meter: _Meter) -> _Bases:
    """The bases of G, the sign graph of the n-fold letter sum of the q x q
    table t: I = ``_sign_graph(t, 1)``, whose lexicographically least
    maximum independent set L gives L^n, and H = ``_sign_graph(t + t^T,
    1)``, partitioned into the fewest cliques, both searched on q vertices
    and charged to meter.  The minimum cover is the first k from alpha(H)
    up for which ``_clique_cover`` finds a partition into k cliques, else
    H's q singletons; alpha(H) is |L| when I has H's rows, and otherwise
    comes from a search of H's copy with no witness pass.  This loop is
    the only minimum-cover search: ``upper_bounds.in_perfect_whitelist``
    asks only whether alpha cliques suffice, under a node cap.  No graph
    on X^n is built.  I's witness pass settles none of G's vertices, so it
    leaves the meter's ``settled`` as it was.

    The rule: when I has H's rows and alpha(I) = |L| is H's clique cover
    number c, alpha(G) = c^n and L^n is G's lexicographically least maximum
    independent set, with no search and no walk of G (``lex_least``).  L^n
    is listed in ascending order, by ``utility._product_words``.

    Why it is exact.  alpha(G) = c^n is the closed sandwich (``_sandwich``):
    L^n is independent in G, and the c^n product cliques of H's partition
    are cliques of G that cover X^n.  The witness takes two steps:

    - Fibre lemma.  A maximum set S of G meets each product clique once.
      Fix the cliques of every coordinate but k: that fibre is c product
      cliques, so S has c words in it.  Off k their letters agree or are
      adjacent in H, so each of those coordinates adds >= 0 to t(x, y) +
      t(y, x).  Both directed letter sums are < 0, so the k-th letters are
      distinct and pairwise non-adjacent in H = I: a maximum set of I.
    - No maximum set sorts below L^n.  Suppose S does, and its first word
      that differs is w = S_m < (L^n)_m.  Let k be the first coordinate
      with w_k not in L.  Its fibre gives a maximum set T of I that holds
      w_k, so T sorts above L and first differs at a position r, with l =
      L_r not in T and l < w_k.  Take w'' = (w_1..w_(k-1), l, u_(k+1)..u_n),
      u_i the member of L in w_i's clique.  Then w'' is in L^n and below w,
      so it is among S's first m - 1 words.  It is also in w's fibre, so l
      is in T, a contradiction.

    The condition I = H is needed: u = [[0, 0, 1, 1, 2], [-1, 0, 1, -2,
    -1], [2, -3, 0, 1, 0], [0, -1, 2, 0, -2], [-1, 1, 2, -3, 0]] closes its
    sandwich (alpha(I) = 2 = c, L = (1, 3)) with I != H, and at n = 3 its
    lexicographically least maximum set holds the word 74 where L^3 has
    81."""
    i, h = _sign_graph(t, 1), _sign_graph(_plus_transpose(t), 1)
    settled = dict(meter.settled)
    _, iset = _alpha(i, meter)
    meter.settled = settled
    same = i.rows == h.rows
    q = len(t)
    alpha_h = len(iset) if same else _CliqueSearch(_SearchCopy(h).rows, meter).maximum()[0]
    for k in range(alpha_h, q):
        if (cliques := _clique_cover(h, k, meter)) is not None:
            break
    else:
        cliques = [1 << v for v in range(q)]
    return _Bases(_product_words(iset, q, n), cliques,
                  same and len(iset) == len(cliques))


def _sandwich(g: Graph, bases: _Bases) -> tuple[int, int, list[int]]:
    """(mask of I^n, the ceiling cover_number(H)^n, a minimum partition of H
    into cliques) for a graph g with letters (t, n), from its bases, which
    ``_letter_bases`` found: I = ``_sign_graph(t, 1)`` and H =
    ``_sign_graph(t + t^T, 1)``, I lexicographically least maximum.

    Two distinct words of I^n differ where t is negative both ways and add
    t(x, x) = 0 where they agree, so both letter sums are negative and I^n
    is independent.  Two words adjacent in H^n have t(x_k, y_k) +
    t(y_k, x_k) >= 0 on every coordinate, so the two directions' sums add
    up to at least 0 and one of them is >= 0: H^n is a subgraph of g.  The
    products of a minimum partition of H into cliques partition H^n into
    cover_number(H)^n cliques of g, which an independent set of g meets at
    most once each.  Both claims on I^n are checked again on g, since a
    wrong one would give a wrong alpha.

    The sandwich is closed when |I|^n meets the ceiling: then I^n is
    maximum, and every maximum independent set meets each product clique
    (``_product_parts``) exactly once."""
    n = g.letters[1]
    words, cliques, _ = bases
    cover = len(cliques)
    seed = sum(1 << m for m in words)
    if any(g.rows[m] & seed for m in words):
        raise VerificationError(f"the product set I^{n} is not independent")
    if len(words) > cover**n:
        raise VerificationError(
            f"the product set I^{n} has {len(words)} vertices, above its "
            f"ceiling {cover}^{n}")
    return seed, cover**n, cliques


def _product_parts(cliques: list[int], q: int, n: int) -> list[int]:
    """The products c_1 x ... x c_n of the cliques, masks of letters, as
    masks of words of X^n.  A new most significant letter a moves a word w
    to a * q**k + w, so a clique spread to the fields of width q**k, times a
    part of X^k, is their product part of X^(k+1), with no carry."""
    parts = cliques
    for k in range(1, n):
        spread = [sum(1 << (a * q**k) for a in _bits(c)) for c in cliques]
        parts = [s * p for s in spread for p in parts]
    return parts


@lru_cache(maxsize=4)
def _type_classes(q: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(of, masks): the type classes of X^n, the words with the same letters
    in any order, which are the orbits of the coordinate permutations.
    of[w] is the class of word w and masks[c] the words of class c, the
    classes numbered by their least word.  Every lettered graph on X^n
    shares the table, so it is kept for the last few (q, n); one holds q^n
    bits per class, less than a graph's own rows."""
    powers = q ** np.arange(n)
    keys = (np.sort(np.arange(q**n)[:, None] // powers % q, axis=1) @ powers).tolist()
    number: dict[int, int] = {}
    of = tuple(number.setdefault(key, len(number)) for key in keys)
    masks = [0] * len(number)
    for w, c in enumerate(of):
        masks[c] |= 1 << w
    return of, tuple(masks)


def _best_union(g: Graph, seed: int, meter: _Meter) -> int:
    """The largest union of type classes of g's words that a capped search
    finds above the independent set seed, or seed itself, as a mask of g's
    vertices.

    Every coordinate permutation maps a lettered g onto itself and each
    class onto itself, so a test on one member of a class (its highest
    word) holds for all: a class with no inner edge is independent, and two
    such classes conflict iff one's member has a neighbour in the other.
    The search picks non-conflicting classes of the most words: each node
    takes the heaviest open class first, and a node whose words plus the
    words of its open classes, counted by one popcount per class size,
    cannot beat the best union is cut.  It stops after one node per class,
    each charged to meter; no union of an open sandwich has been seen to
    reach the ceiling cover_number(H)^n, so it has no stop there.  The union
    is checked again on g's rows, since a g that is not symmetric would make
    it wrong: VerificationError if it is not independent."""
    t, n = g.letters
    of, masks = _type_classes(len(t), n)
    rows = g.rows
    kept = sorted((m for m in masks if not rows[m.bit_length() - 1] & m),
                  key=int.bit_count, reverse=True)
    position = {of[m.bit_length() - 1]: j for j, m in enumerate(kept)}
    conflicts = [0] * len(kept)
    later = 0  # the words of the classes after the j-th
    for m in kept:
        later |= m
    for j, m in enumerate(kept):
        later ^= m
        hit = rows[m.bit_length() - 1] & later
        while hit:
            c = of[hit.bit_length() - 1]
            hit ^= hit & masks[c]
            k = position[c]
            conflicts[j] |= 1 << k
            conflicts[k] |= 1 << j
    sizes = [m.bit_count() for m in kept]
    by_size: dict[int, int] = {}
    for j, size in enumerate(sizes):
        by_size[size] = by_size.get(size, 0) | 1 << j
    groups = list(by_size.items())
    best_size, best, nodes = seed.bit_count(), 0, len(kept)

    def expand(chosen: int, weight: int, cand: int):
        nonlocal best_size, best, nodes
        if not nodes:
            raise _Found
        nodes -= 1
        meter.charge(1, "type class search")
        bound = weight + sum(size * (cand & group).bit_count() for size, group in groups)
        while cand and bound > best_size:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            if weight + sizes[j] > best_size:
                best_size, best = weight + sizes[j], chosen | low
            rest = cand ^ (cand & conflicts[j])
            if rest:
                expand(chosen | low, weight + sizes[j], rest)
            bound -= sizes[j]

    try:
        if kept:
            expand(0, 0, (1 << len(kept)) - 1)
    except _Found:
        pass
    if not best:
        return seed
    union = 0
    for j in _bits(best):
        union |= kept[j]
    if any(rows[v] & union for v in _bits(union)):
        raise VerificationError("a union of type classes is not independent")
    return union


def independence_number(g: Graph, budget: int = DEFAULT_NODE_BUDGET
                        ) -> tuple[int, tuple[int, ...]]:
    """Exact alpha(G) with the lexicographically least maximum independent
    set, as a tuple of vertices in increasing order.

    A G with letters (t, n), so n >= 2, and at least ``ORDERED_MIN_VERTICES``
    vertices is bounded by its table (``_sandwich``): I^n is independent and
    cover_number(H)^n is a ceiling.  When |I|^n meets the ceiling, the
    sandwich is closed: alpha is the ceiling and I^n a maximum set, with no
    search.  When I moreover has the rows of H, the letter rule of
    ``_letter_bases``, proved in its docstring, makes L^n the witness, L
    the lexicographically least maximum set of I, with no walk of G;
    ``block_independence_number`` gives the same answer from the table
    alone, with no G built.  A lettered G is the sign graph of a
    letterwise sum, so every permutation of the n coordinates maps it onto
    itself and each type class (words with the same letters) onto itself.
    On an open sandwich, a search over the classes with no inner edge, at
    most one node per class, looks for the union of non-conflicting
    classes with the most words (``_best_union``), and that union replaces
    I^n as the incumbent when it is larger.  The maximum search then runs
    on a degree-ordered copy of G (``_SearchCopy``), from the incumbent,
    and stops as soon as it reaches the ceiling; its root branches on one
    word of each type class and drops the rest of the class, and deeper
    levels branch on single vertices.  Any other G is searched on its copy
    with no bounds.  The answer is the same as a search of G's rows alone.

    The witness pass walks the vertices in G's own order and keeps each one
    that some maximum independent set extends.  It holds such a set W, first
    the maximum set found, that contains every vertex kept so far and no
    vertex rejected.  A vertex in W is kept with no search.  One outside W
    that conflicts with a single open member of W is kept by exchanging the
    two; one that conflicts with none would make W larger than alpha, a
    VerificationError.  Else the vertex is rejected when the vertices still
    open beside it meet too few classes of one clique partition of G: the
    greedy colouring of the copy that the maximum search's root made, or on
    a closed sandwich the cover_number(H)^n product cliques, each of which
    every maximum set meets once.  Only a vertex that these rules leave open
    costs an ``at_least`` search, and on success W becomes the kept
    vertices plus the set that search found.  An edgeless graph needs no
    search.  The searches reuse the maximum search's degree-ordered copy
    and its fences, built once per call; a closed sandwich's pass walks G's
    own rows and builds the copy and its fences only at its first search
    (``_ClosedSearch``).

    One node budget bounds every search, the bases' and the classes'
    included.  Raises BudgetExceededError if it runs out, InputError if the
    budget is below 1, and VerificationError if I^n is not independent in G
    or exceeds the ceiling, or if the union of classes is not independent
    in G's rows (a G whose rows break the coordinate symmetry that its
    table claims).  The error's ``best`` is the size of the largest
    independent set of G known when the budget ran out: None while the
    bases are searched, then |I|^n while the classes are searched, the
    maximum search's incumbent, and alpha during the witness pass.
    """
    return _alpha(g, _Meter(budget), reports=True)


def block_independence_number(t, n: int, budget: int = DEFAULT_NODE_BUDGET
                              ) -> tuple[int, tuple[int, ...]]:
    """(alpha, witness) of ``independence_number(g)``, g = ``_sign_graph(t,
    n)``, built here with the block its search's copy starts from
    (``_sign_block``).  Neither leaves the call, and neither is built when
    the rule of ``_letter_bases`` answers from the q x q table t alone.

    The rule runs where g would be sandwiched (n >= 2 and q**n at least
    ``ORDERED_MIN_VERTICES``), and a g built after it declines takes the
    bases it found, so both paths spend the nodes of ``independence_number``
    and give its answer.  CapExceededError above ``DEFAULT_VERTEX_CAP``
    before anything is built or searched.  Its callers are the game's
    equilibria and ``ixcap alpha``, on U's table or a file graph's
    closed-neighbourhood table (``_closed_table``)."""
    nv = _check_cap(len(t), n)
    meter = _Meter(budget)
    bases = None
    if n >= 2 and nv >= ORDERED_MIN_VERTICES:
        bases = _letter_bases(t, n, meter)
        if bases.lex_least:
            return len(bases.cliques) ** n, bases.words
    g, packed = _sign_block(t, n)
    return _alpha(g, meter, True, bases, packed)


def _alpha(g: Graph, meter: _Meter, reports: bool = False, bases: _Bases | None = None,
           packed: np.ndarray | None = None) -> tuple[int, tuple[int, ...]]:
    """(alpha(g), the lexicographically least maximum independent set), as
    ``independence_number`` describes, with every search charged to meter.
    ``reports`` makes g's independent sets the meter's ``best``; it is off
    for a base graph searched on behalf of another graph.  ``bases`` are
    g's ``_letter_bases``, if already found, and ``packed`` g's block from
    ``_sign_block``, if the caller holds it, for the search's copy."""
    nv = g.n_vertices
    if nv == 0:
        return 0, ()
    _ensure_recursion_headroom(nv)
    seed, ceiling = 0, nv
    sandwiched = g.letters is not None and nv >= ORDERED_MIN_VERTICES
    if sandwiched:
        bases = bases or _letter_bases(*g.letters, meter)
        seed, ceiling, cliques = _sandwich(g, bases)
        if reports:
            meter.best = seed.bit_count()
        if bases.lex_least:
            return ceiling, bases.words
        if seed.bit_count() < ceiling:
            seed = _best_union(g, seed, meter)
            if reports:
                meter.best = seed.bit_count()
        if seed.bit_count() == ceiling:
            # closed: the incumbent is maximum, and the walk runs on g's own rows
            return ceiling, _lex_least(g, ceiling, seed, g.rows, range(nv),
                                       _ClosedSearch(g, meter, cliques, packed))
    copy = _SearchCopy(g, packed)
    search = _CliqueSearch(copy.rows, meter, reports)
    orbit = None
    if sandwiched:
        of, masks = _type_classes(len(g.letters[0]), g.letters[1])

        def orbit(i: int) -> int:
            return copy.inward(masks[of[copy.order[i]]])
    alpha, maxset = search.maximum(copy.inward(seed), ceiling, orbit)
    # a reporting meter's best is now alpha; the witness pass's searches
    # find smaller sets, which must not lower it
    search.reports = False
    return alpha, _lex_least(g, alpha, maxset, copy.rows, copy.new_of, search)


def confusability_graph(channel, n: int) -> Graph:
    """Inputs adjacent when some channel output has positive probability
    under both: the sign graph of the n-fold letter sum of the channel's
    0/-1 table (``_confusability_table``), which for n > 1 the memoryless
    product makes the n-fold strong power of the base graph G_c."""
    return _sign_graph(_confusability_table(channel), n)


def _confusability_table(channel) -> tuple[tuple[int, ...], ...]:
    """The channel's 0/-1 table t: t[a, b] = 0 when inputs a and b share a
    possible output, a = b included, and -1 otherwise.  It is G_c's
    closed-neighbourhood table (``_closed_table``)."""
    return tuple(tuple(0 if a & b else -1 for b in channel.support) for a in channel.support)
