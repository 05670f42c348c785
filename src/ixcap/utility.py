"""Utility matrices: loading, validation, normalization and transforms, and
the block-sum kernel.

The single-letter utility u(i, j) is the payoff the sender receives when the
receiver recovers symbol i while the sender observed symbol j.  All entries
are exact rationals; nothing in this module touches floating point.  Matrix
convention throughout: row index = recovered symbol, column index = observed
symbol, so ``u[i][j]`` is u(i, j).

``block_sums`` is the one place block utilities are computed: the exact
integer sums S[t, y] = scale * sum_k u(t_k, y_k) over blocklength-n
sequences.  Every exact answer downstream (sender graphs, worst-case decoded
sets, feasibility of sequence subsets, noisy dominance) is a sign test on
these sums.  ``block_utility`` is the Fraction reference definition, and
``block_utility_rows`` a Fraction view of the kernel; neither is on the
library's own code paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import gcd
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError, InputError

#: soft cap on q**n vertices for blocklength constructions
DEFAULT_VERTEX_CAP = 20_000
#: cap on the combined alphabet of a product utility
DEFAULT_PRODUCT_CAP = 64
#: most cells one dense block of block sums (or of channel rows) may hold;
#: larger tables are built in row blocks of at most this size
BLOCK_CELLS = 1 << 22


def parse_rational(value) -> Fraction:
    """Parse a matrix entry into an exact Fraction.

    Accepts ints, Fractions, "p/q" strings, and decimal strings/floats.
    Floats go through their shortest decimal repr so e.g. 0.1 means 1/10,
    not the nearest binary double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"boolean is not a valid matrix entry: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational entry {value!r}: {exc}") from exc
    raise InputError(f"unsupported entry type {type(value).__name__}: {value!r}")


@dataclass(frozen=True)
class Alphabet:
    """Ordered source alphabet; index i maps bijectively to symbols[i]."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise InputError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("alphabet labels must be distinct")

    @property
    def q(self) -> int:
        return len(self.symbols)

    def index_of(self, label: str) -> int:
        try:
            return self.symbols.index(label)
        except ValueError:
            raise InputError(f"unknown symbol {label!r}") from None

    @staticmethod
    def of_size(q: int) -> "Alphabet":
        return Alphabet(tuple(str(i) for i in range(q)))


def sequence_label(alphabet: Alphabet, symbols: Sequence[int]) -> str:
    """Human-readable label for an n-length sequence of alphabet indices."""
    parts = [alphabet.symbols[s] for s in symbols]
    if all(len(p) == 1 for p in alphabet.symbols):
        return "".join(parts)
    return ",".join(parts)


@dataclass(frozen=True)
class BlockSequence:
    """An element of X^n with its canonical base-q index (MSB first)."""

    q: int
    n: int
    symbols: tuple[int, ...]
    index: int

    @staticmethod
    def from_symbols(q: int, symbols: Sequence[int]) -> "BlockSequence":
        symbols = tuple(symbols)
        if not symbols:
            raise InputError("blocklength must be at least 1")
        if any(not 0 <= s < q for s in symbols):
            raise InputError(f"symbol index out of range for q={q}: {symbols}")
        index = 0
        for s in symbols:
            index = index * q + s
        return BlockSequence(q, len(symbols), symbols, index)

    @staticmethod
    def from_index(q: int, n: int, index: int) -> "BlockSequence":
        if not 0 <= index < q**n:
            raise InputError(f"sequence index {index} out of range for q={q}, n={n}")
        digits = []
        rem = index
        for _ in range(n):
            digits.append(rem % q)
            rem //= q
        return BlockSequence(q, n, tuple(reversed(digits)), index)


@dataclass(frozen=True)
class UtilityMatrix:
    """q x q exact-rational utility with (after normalization) zero diagonal."""

    alphabet: Alphabet
    u: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        q = self.alphabet.q
        if len(self.u) != q or any(len(row) != q for row in self.u):
            raise InputError(f"utility matrix must be {q}x{q} to match the alphabet")

    @property
    def q(self) -> int:
        return self.alphabet.q

    def entry(self, i: int, j: int) -> Fraction:
        return self.u[i][j]

    def is_symmetric(self) -> bool:
        q = self.q
        return all(self.u[i][j] == self.u[j][i] for i in range(q) for j in range(i))

    def has_zero_diagonal(self) -> bool:
        return all(self.u[i][i] == 0 for i in range(self.q))

    def scaled_integer_entries(self) -> tuple[int, list[list[int]]]:
        """Common-denominator integer rendering (scale, scale*u); sign-exact."""
        denom = 1
        for row in self.u:
            for x in row:
                denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [[int(x * denom) for x in row] for row in self.u]
        return denom, ints

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet.symbols),
            "utility": [[_render_rational(x) for x in row] for row in self.u],
        }


def _render_rational(x: Fraction):
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _as_matrix(raw) -> list[list[Fraction]]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise InputError("matrix must be a non-empty list of rows")
    rows = [[parse_rational(x) for x in row] for row in raw]
    q = len(rows)
    if any(len(row) != q for row in rows):
        raise InputError(f"matrix is not square: {q} rows of lengths {[len(r) for r in rows]}")
    return rows


def normalize_diagonal(raw, alphabet: Alphabet | None = None) -> UtilityMatrix:
    """Column-wise shift u'(i,j) = u(i,j) - u(j,j), yielding a zero diagonal.

    Best-response comparisons are invariant under this shift, since for a
    fixed observed symbol j every candidate recovery is shifted by the same
    constant.
    """
    rows = _as_matrix(raw)
    q = len(rows)
    if alphabet is None:
        alphabet = Alphabet.of_size(q)
    shifted = tuple(
        tuple(rows[i][j] - rows[j][j] for j in range(q)) for i in range(q)
    )
    return UtilityMatrix(alphabet, shifted)


def utility_from_json(obj) -> UtilityMatrix:
    if not isinstance(obj, dict):
        raise InputError("utility JSON must be an object")
    if "utility" not in obj:
        raise InputError('utility JSON must contain a "utility" matrix')
    rows = _as_matrix(obj["utility"])
    if "alphabet" in obj:
        alphabet = Alphabet(tuple(str(s) for s in obj["alphabet"]))
        if alphabet.q != len(rows):
            raise InputError(
                f"alphabet size {alphabet.q} does not match matrix dimension {len(rows)}"
            )
    else:
        alphabet = Alphabet.of_size(len(rows))
    return normalize_diagonal(rows, alphabet)


def load_utility(path) -> UtilityMatrix:
    """Load, validate and diagonal-normalize a utility matrix from JSON."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read utility file {path}: {exc}") from exc
    try:
        obj = json.loads(text, parse_float=Fraction)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse JSON in {path}: {exc}") from exc
    return utility_from_json(obj)


def block_utility(U: UtilityMatrix, xhat: Sequence[int] | BlockSequence,
                  x: Sequence[int] | BlockSequence) -> Fraction:
    """Average per-letter utility (1/n) * sum_i u(xhat_i, x_i), exact."""
    a = xhat.symbols if isinstance(xhat, BlockSequence) else tuple(xhat)
    b = x.symbols if isinstance(x, BlockSequence) else tuple(x)
    if len(a) != len(b):
        raise InputError(f"blocklength mismatch: {len(a)} vs {len(b)}")
    if not a:
        raise InputError("blocklength must be at least 1")
    total = sum((U.u[i][j] for i, j in zip(a, b)), Fraction(0))
    return total / len(a)


def block_utility_rows(U: UtilityMatrix, n: int) -> list[list[Fraction]]:
    """Dense q**n x q**n table t[x][y] of average block utilities, with x the
    recovered sequence index and y the observed one: ``block_sums`` divided
    by scale * n, as Fractions."""
    scale, sums = block_sums(U, n)
    return [[Fraction(v, scale * n) for v in row] for row in sums.tolist()]


def _expand_rows(table: np.ndarray, n: int, rows, combine) -> np.ndarray:
    """Rows of the n-fold letterwise combination of a q x q table.

    ``out[r, y] = combine_k table[t_k, y_k]`` with t = rows[r], for every
    y in X^n; sequences are canonical MSB-first indices.  ``combine`` is a
    numpy ufunc such as ``np.add`` (block sums) or ``np.multiply`` (product
    channel rows).  The table's dtype carries through, so an object table
    computes in Python ints.
    """
    q = table.shape[0]
    t = np.asarray(rows, dtype=np.int64).reshape(-1)
    if t.size and (t.min() < 0 or t.max() >= q**n):
        raise InputError(f"sequence index out of range for q={q}, n={n}")
    # least significant letter first, so the wide axis stays innermost
    out = table[t % q]
    for k in range(1, n):
        letter = table[t // q**k % q]
        out = combine(letter[:, :, None], out[:, None, :]).reshape(t.size, q ** (k + 1))
    return out


def block_sums(U: UtilityMatrix, n: int, rows=None) -> tuple[int, np.ndarray]:
    """Exact integer block sums: (scale, S) with
    S[r, y] = scale * sum_k u(t_k, y_k) for t = rows[r] (recovered) and every
    observed y in X^n, in canonical index order.

    ``scale`` is the common denominator from ``scaled_integer_entries``, so
    S / (scale * n) is the average block utility and every sign and tie is
    exact.  ``rows`` defaults to all q**n sequences; consumers ask for the
    rows they read.  The dtype is int64 when max|scale*u| * n < 2**62, so no
    sum can overflow, and object (Python ints) otherwise.
    """
    if n < 1:
        raise InputError("blocklength must be at least 1")
    scale, ints = U.scaled_integer_entries()
    max_abs = max(abs(x) for row in ints for x in row)
    table = np.array(ints, dtype=np.int64 if max_abs * n < 2**62 else object)
    if rows is None:
        rows = range(U.q**n)
    return scale, _expand_rows(table, n, rows, np.add)


def symmetric_part(U: UtilityMatrix) -> UtilityMatrix:
    q = U.q
    sym = tuple(
        tuple((U.u[i][j] + U.u[j][i]) / 2 for j in range(q)) for i in range(q)
    )
    return UtilityMatrix(U.alphabet, sym)


def antisymmetric_part(U: UtilityMatrix) -> tuple[tuple[Fraction, ...], ...]:
    q = U.q
    return tuple(
        tuple((U.u[i][j] - U.u[j][i]) / 2 for j in range(q)) for i in range(q)
    )


def _offdiag_entries(U: UtilityMatrix) -> Iterable[Fraction]:
    q = U.q
    for i in range(q):
        for j in range(q):
            if i != j:
                yield U.u[i][j]


def sign_class_extrema(U: UtilityMatrix) -> tuple[Fraction | None, Fraction | None,
                                                  Fraction | None, Fraction | None]:
    """(max nonneg, max neg, min nonneg, min neg) over off-diagonal entries.

    A class is None when empty.  The diagonal is excluded: it is pinned to 0
    by normalization and capping it would break the zero-diagonal invariant.
    """
    nonneg = [x for x in _offdiag_entries(U) if x >= 0]
    neg = [x for x in _offdiag_entries(U) if x < 0]
    return (
        max(nonneg) if nonneg else None,
        max(neg) if neg else None,
        min(nonneg) if nonneg else None,
        min(neg) if neg else None,
    )


def _capped(U: UtilityMatrix, nonneg_cap: Fraction | None,
            neg_cap: Fraction | None) -> UtilityMatrix:
    q = U.q
    rows = []
    for i in range(q):
        row = []
        for j in range(q):
            x = U.u[i][j]
            if i == j:
                row.append(x)
            elif x >= 0:
                row.append(nonneg_cap if nonneg_cap is not None else x)
            else:
                row.append(neg_cap if neg_cap is not None else x)
        rows.append(tuple(row))
    return UtilityMatrix(U.alphabet, tuple(rows))


def capped_max(U: UtilityMatrix) -> UtilityMatrix:
    """Replace each off-diagonal sign class by its maximum; result >= U."""
    max_nonneg, max_neg, _, _ = sign_class_extrema(U)
    return _capped(U, max_nonneg, max_neg)


def capped_min(U: UtilityMatrix) -> UtilityMatrix:
    """Replace each off-diagonal sign class by its minimum; result <= U."""
    _, _, min_nonneg, min_neg = sign_class_extrema(U)
    return _capped(U, min_nonneg, min_neg)


def incremented(U: UtilityMatrix) -> UtilityMatrix:
    """Symmetric part plus the absolute antisymmetric part, entrywise.

    The result is symmetric and dominates U entrywise, so its sender graphs
    contain those of U at every blocklength.
    """
    q = U.q
    sym = symmetric_part(U)
    asym = antisymmetric_part(U)
    rows = tuple(
        tuple(sym.u[i][j] + abs(asym[i][j]) for j in range(q)) for i in range(q)
    )
    return UtilityMatrix(U.alphabet, rows)


def utility_from_graph(graph, alphabet: Alphabet | None = None) -> UtilityMatrix:
    """0/-1 utility whose base sender graph is exactly the given graph.

    Entry u(i,j) is 0 when i == j or i ~ j, and -1 otherwise; the sender then
    has a weak incentive to swap adjacent symbols and a strict disincentive
    everywhere else.
    """
    q = graph.n_vertices
    if alphabet is None:
        alphabet = Alphabet.of_size(q)
    rows = tuple(
        tuple(
            Fraction(0) if i == j or graph.has_edge(i, j) else Fraction(-1)
            for j in range(q)
        )
        for i in range(q)
    )
    return UtilityMatrix(alphabet, rows)


def product_utility(U1: UtilityMatrix, U2: UtilityMatrix,
                    cap: int = DEFAULT_PRODUCT_CAP) -> UtilityMatrix:
    """Pairwise-averaged utility on the product alphabet.

    u((a,b),(a',b')) = (u1(a,a') + u2(b,b'))/2, i.e. a pair behaves like a
    2-block with one letter from each component.
    """
    q1, q2 = U1.q, U2.q
    if q1 * q2 > cap:
        raise CapExceededError(
            f"product alphabet size {q1 * q2} exceeds cap {cap}"
        )
    labels = tuple(
        f"({a},{b})" for a, b in iter_product(U1.alphabet.symbols, U2.alphabet.symbols)
    )
    alphabet = Alphabet(labels)
    rows = []
    for a, b in iter_product(range(q1), range(q2)):
        row = [
            (U1.u[a][a2] + U2.u[b][b2]) / 2
            for a2, b2 in iter_product(range(q1), range(q2))
        ]
        rows.append(tuple(row))
    return UtilityMatrix(alphabet, tuple(rows))
