"""Utility matrices: loading, validation, normalization and transforms, and
the block-sum kernel.

The single-letter utility u(i, j) is the payoff the sender receives when the
receiver recovers symbol i while the sender observed symbol j.  All entries
are exact rationals; nothing in this module touches floating point.  Matrix
convention throughout: row index = recovered symbol, column index = observed
symbol, so ``u[i][j]`` is u(i, j).

Inside the library a sequence of X^n is its canonical index, base q with the
first letter most significant, and every graph, witness and strategy holds
such indices.  ``sequence_labels`` is the one place a sequence gets a name:
the commands and certificates that report sequences name the ones they
report, or build its whole table once per report.

``block_sums`` computes the exact integer sums S[t, y] = scale * sum_k
u(t_k, y_k) over blocklength-n sequences.  The worst-case decoded sets and
the noisy dominance check are sign tests on these sums; the sender graphs
at n >= 2 sum a = scale * u, or a + a^T for G_s^Sym,n, by the same
``_expand_rows`` and ``_sum_table``.  ``_sum_table`` stores a table in the
narrowest exact integer type for its n-fold sums: with bound = max|entry|
* n, int8 below 2**7, int16 below 2**15, int32 below 2**31, int64 below
2**62, and Python ints (object) above.  ``_expand_rows`` keeps that type,
so the sign graphs and the library's checks, which read ``_block_sums``,
touch one to eight bytes a sum as the table needs; the public
``block_sums`` widens the same sums to int64, which its callers may add.
``_expand_rows`` only sums, and with no rows it sums the whole table.
``lower_bounds._largest_feasible`` reads its pair sums from the integer
utility itself at n = 1, from one whole table while one row block holds its
triple sums, and adds letters in Python above that.
``block_utility`` is the Fraction reference definition, and
``block_utility_rows`` a Fraction view of the kernel; neither is on the
library's own code paths.

Every table with a q**n-wide row per sequence of X^n (block sums, sign
graphs, search copies, the noisy check's expected values) is built in the
row blocks that ``_row_blocks`` alone cuts, and none has more than
``DEFAULT_VERTEX_CAP`` rows or columns: ``_check_cap`` refuses a larger
X^n before any power or array is computed.  A q**n x k table with k <= 4
is built whole, and the subset search's q**n x q**n table and its
(q**n)**3 triple sums only when one row block holds the triples.
``_read_json`` alone reads input files.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product as iter_product
from math import lcm
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CapExceededError, InputError

#: most cells one block of a dense table on X^n may hold; read only by
#: ``_row_blocks``
BLOCK_CELLS = 1 << 22
#: most sequences (q**n) a table, graph or strategy on X^n may have; read
#: only by ``_check_cap``, when it is called
DEFAULT_VERTEX_CAP = 20_000


def _check_cap(q: int, n: int = 1) -> int:
    """q**n, the sequences of X^n; InputError when n < 1, and
    CapExceededError above ``DEFAULT_VERTEX_CAP``, naming q^n unexpanded
    for q >= 2 and an n past the cap's bit length, whose power is never
    computed.  Every function that computes or allocates over X^n calls it
    first."""
    if n < 1:
        raise InputError("blocklength must be at least 1")
    size = f"{q}^{n}" if q > 1 and n > DEFAULT_VERTEX_CAP.bit_length() else q**n
    if isinstance(size, str) or size > DEFAULT_VERTEX_CAP:
        raise CapExceededError(f"{size} vertices exceed the cap of {DEFAULT_VERTEX_CAP}")
    return size


def _row_blocks(count: int, width: int) -> list[slice]:
    """The slices that cut count rows of width cells each into blocks of at
    most ``BLOCK_CELLS`` cells, with at least one row per block."""
    step = max(1, BLOCK_CELLS // width)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _read_json(path, what: str):
    """The JSON value in the file at path, its decimals exact Fractions;
    InputError, naming it a ``what`` file, when it cannot be read or parsed."""
    path = Path(path)
    try:
        return json.loads(path.read_text(), parse_float=_exact_decimal)
    except (OSError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def _exact_decimal(text: str) -> Fraction:
    """Fraction(text), refusing an exponent of over 4 digits that it would expand."""
    if len(text.lower().partition("e")[2].lstrip("+-")) > 4:
        raise ValueError(f"the exponent of {text[:40]} has more than 4 digits")
    return Fraction(text)


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
            return _exact_decimal(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational entry {value!r}: {exc}") from exc
    raise InputError(f"unsupported entry type {type(value).__name__}: {value!r}")


def parse_integer(value, what: str) -> int:
    """value as an int: an int or numpy integer, never a bool, float or
    string, which InputError names as ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Alphabet:
    """Ordered source alphabet; index i maps bijectively to symbols[i]."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise InputError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("alphabet labels must be distinct")
        # sequence_labels joins the symbols with "," unless each is one
        # character; a symbol holding "," would then make two words one label
        if any(len(s) != 1 for s in self.symbols) and any("," in s for s in self.symbols):
            raise InputError("a symbol contains ',', which joins the symbols of "
                             "a sequence label when some symbol is not one character")

    @property
    def q(self) -> int:
        return len(self.symbols)

    def index_of(self, label: str) -> int:
        try:
            return self.symbols.index(label)
        except ValueError:
            raise InputError(f"unknown symbol {label!r}") from None

    def indices_of(self, text: str) -> list[int]:
        """The indices of the symbols that text lists, separated by "," and
        spaces, read symbol by symbol: where a symbol is due, a one-character
        symbol "," is that symbol, so ",,a" lists "," and "a".  None for a
        blank text; InputError for an item, up to its ",", that is no symbol."""
        item = re.compile(r"\s*(%s)\s*(,|\Z)" % "|".join(map(re.escape, self.symbols)))
        found, pos, more = [], 0, bool(text.strip())
        while more:
            m = item.match(text, pos)
            # an item that no symbol matches is none, and index_of raises
            found.append(self.index_of(m[1] if m else text[pos:].split(",")[0].strip()))
            pos, more = m.end(), bool(m[2])
        return found

    @staticmethod
    def of_size(q: int) -> "Alphabet":
        return Alphabet(tuple(str(i) for i in range(q)))


def sequence_labels(alphabet: Alphabet, n: int, indices=None) -> tuple[str, ...]:
    """Labels of the sequences of X^n with the given canonical indices, or
    of all q**n in index order: the symbols joined by "", or by "," when
    some symbol is longer than one character.  InputError when an index
    lies outside X^n, and CapExceededError, before any label, when X^n is
    above the vertex cap."""
    symbols = alphabet.symbols
    q = len(symbols)
    nv = _check_cap(q, n)
    sep = "" if all(len(s) == 1 for s in symbols) else ","
    if indices is None:
        return tuple(map(sep.join, iter_product(symbols, repeat=n)))
    indices = list(indices)
    if indices and (min(indices) < 0 or max(indices) >= nv):
        raise InputError(f"sequence index out of range for q={q}, n={n}")
    powers = [q**k for k in reversed(range(n))]
    return tuple(sep.join([symbols[i // p % q] for p in powers]) for i in indices)


def _product_words(letters, q: int, n: int) -> tuple[int, ...]:
    """L^n for the ascending letters L of a q-letter alphabet, as ascending
    canonical indices: the word m * q + a for each word m of L^(n-1) and
    letter a of L."""
    words = [0]
    for _ in range(n):
        words = [m * q + a for m in words for a in letters]
    return tuple(words)


@dataclass(frozen=True)
class UtilityMatrix:
    """q x q exact-rational utility with a zero diagonal.

    Loaders reach the zero diagonal by ``normalize_diagonal``; a matrix built
    directly with a nonzero diagonal entry is an input error."""

    alphabet: Alphabet
    u: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        q = self.alphabet.q
        if len(self.u) != q or any(len(row) != q for row in self.u):
            raise InputError(f"utility matrix must be {q}x{q} to match the alphabet")
        if any(self.u[i][i] != 0 for i in range(q)):
            raise InputError("utility matrix must have a zero diagonal; "
                             "normalize_diagonal shifts one to it")

    @property
    def q(self) -> int:
        return self.alphabet.q

    def is_symmetric(self) -> bool:
        """Whether u = u^T, read on the integer table scale * u, whose
        positive scale keeps every equality."""
        ints = self.scaled_integer_entries[1]
        return ints == tuple(zip(*ints))

    @cached_property
    def scaled_integer_entries(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """Common-denominator integer rendering (scale, scale*u); sign-exact.

        Computed once per matrix; the rows are tuples, so no caller can
        change the shared table."""
        denom = lcm(*(x.denominator for row in self.u for x in row))
        return denom, tuple(tuple(x.numerator * (denom // x.denominator) for x in row)
                            for row in self.u)

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
    if (not isinstance(raw, (list, tuple)) or not raw
            or not all(isinstance(row, (list, tuple)) for row in raw)):
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
    alphabet = alphabet_from_json(obj, len(rows))
    if alphabet.q != len(rows):
        raise InputError(
            f"alphabet size {alphabet.q} does not match matrix dimension {len(rows)}"
        )
    return normalize_diagonal(rows, alphabet)


def alphabet_from_json(obj: dict, q: int) -> Alphabet:
    """The symbols listed under "alphabet" in a JSON object, or 0..q-1 when
    it lists none."""
    if "alphabet" not in obj:
        return Alphabet.of_size(q)
    if not isinstance(obj["alphabet"], list):
        raise InputError('"alphabet" must be a list of symbols')
    return Alphabet(tuple(str(s) for s in obj["alphabet"]))


def load_utility(path) -> UtilityMatrix:
    """Load, validate and diagonal-normalize a utility matrix from JSON."""
    return utility_from_json(_read_json(path, "utility"))


def block_utility(U: UtilityMatrix, xhat: Sequence[int], x: Sequence[int]) -> Fraction:
    """Average per-letter utility (1/n) * sum_i u(xhat_i, x_i), exact, for
    two letter sequences."""
    a, b = tuple(xhat), tuple(x)
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


def _expand_rows(table: np.ndarray, n: int, rows=None) -> np.ndarray:
    """Rows of the n-fold letterwise sum of a q x q table.

    ``out[r, y] = sum_k table[t_k, y_k]`` with t = rows[r], for every y in
    X^n; sequences are canonical MSB-first indices.  With no rows, the
    whole q**n x q**n table, by Kronecker sums: one broadcast add per
    letter, the wide axis innermost, with no gather or range check, since
    every index is in range by construction.  It is the one n-fold pair-sum
    kernel: the block sums, the sign graphs and the subset search's pair
    and 3-cycle sums (``lower_bounds._largest_feasible``) all read it.
    The table's dtype carries through, so an object table sums in Python
    ints.
    """
    q = table.shape[0]
    if rows is None:
        out = table
        for k in range(1, n):
            # a new most significant letter for both sequences
            out = (table[:, None, :, None] + out[None, :, None, :]).reshape(q ** (k + 1), -1)
        return out
    t = np.asarray(rows, dtype=np.int64).reshape(-1)
    if t.size and (t.min() < 0 or t.max() >= q**n):
        raise InputError(f"sequence index out of range for q={q}, n={n}")
    # least significant letter first, so the wide axis stays innermost
    out = table[t % q]
    for k in range(1, n):
        letter = table[t // q**k % q]
        out = (letter[:, :, None] + out[:, None, :]).reshape(t.size, q ** (k + 1))
    return out


#: (dtype, top): the integer types that ``_sum_table`` picks from, narrowest
#: first; a table whose n-fold sums stay below top in magnitude takes the
#: first that fits.  int64 stops short of its range, at 2**62
_EXACT_TYPES = ((np.int8, 2**7), (np.int16, 2**15), (np.int32, 2**31), (np.int64, 2**62))


def _sum_table(ints, n: int) -> np.ndarray:
    """The q x q integer table ints as an array whose n-fold letter sums
    cannot overflow, in the narrowest type that holds them: with bound =
    max|entry| * n, int8 below 2**7, int16 below 2**15, int32 below 2**31,
    int64 below 2**62, and object (Python ints) otherwise.  Sums of a
    narrow table stay in its type, so each dense pass over X^n touches as
    few bytes as its sums need."""
    flat = list(chain.from_iterable(ints))
    bound = max(map(abs, flat)) * n
    dtype = next((t for t, top in _EXACT_TYPES if bound < top), object)
    return np.array(flat, dtype=dtype).reshape(len(ints), -1)


def block_sums(U: UtilityMatrix, n: int, rows=None, *,
               observed: bool = False) -> tuple[int, np.ndarray]:
    """Exact integer block sums: (scale, S) with
    S[r, y] = scale * sum_k u(t_k, y_k) for t = rows[r] (recovered) and every
    observed y in X^n, in canonical index order.  With ``observed`` the rows
    name observed sequences instead, S[r, t] = scale * sum_k u(t_k, x_k) for
    x = rows[r] and every recovered t: columns of the default table.

    ``scale`` is the common denominator from ``scaled_integer_entries``, so
    S / (scale * n) is the average block utility and every sign and tie is
    exact.  With no ``rows``, S is the whole q**n x q**n table, summed by
    ``_expand_rows``' whole-table form; consumers of large tables ask for
    the rows they read.  S is int64 when max|scale * u| * n < 2**62, else
    object (Python ints), so no sum can overflow, nor can the sum or
    difference of two.  The library's own consumers read ``_block_sums``,
    the same sums in ``_sum_table``'s narrowest type.  CapExceededError
    when q**n is above the vertex cap, with rows or without.
    """
    scale, sums = _block_sums(U, n, rows, observed=observed)
    return scale, sums if sums.dtype == object else sums.astype(np.int64, copy=False)


def _block_sums(U: UtilityMatrix, n: int, rows=None, *,
                observed: bool = False) -> tuple[int, np.ndarray]:
    """``block_sums`` in ``_sum_table``'s type, the narrowest of int8,
    int16, int32 and int64 whose range holds max|scale * u| * n (int64 up
    to 2**62), else object.  Exact as they stand, these sums are read only
    by consumers that compare them with 0 or with each other, list them,
    or promote them (the noisy check's matmul with int64 W), and never by
    one that adds two of them.  CapExceededError above the vertex cap,
    before any row is summed."""
    _check_cap(U.q, n)
    scale, ints = U.scaled_integer_entries
    table = _sum_table(ints, n)
    return scale, _expand_rows(table.T if observed else table, n, rows)


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
