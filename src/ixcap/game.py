"""Receiver strategies, sender best responses, and equilibrium verification
for the noiseless and noisy channels.  Bounds and brackets live in
``lower_bounds`` and ``upper_bounds``, the noisy-channel rate bracket
included; this module imports neither.

The pessimistic worst case over best responses never enumerates the
exponential response set: block utilities are separable per source sequence,
so a sequence survives every best response exactly when decoding it
truthfully is the sender's unique argmax among the strategy's image.  A tie
is adversarial and destroys the guarantee.  ``_survivors`` reads that rule
(``_rivalled``) on the |W| x |W| block of a set W, or on its letters when
W is a product L^n (``_unrivalled_letters``).  Every word of W survives
iff W is independent in G_s^n, so it checks the equilibrium's witness and
a caller's set alike, and the game reads no graph.  ``worst_case_decoded_set``
reads the rule off the per-source table of best responses.  Over a
noisy channel the truthful reports of x are the inputs whose every possible
output decodes to x, and x survives when every other input is dominated or
strictly worse; both analyses take any strategy.

Both analyses are sign tests on the exact integer block sums of
``utility._block_sums``, read only where the strategy needs them.  Over a
noisy channel each channel row is written as integers over its own
denominator, a positive rescaling per input sequence that keeps every sign
and every zero of the expected utility exact.  The memoryless channel's
q**n x q**n matrix is the n-th Kronecker power of its q x q matrix, and
``_apply_letters`` is the one way this module applies it or its support
pattern: n mode products, never the matrix.  A table with a q**n-wide row
per sequence (block sums, expected values) comes in the row blocks of
``utility._row_blocks``; a q**n x k table, k <= 4, is built whole.
``expected_block_utility`` is the Fraction reference definition of that
expected utility.

Strategies, decoded sets and witnesses are canonical sequence indices
throughout; only the JSON form of a strategy names its sequences, by
``utility.sequence_labels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .channel import Channel
from .errors import InputError, VerificationError
from .graphs import DEFAULT_NODE_BUDGET, _confusability_table, block_independence_number
from .utility import (
    UtilityMatrix,
    _block_sums,
    _check_cap,
    _product_words,
    _read_json,
    _row_blocks,
    block_utility,
    parse_integer,
    sequence_labels,
)


class _Dominated:
    """Sentinel for an expected utility forced to the error outcome.

    The error symbol is never preferred by the sender, so any input whose
    possible outputs include an undecoded one is strictly dominated; no
    extended-real arithmetic is ever performed."""

    __slots__ = ()

    def __repr__(self):
        return "DOMINATED"


DOMINATED = _Dominated()


@dataclass(frozen=True)
class ReceiverStrategy:
    """Decoding map on output sequences; None decodes to the error symbol."""

    n: int
    decode: tuple[int | None, ...]

    def image(self) -> tuple[int, ...]:
        return tuple(sorted({t for t in self.decode if t is not None}))

    def decoded_count(self) -> int:
        return sum(1 for t in self.decode if t is not None)


@dataclass(frozen=True)
class GameOutcome:
    decoded_worst: tuple[int, ...]
    decoded_size: int
    rate: float
    best_response_summary: tuple[tuple[int, ...], ...]


def naive_receiver_strategy(q: int, n: int) -> ReceiverStrategy:
    """Blind identity decoding of every output sequence, within the vertex cap."""
    return ReceiverStrategy(n, tuple(range(_check_cap(q, n))))


def receiver_strategy_from_set(U: UtilityMatrix, vertices, n: int,
                               ) -> ReceiverStrategy:
    """Identity on the given independent set W, error symbol elsewhere.
    ``_survivors`` checks W on its block sums or letters, with no graph:
    every word of W survives iff W is independent in G_s^n."""
    vs = tuple(sorted(set(vertices)))
    nv = _check_cap(U.q, n)
    for v in vs:
        if not 0 <= v < nv:
            raise InputError(f"sequence index {v} out of range for n={n}")
    if _survivors(U, n, vs) != vs:
        raise InputError("the set is not independent in the sender graph")
    return _strategy_on(vs, n, nv)


def _strategy_on(vs, n: int, nv: int) -> ReceiverStrategy:
    """Identity on vs among the nv words of X^n, unchecked."""
    decode = [None] * nv
    for v in vs:
        decode[v] = v
    return ReceiverStrategy(n, tuple(decode))


def _rivalled(sums: np.ndarray, words: np.ndarray, block: slice) -> np.ndarray:
    """The survivor rule on one row block: given the block's sums
    S[words[block], :], which words x some other word y of the block
    rivals, with S[y, x] >= 0.  A word survives every best response iff no
    block rivals it: decoding it truthfully is worth 0 (the zero diagonal),
    so another word worth 0 or more ties or beats it.  Only the words' own
    columns are read."""
    rival = sums.take(words, 1) >= 0
    rival.flat[block.start::len(words) + 1] = False  # cells (y, y) of the block's rows
    return rival.any(axis=0)


def _unrivalled_letters(t, letters) -> list[int]:
    """The survivor rule on the letters L of a product L^n: the letters b
    of L that no other letter a of L rivals, with t[a][b] >= 0, for t the
    integer table scale * u.  Only the |L| x |L| entries are read."""
    return [b for b in letters if all(t[a][b] < 0 for a in letters if a != b)]


def _survivors(U: UtilityMatrix, n: int, words) -> tuple[int, ...]:
    """The words, ascending distinct sequence indices, that ``_rivalled``
    finds no rival for.

    A product, the words equal to L^n for L their last letters, is read on
    its letters: its survivors are L'^n, L' the ``_unrivalled_letters`` of
    L, with no block sum taken.  A word x of L'^n differs from every other
    word y of L^n where t[y_k][x_k] < 0 and agrees elsewhere, adding the
    zero diagonal, so S[y, x] < 0.  A word x with a letter x_k = b outside
    L' is rivalled by the word y with that b replaced by the a of L with
    t[a][b] >= 0, since S[y, x] = t[a][b].  Any other set's block sums come
    in the row blocks of ``_row_blocks``, each reduced at the words'
    columns, so no |W| x q**n table is held whole."""
    q = U.q
    letters = sorted({w % q for w in words})
    if len(words) == len(letters) ** n and tuple(words) == _product_words(letters, q, n):
        return _product_words(_unrivalled_letters(U.scaled_integer_entries[1], letters), q, n)
    words = np.asarray(words, dtype=np.int64)
    rivalled = np.zeros(len(words), dtype=bool)
    for block in _row_blocks(len(words), q**n):
        rivalled |= _rivalled(_block_sums(U, n, words[block])[1], words, block)
    return tuple(words[~rivalled].tolist())


def worst_case_decoded_set(U: UtilityMatrix, g: ReceiverStrategy) -> GameOutcome:
    """Sequences recovered under *every* best response to the strategy.

    A source sequence x survives iff x is in the image and every other image
    element has strictly negative block utility against x; zero-utility
    alternatives are adversarial ties and disqualify x.  Truthful decoding
    is worth S[x, x] = 0, so that rule (``_rivalled``) reads off the table
    of best responses: x survives iff they are (x,) alone.

    ``best_response_summary`` lists every source's best responses for
    reports.  Each block raises the running column maxima over all q**n
    sources where it beats them, which drops the hits found before in
    those columns, and adds its own hits at the maxima.  CapExceededError
    above ``DEFAULT_VERTEX_CAP`` sequences, before any table is built.
    """
    n = g.n
    nv = _check_cap(U.q, n)
    if len(g.decode) != nv:
        raise InputError(f"strategy table has {len(g.decode)} entries, expected {nv}")
    image = np.asarray(g.image(), dtype=np.int64)
    summary = [()] * nv
    if len(image):
        top = None
        cols = rows = np.zeros(0, dtype=np.int64)
        for block in _row_blocks(len(image), nv):
            _, sums = _block_sums(U, n, image[block])
            block_top = sums.max(axis=0)
            if top is not None:
                kept = ~(block_top > top)[cols]
                cols, rows = cols[kept], rows[kept]
                block_top = np.maximum(top, block_top)
            top = block_top
            new_cols, new_rows = np.nonzero((sums == top).T)
            cols = np.concatenate([cols, new_cols])
            rows = np.concatenate([rows, new_rows + block.start])
        # the best responses to x are column x's hits, in image order
        order = np.argsort(cols, kind="stable")
        hits = image[rows[order]].tolist()
        ends = np.cumsum(np.bincount(cols, minlength=nv)).tolist()
        summary = [tuple(hits[a:b]) for a, b in zip([0, *ends], ends)]
    decoded = [x for x in image.tolist() if summary[x] == (x,)]
    size = len(decoded)
    return GameOutcome(
        decoded_worst=tuple(decoded),
        decoded_size=size,
        rate=size ** (1.0 / n),
        best_response_summary=tuple(summary),
    )


def equilibrium_value_noiseless(U: UtilityMatrix, n: int,
                                budget: int = DEFAULT_NODE_BUDGET
                                ) -> tuple[int, ReceiverStrategy]:
    """Worst-case optimal decoded count and a strategy achieving it.

    The count is the independence number of the blocklength-n sender graph,
    which ``graphs.independence_number`` searches between alpha(G_s)^n and
    the clique cover number of G_s^Sym to the n-th power once the graph has
    at least ``graphs.ORDERED_MIN_VERTICES`` vertices; ``budget`` bounds
    every search, the bounds' included.
    ``graphs.block_independence_number`` builds G_s^n from U's integer table
    only where its letters do not answer: when G_s has the rows of G_s^Sym
    and its two sides meet, G_s^n is never built.  The canonical witness set
    W is decoded identically and everything else maps to the error symbol.

    Before returning, the strategy is re-verified by ``_survivors`` from
    U, not from any graph: its survivors must be W and number alpha.
    Survival of every word is the same test as W's independence in G_s^n,
    so no graph is read here.  A product witness L^n, as every answer from
    the letters is, is read on its letters, |L| x |L| entries of U; any
    other W on the |W| x |W| block S[W, W] of its block sums.  No
    best-response table over X^n is built.
    """
    alpha, witness = block_independence_number(U.scaled_integer_entries[1], n, budget)
    strategy = _strategy_on(witness, n, U.q**n)
    decoded = _survivors(U, n, strategy.image())
    if len(decoded) != alpha or decoded != witness:
        raise VerificationError("equilibrium verification failed")
    return alpha, strategy


def _letter_supports(channel: Channel, dtype) -> np.ndarray:
    """The q x q table s1[y, z] = 1 iff P(z | y) > 0."""
    return (np.array(channel.support)[:, None] >> np.arange(channel.q) & 1).astype(dtype)


def output_support_indices(channel: Channel, y_index: int, n: int) -> frozenset[int]:
    """Indices of output sequences reachable from input sequence y, for a
    blocklength n >= 1 within the vertex cap."""
    nv = _check_cap(channel.q, n)
    if not 0 <= y_index < nv:
        raise InputError(f"input sequence index out of range for n={n}")
    onehot = np.arange(nv) == y_index
    reach = _apply_letters(_letter_supports(channel, np.int64).T, n, onehot)
    return frozenset(np.flatnonzero(reach).tolist())


def expected_block_utility(U: UtilityMatrix, channel: Channel,
                           g: ReceiverStrategy, y_index: int, x_index: int,
                           n: int):
    """Exact expected utility of sending y when the source is x, under the
    memoryless product channel; DOMINATED when some possible output decodes
    to the error symbol."""
    q = U.q
    if q != channel.q:
        raise InputError("utility and channel alphabets differ in size")
    nv = _check_cap(q, n)

    def letters(index: int) -> list[int]:
        if not 0 <= index < nv:
            raise InputError(f"sequence index {index} out of range for q={q}, n={n}")
        return [index // q**k % q for k in reversed(range(n))]

    y, x = letters(y_index), letters(x_index)
    total = Fraction(0)
    for z_index in sorted(output_support_indices(channel, y_index, n)):
        target = g.decode[z_index]
        if target is None:
            return DOMINATED
        prob = Fraction(1)
        for zi, yi in zip(letters(z_index), y):
            prob *= channel.prob(zi, yi)
        total += prob * block_utility(U, letters(target), x)
    return total


def noisy_receiver_strategy(I_s, I_c, channel: Channel, n: int
                            ) -> ReceiverStrategy:
    """Partition decoder: each distinguishable input's output support maps to
    one protected source sequence, everything else to the error symbol.

    Pairing is by ascending canonical index on both sides; the expected
    utilities do not depend on the pairing choice.  One ``_apply_letters``
    product of marks that hold 1 and the rank from 1 at each input, 0
    elsewhere, gives every output the count of inputs that reach it and,
    where that is 1, the input's rank; a count above 1 is an overlap.
    Refuses a blocklength below 1, and q**n above the vertex cap.
    """
    xs, ys = sorted(I_s), sorted(I_c)
    if len(xs) != len(ys):
        raise InputError(f"set sizes differ: {len(xs)} protected vs {len(ys)} inputs")
    nv = _check_cap(channel.q, n)
    # numpy would read a negative index from the far end
    for what, words in (("protected", xs), ("input", ys)):
        if words and not 0 <= words[0] <= words[-1] < nv:
            raise InputError(f"{what} sequence index out of range for n={n}")
    marks = np.zeros((nv, 2), dtype=np.int64)
    np.add.at(marks[:, 0], ys, 1)
    marks[ys, 1] = np.arange(1, len(ys) + 1)
    count, rank = _apply_letters(_letter_supports(channel, np.int64).T, n, marks).T
    if (count > 1).any():
        raise InputError(
            "input supports overlap; the input set is not independent "
            "in the confusability graph"
        )
    return ReceiverStrategy(n, tuple(xs[r - 1] if r else None for r in rank.tolist()))


def _apply_letters(w1: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    """The product (w1 ⊗ ... ⊗ w1) @ x, n factors, for x with q**n rows in
    canonical order, one letter at a time: letter k's mode product is one
    matmul of w1 with x viewed as (q**k, q, rest), so the q**n x q**n
    Kronecker power is never formed.  A table with nonnegative rows summing
    to at most d keeps every intermediate within d**k * max|x| after k
    letters; the dtypes carry through, so object arrays compute in Python
    ints."""
    q = w1.shape[0]
    for k in range(n):
        x = np.matmul(w1, x.reshape(q**k, q, -1))
    return x.reshape(q**n, -1)


def _sole_targets(channel: Channel, decode: np.ndarray, error: np.ndarray, n: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per input sequence, the one target that all its possible outputs
    decode to, q**n when two of them differ or one is undecoded; and
    whether one is undecoded.  ``decode`` holds each output's target and
    ``error`` marks the outputs decoded to the error symbol.

    One ``_apply_letters`` product of the support pattern sums, over each
    input's outputs, 1, the error mark, the target t and t**2.  With c the
    floor of the mean target, the targets all equal c iff their sum is c
    times their count and the sum of t**2 is c times their sum, that is iff
    the sum of (t - c)**2 is zero.  Every sum is below q**(3n), and q**n
    is within ``DEFAULT_VERTEX_CAP``, whose cube is below 2**53, so float64
    adds them exactly.
    """
    nv = len(decode)
    moments = np.ones((nv, 4))
    moments[:, 1], moments[:, 2], moments[:, 3] = error, decode, decode * decode
    count, errors, total, squares = _apply_letters(
        _letter_supports(channel, np.float64), n, moments).T
    sole = total // count
    dominated = errors > 0
    single = ~dominated & (sole * count == total) & (sole * total == squares)
    return np.where(single, sole, nv).astype(np.int64), dominated


def verify_noisy_equilibrium(U: UtilityMatrix, channel: Channel,
                             g: ReceiverStrategy) -> GameOutcome:
    """Sources recovered under *every* best response to any strategy over a
    noisy channel: the worst-case analysis ``worst_case_decoded_set`` makes
    over a noiseless one.

    An input whose possible outputs all decode to x has expected utility
    exactly 0 against x, the diagonal's.  So x survives iff some input
    decodes wholly to x and every input is dominated (reaches an undecoded
    output), strictly negative against x, or also decodes wholly to x; the
    inputs decoding wholly to x are then x's best responses.
    ``best_response_summary[x]`` lists them, ascending, for each recovered
    x, and is empty for every other source.

    Each input's sole target comes from ``_sole_targets``, and only the
    sources xs that some input decodes wholly to are valued.  The expected
    values are W @ m with m[z, j] = S[decode(z), xs[j]], applied by
    ``_apply_letters`` to column blocks of q**n cells per source, cut by
    ``_row_blocks``.  Each channel row is written as integers over its own
    denominator d_y, a positive rescaling per input that keeps every sign,
    so W is integral; the products run in int64 when (max d)**n * max|m| <
    2**62 bounds them, else in Python ints.  CapExceededError above
    ``DEFAULT_VERTEX_CAP`` sequences, before any table is built.
    """
    q, n = U.q, g.n
    if channel.q != q:
        raise InputError("utility and channel alphabets differ in size")
    nv = _check_cap(q, n)
    if len(g.decode) != nv:
        raise InputError(f"strategy table has {len(g.decode)} entries, expected {nv}")
    error = np.array([t is None for t in g.decode])
    decode = np.array([0 if t is None else t for t in g.decode], dtype=np.int64)
    if decode.min() < 0 or decode.max() >= nv:
        raise InputError(f"decoded sequence index out of range for n={n}")

    sole, dominated = _sole_targets(channel, decode, error, n)
    # the sources xs that some input decodes wholly to, and those inputs
    truthful: dict[int, list[int]] = {}
    wholly = np.flatnonzero(sole < nv)
    for y, x in zip(wholly.tolist(), sole[wholly].tolist()):
        truthful.setdefault(x, []).append(y)
    xs = sorted(truthful)
    # channel row y over its own denominator d_y, so W[y, z] = P^n(z|y) *
    # prod_k d_{y_k} is an integer no larger than (max d)**n
    dens = [lcm(*(p.denominator for p in row)) for row in channel.rows]
    w1 = [[p.numerator * (d // p.denominator) for p in row]
          for row, d in zip(channel.rows, dens)]
    survives = np.zeros(len(xs), dtype=bool)
    # m, a letter product's intermediate and value are alive at once
    for block in _row_blocks(len(xs), 3 * nv):
        # outputs decoded to the error symbol read a stand-in block sum;
        # every input that reaches one is dominated whatever its value
        m = _block_sums(U, n, xs[block], observed=True)[1].T[decode]
        big = max(dens) ** n * max(1, int(abs(m).max(initial=0))) >= 2**62
        w = np.array(w1, dtype=object if big else np.int64)
        value = _apply_letters(w, n, m.astype(object) if big else m)
        ok = dominated[:, None] | (value < 0) | (sole[:, None] == xs[block])
        survives[block] = ok.all(axis=0)
    decoded = [x for x, ok in zip(xs, survives.tolist()) if ok]
    summary = [()] * nv
    for x in decoded:
        summary[x] = tuple(truthful[x])
    size = len(decoded)
    return GameOutcome(
        decoded_worst=tuple(decoded),
        decoded_size=size,
        rate=size ** (1.0 / n),
        best_response_summary=tuple(summary),
    )


def noisy_equilibrium_value(U: UtilityMatrix, channel: Channel, n: int,
                            budget: int = DEFAULT_NODE_BUDGET
                            ) -> tuple[int, ReceiverStrategy]:
    """Equilibrium decoded count over a noisy channel: the smaller of the
    sender-graph and confusability-graph independence numbers, achieved by
    the partition decoder, whose decoded set ``verify_noisy_equilibrium``
    must find to be the sender graph's witness.  Each
    independence number is searched within its own ``budget`` nodes, and
    between the bounds of its graph's letter table once the graph is large
    enough (G_s and G_s^Sym for G_s^n, G_c on both sides for G_c^n; see
    ``graphs.independence_number``).  Each side is
    ``graphs.block_independence_number`` of its letter table, U's integer
    table or the channel's 0/-1 table, which answers from the letters alone,
    with no graph built, when its two bases meet and agree: G_c^n whenever
    alpha(G_c) is G_c's clique cover number, G_s^n as in
    ``equilibrium_value_noiseless``.

    Every path is checked the same way: the partition decoder refuses
    inputs whose output supports overlap, so the channel witness is
    independent in G_c^n, and ``verify_noisy_equilibrium`` recovers the
    sender witness from U.  Either refusal of the library's own witnesses
    is a VerificationError."""
    if channel.q != U.q:
        raise InputError("utility and channel alphabets differ in size")
    alpha_s, wit_s = block_independence_number(U.scaled_integer_entries[1], n, budget)
    alpha_c, wit_c = block_independence_number(_confusability_table(channel), n, budget)
    d = min(alpha_s, alpha_c)
    try:
        strategy = noisy_receiver_strategy(wit_s[:d], wit_c[:d], channel, n)
    except InputError as exc:
        raise VerificationError(f"noisy equilibrium verification failed: {exc}") from exc
    if verify_noisy_equilibrium(U, channel, strategy).decoded_worst != wit_s[:d]:
        raise VerificationError("noisy equilibrium verification failed")
    return d, strategy


def strategy_to_json_dict(U: UtilityMatrix, g: ReceiverStrategy) -> dict:
    labels = sequence_labels(U.alphabet, g.n)
    decode = {
        labels[z]: "DELTA" if target is None else labels[target]
        for z, target in enumerate(g.decode)
    }
    return {"n": g.n, "decode": decode}


def strategy_from_json_dict(U: UtilityMatrix, obj) -> ReceiverStrategy:
    if not isinstance(obj, dict) or not isinstance(obj.get("decode"), dict) or "n" not in obj:
        raise InputError('strategy JSON must be an object with "n" and a "decode" object')
    n = parse_integer(obj["n"], "strategy blocklength")
    if n < 1:
        raise InputError("strategy blocklength must be at least 1")
    nv = _check_cap(U.q, n)
    label_to_index = {label: i for i, label in enumerate(sequence_labels(U.alphabet, n))}
    decode: list[int | None] = [None] * nv
    for z_label, t_label in obj["decode"].items():
        if z_label not in label_to_index:
            raise InputError(f"unknown output sequence label {z_label!r}")
        z = label_to_index[z_label]
        if t_label == "DELTA":
            decode[z] = None
        elif isinstance(t_label, str) and t_label in label_to_index:
            decode[z] = label_to_index[t_label]
        else:
            raise InputError(f"unknown decoded sequence label {t_label!r}")
    # distinct keys, each a known label, name distinct outputs
    missing = nv - len(obj["decode"])
    if missing:
        raise InputError(f"strategy table is missing {missing} output sequences")
    return ReceiverStrategy(n, tuple(decode))


def load_strategy(U: UtilityMatrix, path) -> ReceiverStrategy:
    return strategy_from_json_dict(U, _read_json(path, "strategy"))
