"""Receiver strategies, sender best responses, and equilibrium verification
for the noiseless and noisy channels.

The pessimistic worst case over best responses never enumerates the
exponential response set: block utilities are separable per source sequence,
so a sequence survives every best response exactly when decoding it
truthfully is the sender's unique argmax among the strategy's image.  A tie
is adversarial and destroys the guarantee.

Both verifications are sign tests on the exact integer block sums of
``utility.block_sums``, read only for the rows the strategy decodes to.
Over a noisy channel each channel row is written as integers over its own
denominator, a positive rescaling per input sequence that keeps every sign
and every zero of the expected utility exact.  ``expected_block_utility`` is
the Fraction reference definition of that expected utility.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import lcm
from pathlib import Path

import numpy as np

from .channel import Channel
from .errors import (
    BudgetExceededError,
    CapExceededError,
    ConvergenceError,
    InputError,
    VerificationError,
)
from .graphs import (
    DEFAULT_NODE_BUDGET,
    Graph,
    IndependentSetWitness,
    confusability_graph,
    independence_number,
    is_independent,
    sender_graph,
)
from .theta import MAX_VERTICES, lovasz_theta
from .upper_bounds import CapacityBracket, ExactValue, xi_bracket
from .utility import (
    BLOCK_CELLS,
    BlockSequence,
    UtilityMatrix,
    _expand_rows,
    block_sums,
    block_utility,
    sequence_label,
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
    """Blind identity decoding of every output sequence."""
    return ReceiverStrategy(n, tuple(range(q**n)))


def receiver_strategy_from_set(U: UtilityMatrix, vertices, n: int,
                               ) -> ReceiverStrategy:
    """Identity on the given independent set, error symbol elsewhere."""
    if isinstance(vertices, IndependentSetWitness):
        vertices = vertices.vertices
    vs = sorted(set(vertices))
    nv = U.q**n
    for v in vs:
        if not 0 <= v < nv:
            raise InputError(f"sequence index {v} out of range for n={n}")
    return _strategy_on(sender_graph(U, n), vs, n)


def _strategy_on(gs: Graph, vs, n: int) -> ReceiverStrategy:
    """Identity on vs, checked independent in the sender graph gs."""
    if not is_independent(gs, vs):
        raise InputError("the set is not independent in the sender graph")
    decode = [None] * gs.n_vertices
    for v in vs:
        decode[v] = v
    return ReceiverStrategy(n, tuple(decode))


def worst_case_decoded_set(U: UtilityMatrix, g: ReceiverStrategy) -> GameOutcome:
    """Sequences recovered under *every* best response to the strategy.

    A source sequence x survives iff x is in the image and every other image
    element has strictly negative block utility against x; zero-utility
    alternatives are adversarial ties and disqualify x.
    """
    n = g.n
    nv = U.q**n
    if len(g.decode) != nv:
        raise InputError(f"strategy table has {len(g.decode)} entries, expected {nv}")
    image = g.image()
    summary = [()] * nv
    if image:
        _, sums = block_sums(U, n, image)
        best = sums == sums.max(axis=0)
        summary = [tuple(t for t, hit in zip(image, col) if hit)
                   for col in best.T.tolist()]
    decoded = [x for x in image if summary[x] == (x,)]
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

    The count is the independence number of the blocklength-n sender graph;
    the canonical witness set is decoded identically and everything else maps
    to the error symbol.  The construction is re-verified via the worst-case
    best-response analysis before returning.
    """
    g = sender_graph(U, n)
    alpha, witness = independence_number(g, budget=budget)
    strategy = _strategy_on(g, witness.vertices, n)
    outcome = worst_case_decoded_set(U, strategy)
    if outcome.decoded_size != alpha or set(outcome.decoded_worst) != set(witness.vertices):
        raise VerificationError("equilibrium verification failed")
    return alpha, strategy


def _product_support(channel: Channel, y_symbols) -> list[tuple[int, ...]]:
    per_letter = [channel.support_set(sym) for sym in y_symbols]
    return list(iter_product(*per_letter))


def _sequence_index(q: int, symbols) -> int:
    idx = 0
    for s in symbols:
        idx = idx * q + s
    return idx


def output_support_indices(channel: Channel, y_index: int, n: int) -> frozenset[int]:
    """Indices of output sequences reachable from input sequence y."""
    q = channel.q
    y = BlockSequence.from_index(q, n, y_index).symbols
    return frozenset(_sequence_index(q, z) for z in _product_support(channel, y))


def expected_block_utility(U: UtilityMatrix, channel: Channel,
                           g: ReceiverStrategy, y_index: int, x_index: int,
                           n: int):
    """Exact expected utility of sending y when the source is x, under the
    memoryless product channel; DOMINATED when some possible output decodes
    to the error symbol."""
    q = U.q
    if U.alphabet.q != channel.alphabet.q:
        raise InputError("utility and channel alphabets differ in size")
    y = BlockSequence.from_index(q, n, y_index).symbols
    x = BlockSequence.from_index(q, n, x_index).symbols
    total = Fraction(0)
    for z in _product_support(channel, y):
        z_index = _sequence_index(q, z)
        target = g.decode[z_index]
        if target is None:
            return DOMINATED
        prob = Fraction(1)
        for zi, yi in zip(z, y):
            prob *= channel.prob(zi, yi)
        t_symbols = BlockSequence.from_index(q, n, target).symbols
        total += prob * block_utility(U, t_symbols, x)
    return total


def noisy_receiver_strategy(I_s, I_c, channel: Channel, n: int
                            ) -> ReceiverStrategy:
    """Partition decoder: each distinguishable input's output support maps to
    one protected source sequence, everything else to the error symbol.

    Pairing is by ascending canonical index on both sides; the expected
    utilities do not depend on the pairing choice.
    """
    xs = sorted(I_s.vertices if isinstance(I_s, IndependentSetWitness) else I_s)
    ys = sorted(I_c.vertices if isinstance(I_c, IndependentSetWitness) else I_c)
    if len(xs) != len(ys):
        raise InputError(f"set sizes differ: {len(xs)} protected vs {len(ys)} inputs")
    q = channel.q
    nv = q**n
    decode: list[int | None] = [None] * nv
    for x, y in zip(xs, ys):
        for z in output_support_indices(channel, y, n):
            if decode[z] is not None:
                raise InputError(
                    "input supports overlap; the input set is not independent "
                    "in the confusability graph"
                )
            decode[z] = x
    return ReceiverStrategy(n, tuple(decode))


def verify_noisy_equilibrium(U: UtilityMatrix, channel: Channel,
                             g: ReceiverStrategy, xs, ys, n: int) -> bool:
    """Per-alternative-input dominance check for the partition strategy.

    For each protected source x paired with input y*, every alternative input
    is either dominated (can hit an undecoded output), strictly worse, or has
    its support inside y*'s support with expected utility exactly zero, so
    truthful signalling is forced and x is recovered under every best
    response.
    """
    q = U.q
    if channel.q != q:
        raise InputError("utility and channel alphabets differ in size")
    nv = q**n
    if len(g.decode) != nv:
        raise InputError(f"strategy table has {len(g.decode)} entries, expected {nv}")
    pairs = list(zip(xs, ys))
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    if any(not 0 <= x < nv for x in xs):
        raise InputError(f"protected sequence index out of range for n={n}")
    image = g.image()
    _, sums = block_sums(U, n, image)
    # m[z, j] = S[decode(z), xs[j]]; outputs decoded to the error symbol read
    # the extra zero row and are caught as dominated instead
    cols = np.vstack([sums[:, xs], np.zeros((1, len(xs)), dtype=sums.dtype)])
    where = {t: i for i, t in enumerate(image)}
    m = cols[[where.get(t, len(image)) for t in g.decode]]
    error = np.array([t is None for t in g.decode])

    # channel row y over its own denominator d_y, so W[y, z] = P^n(z|y) *
    # prod_k d_{y_k} is an integer no larger than (max d)**n
    dens = [lcm(*(p.denominator for p in row)) for row in channel.rows]
    w1 = [[int(p * d) for p in row] for row, d in zip(channel.rows, dens)]
    big = max(dens) ** n * max(1, int(abs(m).max(initial=0))) >= 2**62
    w1 = np.array(w1, dtype=object if big else np.int64)
    if big:
        m = m.astype(object)
    star = _expand_rows(w1, n, ys, np.multiply) > 0

    step = max(1, BLOCK_CELLS // nv)
    for start in range(0, nv, step):
        w = _expand_rows(w1, n, range(start, min(start + step, nv)), np.multiply)
        value = w @ m
        support = w > 0
        dominated = support[:, error].any(axis=1)
        inside = ~(support @ ~star.T)
        ok = dominated[:, None] | (value < 0) | ((value == 0) & inside)
        if not ok.all():
            return False
    return True


def noisy_equilibrium_value(U: UtilityMatrix, channel: Channel, n: int,
                            budget: int = DEFAULT_NODE_BUDGET
                            ) -> tuple[int, ReceiverStrategy]:
    """Equilibrium decoded count over a noisy channel: the smaller of the
    sender-graph and confusability-graph independence numbers, achieved by
    the partition decoder and verified by the dominance check."""
    gs = sender_graph(U, n)
    alpha_s, wit_s = independence_number(gs, budget=budget)
    gc = confusability_graph(channel, n)
    alpha_c, wit_c = independence_number(gc, budget=budget)
    d = min(alpha_s, alpha_c)
    xs = wit_s.vertices[:d]
    ys = wit_c.vertices[:d]
    strategy = noisy_receiver_strategy(xs, ys, channel, n)
    if not verify_noisy_equilibrium(U, channel, strategy, xs, ys, n):
        raise VerificationError("noisy equilibrium verification failed")
    return d, strategy


def asymptotic_rate_bracket(U: UtilityMatrix, channel: Channel, n_max: int = 2,
                            tol: float = 1e-3,
                            budget: int = DEFAULT_NODE_BUDGET) -> CapacityBracket:
    """Bracket on the noisy-channel extraction rate: the elementwise minimum
    of the capacity bracket and the channel's zero-error capacity bracket,
    with the sender-side and channel-side closure rules applied when the
    certificates permit.  The channel side is closed when the capacity's
    certified lower bound already reaches the channel's zero-error ceiling.
    An alpha(G_c^n) search that exhausts its budget, or a theta(G_c) that
    does not converge or has more vertices than the solver takes, is skipped
    with a warning, so the channel bounds fall back to 1 and the alphabet
    size."""
    xi = xi_bracket(U, n_max=n_max, tol=tol, node_budget=budget)
    warnings = list(xi.warnings)

    gc_lower, gc_lower_cert = 1.0, {"name": "trivial", "n": 1}
    for n in range(1, n_max + 1):
        try:
            alpha, wit = independence_number(confusability_graph(channel, n), budget=budget)
        except (BudgetExceededError, CapExceededError) as exc:
            warnings.append(f"alpha(G_c^{n}) skipped: {exc}")
            continue
        value = alpha ** (1.0 / n)
        if value > gc_lower:
            gc_lower = value
            gc_lower_cert = {
                "name": "alpha_confusability_power", "n": n, "alpha": alpha,
                "witness": list(wit.labels or wit.vertices),
            }
    gc_upper, gc_upper_cert = float(U.q), {"name": "alphabet_size", "q": U.q}
    base_c = confusability_graph(channel, 1)
    if base_c.n_vertices > MAX_VERTICES:
        warnings.append(f"theta(G_c) skipped: {base_c.n_vertices} vertices exceed "
                        f"the solver's limit of {MAX_VERTICES}")
    else:
        try:
            theta_c = lovasz_theta(base_c, tol=min(tol, 1e-3))
            if theta_c + tol <= gc_upper:
                gc_upper, gc_upper_cert = theta_c + tol, {
                    "name": "theta_confusability", "theta": theta_c, "tol": tol,
                }
        except ConvergenceError as exc:
            warnings.append(f"theta(G_c) did not converge: {exc}")

    if xi.lower <= gc_lower:
        lower, lower_cert = xi.lower, xi.lower_certificate
    else:
        lower, lower_cert = gc_lower, gc_lower_cert
    if xi.upper <= gc_upper:
        upper, upper_cert = xi.upper, xi.upper_certificate
    else:
        upper, upper_cert = gc_upper, gc_upper_cert

    exact: ExactValue | None = None
    if xi.exact is not None and xi.exact.value <= gc_lower + 1e-12:
        # capacity side closes and the channel certifiably carries it
        exact = xi.exact
    elif xi.lower >= gc_upper:
        # channel side closes: the capacity's certified lower bound already
        # reaches the channel's certified zero-error ceiling
        lower, lower_cert = gc_lower, gc_lower_cert
        upper, upper_cert = gc_upper, gc_upper_cert
        t = round(gc_lower)
        if t == gc_lower and gc_upper - t <= 2 * tol:
            exact = ExactValue(t, 1)

    return CapacityBracket(
        lower=lower,
        lower_certificate=lower_cert,
        upper=upper,
        upper_certificate=upper_cert,
        tol=tol,
        exact=exact,
        warnings=tuple(warnings),
    )


def strategy_to_json_dict(U: UtilityMatrix, g: ReceiverStrategy) -> dict:
    q = U.q
    decode = {}
    for z, target in enumerate(g.decode):
        z_label = sequence_label(U.alphabet, BlockSequence.from_index(q, g.n, z).symbols)
        if target is None:
            decode[z_label] = "DELTA"
        else:
            decode[z_label] = sequence_label(
                U.alphabet, BlockSequence.from_index(q, g.n, target).symbols)
    return {"n": g.n, "decode": decode}


def strategy_from_json_dict(U: UtilityMatrix, obj) -> ReceiverStrategy:
    if not isinstance(obj, dict) or "n" not in obj or "decode" not in obj:
        raise InputError('strategy JSON must be an object with "n" and "decode"')
    n = int(obj["n"])
    q = U.q
    nv = q**n
    label_to_index = {
        sequence_label(U.alphabet, BlockSequence.from_index(q, n, i).symbols): i
        for i in range(nv)
    }
    decode: list[int | None] = [None] * nv
    seen = set()
    for z_label, t_label in obj["decode"].items():
        if z_label not in label_to_index:
            raise InputError(f"unknown output sequence label {z_label!r}")
        z = label_to_index[z_label]
        seen.add(z)
        if t_label == "DELTA":
            decode[z] = None
        elif t_label in label_to_index:
            decode[z] = label_to_index[t_label]
        else:
            raise InputError(f"unknown decoded sequence label {t_label!r}")
    missing = nv - len(seen)
    if missing:
        raise InputError(f"strategy table is missing {missing} output sequences")
    return ReceiverStrategy(n, tuple(decode))


def load_strategy(U: UtilityMatrix, path) -> ReceiverStrategy:
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read strategy file {path}: {exc}") from exc
    return strategy_from_json_dict(U, obj)
