"""Differential tests of the game layer against Fraction brute force on tiny
instances (q <= 4, n <= 2), and the named verification failure."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ixcap.game
from conftest import (
    oracle_alpha,
    oracle_block_sums,
    oracle_sender_edges,
    random_int_utility,
    random_utility,
)
from ixcap.channel import identity_channel, make_channel
from ixcap.cli import corpus_path, main
from ixcap.errors import ConvergenceError, InputError, VerificationError
from ixcap.game import (
    DOMINATED,
    GameOutcome,
    ReceiverStrategy,
    asymptotic_rate_bracket,
    equilibrium_value_noiseless,
    expected_block_utility,
    noisy_equilibrium_value,
    output_support_indices,
    receiver_strategy_from_set,
    verify_noisy_equilibrium,
    worst_case_decoded_set,
)
from ixcap.graphs import (
    confusability_graph,
    cycle_graph,
    graph_from_edges,
    independence_number,
    sender_graph,
)
from ixcap.upper_bounds import xi_bracket
from ixcap.utility import Alphabet, utility_from_graph, utility_from_json

SIZES = st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)])


def random_channel(rng, q: int):
    """Rows supported on one or two outputs with random rational weights."""
    rows = []
    for _ in range(q):
        weights = {z: rng.randint(1, 4) for z in rng.sample(range(q), rng.randint(1, 2))}
        total = sum(weights.values())
        rows.append([Fraction(weights.get(z, 0), total) for z in range(q)])
    return make_channel(Alphabet.of_size(q), rows)


def reference_verify(U, channel, g, xs, ys, n) -> bool:
    """The dominance check evaluated through the Fraction expected utility."""
    nv = U.q**n
    supports = {y: output_support_indices(channel, y, n) for y in range(nv)}
    for x, y_star in zip(xs, ys):
        for y in range(nv):
            value = expected_block_utility(U, channel, g, y, x, n)
            if value is DOMINATED or value < 0:
                continue
            if value == 0 and supports[y] <= supports[y_star]:
                continue
            return False
    return True


def noisy_pairs(U, channel, n, d):
    """The protected sequences and inputs noisy_equilibrium_value pairs up."""
    _, wit_s = independence_number(sender_graph(U, n))
    _, wit_c = independence_number(confusability_graph(channel, n))
    return list(wit_s.vertices[:d]), list(wit_c.vertices[:d])


class TestWorstCaseDecodedSet:
    @given(SIZES, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_brute_force(self, size, rng):
        q, n = size
        U = random_utility(rng, q)
        nv = q**n
        g = ReceiverStrategy(n, tuple(rng.choice([None, *range(nv)]) for _ in range(nv)))
        image = sorted({t for t in g.decode if t is not None})
        sums = oracle_block_sums(U, n, image)
        summary = []
        for x in range(nv):
            column = [row[x] for row in sums]
            best = max(column, default=None)
            summary.append(tuple(t for t, v in zip(image, column) if v == best))
        decoded = tuple(x for x in image if summary[x] == (x,))

        outcome = worst_case_decoded_set(U, g)
        assert outcome.best_response_summary == tuple(summary)
        assert outcome.decoded_worst == decoded
        assert outcome.decoded_size == len(decoded)


def pessimistic_score(sums, decode) -> int:
    """The paper's pessimistic count of a receiver map (output -> decoded
    sequence, None for the error symbol) over a noiseless channel: source x
    counts only if every output that maximises the sender's block utility
    against x decodes to x.  The sender never prefers the error symbol, so
    undecoded outputs are never best responses."""
    count = 0
    for x in range(len(decode)):
        values = {z: sums[t][x] for z, t in enumerate(decode) if t is not None}
        if values:
            best = max(values.values())
            count += all(decode[z] == x for z, v in values.items() if v == best)
    return count


class TestEquilibriumAgainstEveryReceiver:
    """equilibrium_value_noiseless is the best pessimistic count over every
    receiver map X^n -> X^n + {error}."""

    @pytest.mark.parametrize("q, n", [(2, 1), (3, 1), (4, 1), (2, 2)])
    def test_value_is_best_score(self, q, n):
        rng = random.Random(131 + 10 * q + n)
        nv = q**n
        maps = list(product([None, *range(nv)], repeat=nv))
        for trial in range(4):
            U = (random_int_utility if trial % 2 else random_utility)(rng, q)
            sums = oracle_block_sums(U, n)
            best = max(pessimistic_score(sums, decode) for decode in maps)
            value, strategy = equilibrium_value_noiseless(U, n)
            assert value == best
            assert pessimistic_score(sums, strategy.decode) == value

    def test_example1(self, example1):
        # blind identity decoding recovers one symbol, the equilibrium two
        sums = oracle_block_sums(example1, 1)
        assert pessimistic_score(sums, (0, 1, 2)) == 1
        value, strategy = equilibrium_value_noiseless(example1, 1)
        assert value == pessimistic_score(sums, strategy.decode) == 2


class TestReceiverStrategyFromSet:
    def test_matches_the_equilibrium_strategy(self, pentagon):
        value, strategy = equilibrium_value_noiseless(pentagon, 2)
        assert receiver_strategy_from_set(pentagon, strategy.image(), 2) == strategy
        assert strategy.decoded_count() == value

    def test_rejects_a_dependent_set(self, example1):
        g = sender_graph(example1, 1)
        u, v = next(g.edges())
        with pytest.raises(InputError):
            receiver_strategy_from_set(example1, [u, v], 1)
        with pytest.raises(InputError):
            receiver_strategy_from_set(example1, [example1.q], 1)

    def test_equilibrium_builds_the_sender_graph_once(self, monkeypatch, pentagon):
        calls = []
        build = ixcap.game.sender_graph
        monkeypatch.setattr(ixcap.game, "sender_graph",
                            lambda *args: calls.append(args) or build(*args))
        equilibrium_value_noiseless(pentagon, 2)
        assert len(calls) == 1


class TestNoisyVerification:
    @given(SIZES, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop(self, size, rng):
        q, n = size
        nv = q**n
        U = random_utility(rng, q)
        channel = random_channel(rng, q)
        d, strategy = noisy_equilibrium_value(U, channel, n)
        xs, ys = noisy_pairs(U, channel, n, d)
        assert verify_noisy_equilibrium(U, channel, strategy, xs, ys, n)
        assert reference_verify(U, channel, strategy, xs, ys, n)

        # arbitrary perturbations: both checks agree, whichever way
        for _ in range(4):
            decode = list(strategy.decode)
            decode[rng.randrange(nv)] = rng.choice([None, *range(nv)])
            g = ReceiverStrategy(n, tuple(decode))
            assert verify_noisy_equilibrium(U, channel, g, xs, ys, n) == \
                reference_verify(U, channel, g, xs, ys, n)

        # decoding all of an input's outputs to x gives that input expected
        # utility exactly zero; outside y*'s support that must be rejected
        x, y_star = xs[0], ys[0]
        supports = [output_support_indices(channel, y, n) for y in range(nv)]
        outside = [y for y in range(nv) if not supports[y] <= supports[y_star]]
        if outside:
            decode = list(strategy.decode)
            for z in supports[rng.choice(outside)]:
                decode[z] = x
            g = ReceiverStrategy(n, tuple(decode))
            assert not verify_noisy_equilibrium(U, channel, g, xs, ys, n)
            assert not reference_verify(U, channel, g, xs, ys, n)

    def test_zero_utility_needs_domination_or_inclusion(self):
        # every misreport is a tie, so only the undecoded output protects x
        U = utility_from_json({"utility": [[0, 0], [0, 0]]})
        channel = identity_channel(Alphabet.of_size(2))
        guarded = ReceiverStrategy(1, (0, None))
        open_ = ReceiverStrategy(1, (0, 0))
        assert verify_noisy_equilibrium(U, channel, guarded, [0], [0], 1)
        assert not verify_noisy_equilibrium(U, channel, open_, [0], [0], 1)

    @pytest.mark.parametrize("unit", [1, 2**40, 2**70])
    def test_outputs_weighed_by_probability(self, unit):
        # input 1 reaches output 1 (decoded to 1, utility 3 against source 0)
        # and output 2 (decoded to 2, utility -2): the sign of the expected
        # utility 3*p - 2*(1 - p) follows the probability p of output 1.
        # With denominators 2**30, a unit of 2**40 keeps the block sums in
        # int64 but not their products with the channel rows, and 2**70
        # leaves int64 already in the block sums
        U = utility_from_json({"utility": [[0, -unit, -unit], [3 * unit, 0, -unit],
                                           [-2 * unit, -unit, 0]]})
        g = ReceiverStrategy(1, (0, 1, 2))
        for p, accepted in ((Fraction(2**30 // 3, 2**30), True),
                            (Fraction(2**31 // 3, 2**30), False)):
            channel = make_channel(Alphabet.of_size(3),
                                   [[1, 0, 0], [0, p, 1 - p], [0, 0, 1]])
            assert verify_noisy_equilibrium(U, channel, g, [0], [0], 1) is accepted
            assert reference_verify(U, channel, g, [0], [0], 1) is accepted

    @given(SIZES, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_value_is_min_of_alphas(self, size, rng):
        q, n = size
        U = random_utility(rng, q)
        channel = random_channel(rng, q)
        sender = graph_from_edges(q**n, sorted(oracle_sender_edges(U, n)))
        seqs = list(product(range(q), repeat=n))
        confusable = [
            (a, b) for a in range(len(seqs)) for b in range(a + 1, len(seqs))
            if all(channel.support[i] & channel.support[j] for i, j in zip(seqs[a], seqs[b]))
        ]
        confusability = graph_from_edges(q**n, confusable)
        d, _ = noisy_equilibrium_value(U, channel, n)
        assert d == min(oracle_alpha(sender)[0], oracle_alpha(confusability)[0])


class TestAsymptoticRateBracket:
    # confusability graph K2 + K3: alpha = theta = 2, below the pentagon's
    # certified lower bound sqrt(5) but above its Gamma(U) = 2 - tol
    K2_K3 = [[1, 0, 0, 0, 0]] * 2 + [[0, 0, 1, 0, 0]] * 3

    def test_channel_side_closes_on_the_certified_lower(self, pentagon):
        channel = make_channel(Alphabet.of_size(5), self.K2_K3)
        b = asymptotic_rate_bracket(pentagon, channel)
        assert (b.exact.base, b.exact.root) == (2, 1)
        assert b.lower_certificate["name"] == "alpha_confusability_power"
        assert b.upper_certificate["name"] == "theta_confusability"

    def test_unconverged_channel_theta_is_skipped(self, example1, monkeypatch):
        def diverge(g, **kw):
            raise ConvergenceError("no convergence")

        monkeypatch.setattr(ixcap.game, "lovasz_theta", diverge)
        channel = make_channel(Alphabet.of_size(3), [[1, 0, 0], [0, 1, 0], [0, 1, 0]])
        b = asymptotic_rate_bracket(example1, channel)
        assert b.warnings == ("theta(G_c) did not converge: no convergence",)
        # the channel's ceiling falls back to the alphabet size
        assert b.upper == min(xi_bracket(example1).upper, 3.0)

    def test_channel_theta_skipped_above_the_solver_limit(self):
        U = utility_from_graph(cycle_graph(66))
        b = asymptotic_rate_bracket(U, identity_channel(U.alphabet), n_max=1)
        assert [w.split(" skipped: ")[0] for w in b.warnings] == ["theta(G_s^Sym)", "theta(G_c)"]
        assert (b.exact.base, b.exact.root) == (33, 1)


class TestVerificationError:
    def test_noiseless_mismatch_raises(self, example1, monkeypatch):
        monkeypatch.setattr(ixcap.game, "worst_case_decoded_set",
                            lambda U, g: GameOutcome((), 0, 0.0, ()))
        with pytest.raises(VerificationError):
            equilibrium_value_noiseless(example1, 1)

    def test_noisy_rejection_raises(self, example1, monkeypatch):
        monkeypatch.setattr(ixcap.game, "verify_noisy_equilibrium",
                            lambda *args: False)
        channel = identity_channel(example1.alphabet)
        with pytest.raises(VerificationError):
            noisy_equilibrium_value(example1, channel, 1)

    def test_cli_reports_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(ixcap.game, "worst_case_decoded_set",
                            lambda U, g: GameOutcome((), 0, 0.0, ()))
        code = main(["game", "--utility", str(corpus_path("example1.json")), "-n", "1"])
        assert code == 1
        assert "equilibrium verification failed" in capsys.readouterr().err
