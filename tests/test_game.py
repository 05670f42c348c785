"""Differential tests of the game layer against Fraction brute force on tiny
instances (q <= 4, n <= 4), and the named verification failure."""

import json
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ixcap.game
import ixcap.graphs
import ixcap.utility
from conftest import (
    LEX_COUNTEREXAMPLE,
    is_independent,
    oracle_alpha,
    oracle_letter_rule,
    oracle_lex_least_mis,
    oracle_block_sums,
    oracle_noisy_outcome,
    oracle_sender_edges,
    random_channel,
    random_int_utility,
    random_utility,
)
from ixcap.channel import identity_channel, make_channel
from ixcap.cli import corpus_path, main
from ixcap.errors import CapExceededError, InputError, VerificationError
from ixcap.game import (
    GameOutcome,
    ReceiverStrategy,
    equilibrium_value_noiseless,
    expected_block_utility,
    naive_receiver_strategy,
    noisy_equilibrium_value,
    noisy_receiver_strategy,
    output_support_indices,
    receiver_strategy_from_set,
    strategy_from_json_dict,
    strategy_to_json_dict,
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
from ixcap.utility import (
    DEFAULT_VERTEX_CAP,
    Alphabet,
    UtilityMatrix,
    _product_words,
    block_sums,
    block_utility_rows,
    load_utility,
    normalize_diagonal,
    sequence_labels,
    utility_from_graph,
    utility_from_json,
)

SIZES = st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)])


def noisy_pairs(U, channel, n, d):
    """The protected sequences and inputs noisy_equilibrium_value pairs up."""
    _, wit_s = independence_number(sender_graph(U, n))
    _, wit_c = independence_number(confusability_graph(channel, n))
    return list(wit_s[:d]), list(wit_c[:d])


def analysed(U, channel, g):
    """verify_noisy_equilibrium's outcome in the oracle's form."""
    outcome = verify_noisy_equilibrium(U, channel, g)
    assert outcome.decoded_size == len(outcome.decoded_worst)
    return outcome.decoded_worst, outcome.best_response_summary


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

    def test_summary_matches_the_per_cell_definition_up_to_q4_n3(self):
        # every (observed x, recovered t) cell checked on its own; {-1, 0, 1}
        # utilities tie often, so many x have several best responses
        rng = random.Random(67)
        for q, n in [(q, n) for q in (2, 3, 4) for n in (1, 2, 3)] * 3:
            U = random_int_utility(rng, q) if rng.random() < 0.5 else random_utility(rng, q)
            nv = q**n
            keep = rng.choice((0, 0.1, 0.5, 1))
            g = ReceiverStrategy(n, tuple(rng.randrange(nv) if rng.random() < keep else None
                                          for _ in range(nv)))
            image = g.image()
            sums = oracle_block_sums(U, n, image)
            expected = tuple(
                tuple(t for t, row in zip(image, sums)
                      if all(row[x] >= other[x] for other in sums))
                for x in range(nv))
            assert worst_case_decoded_set(U, g).best_response_summary == expected


class TestSurvivorRule:
    """``_survivors`` keeps the words x with S[y, x] < 0 for every other
    word y, reading the words' own columns in row blocks (``_rivalled``),
    or a product's letters.  ``worst_case_decoded_set`` reads the same rule
    off its table of best responses: x survives iff they are (x,) alone."""

    @pytest.mark.parametrize("rows_per_block", [None, 1, 2, 3])
    def test_matches_fraction_brute_force(self, monkeypatch, rows_per_block):
        # random images, mostly not independent in the sender graph, of
        # rational utilities and of {-1, 0, 1} ones, which tie at 0 often.
        # At n >= 2 most images are no product, so _survivors reads them
        # on their row blocks, which BLOCK_CELLS cuts
        rng = random.Random(139 + (rows_per_block or 0))
        summed = []
        sums = ixcap.game._block_sums
        monkeypatch.setattr(ixcap.game, "_block_sums",
                            lambda *args, **kw: summed.append(1) or sums(*args, **kw))
        draws = dense = 0
        for _ in range(60):
            q, n = rng.randint(2, 4), rng.randint(2, 3)
            U = (random_utility, random_int_utility)[rng.randrange(2)](rng, q)
            nv = q**n
            keep = rng.choice((0.1, 0.5, 1))
            g = ReceiverStrategy(n, tuple(rng.randrange(nv) if rng.random() < keep else None
                                          for _ in range(nv)))
            words = g.image()
            table = oracle_block_sums(U, n, words)
            expected = tuple(x for i, x in enumerate(words)
                             if all(row[x] < 0 for j, row in enumerate(table) if j != i))
            with pytest.MonkeyPatch.context() as patch:
                if rows_per_block:
                    patch.setattr(ixcap.utility, "BLOCK_CELLS", rows_per_block * nv)
                summed.clear()
                got = ixcap.game._survivors(U, n, words)
                draws, dense = draws + 1, dense + bool(summed)
                outcome = worst_case_decoded_set(U, g)
            assert got == expected
            assert outcome.decoded_worst == expected
        assert dense > 0.8 * draws

    def test_a_product_is_read_on_its_letters(self, monkeypatch):
        # identity on L^n, analysed by worst_case_decoded_set on its dense
        # row blocks, keeps exactly L'^n, L' the letters of L that no other
        # letter of L rivals; _survivors finds that with no block sum.
        # L^n less one word, no product at n >= 2 when |L| >= 2, sums its
        # own rows once, and so does L^n with one word swapped for another
        # of the same last letters, a set of L^n's own size
        rng = random.Random(43)
        rows_summed = []
        sums = ixcap.game._block_sums
        monkeypatch.setattr(ixcap.game, "_block_sums", lambda U, n, rows, **kw:
                            rows_summed.append(list(rows)) or sums(U, n, rows, **kw))

        def dense(U, n, words):
            chosen = set(words)
            g = ReceiverStrategy(n, tuple(w if w in chosen else None for w in range(U.q**n)))
            return worst_case_decoded_set(U, g).decoded_worst

        kinds = Counter()
        for _ in range(300):
            q, n = rng.randint(2, 5), rng.randint(1, 3)
            U = random_int_utility(rng, q, rng.choice([(-1, 0, 1), (-3, -2, -1, 0, 1)]))
            if rng.random() < 0.5:
                letters = independence_number(sender_graph(U, 1))[1]
            else:
                letters = sorted(rng.sample(range(q), rng.randint(1, q)))
            words = tuple(sorted(sum(a * q**k for k, a in enumerate(w))
                                 for w in product(letters, repeat=n)))
            t = U.scaled_integer_entries[1]
            independent = all(t[a][b] < 0 for a in letters for b in letters if a != b)
            expected = dense(U, n, words)
            kinds[independent, expected == words] += 1
            rows_summed.clear()
            assert ixcap.game._survivors(U, n, words) == expected
            assert rows_summed == []
            if n >= 2 and len(letters) >= 2:
                fewer = words[:(k := rng.randrange(len(words)))] + words[k + 1:]
                others = [fewer]
                outside = [w for w in range(q**n) if w % q in letters and w not in words]
                if outside:
                    others.append(tuple(sorted(fewer + (rng.choice(outside),))))
                for other in others:
                    expected = dense(U, n, other)
                    rows_summed.clear()
                    assert ixcap.game._survivors(U, n, other) == expected
                    assert rows_summed == [list(other)]
                    kinds["dense", len(other) == len(words)] += 1
        # independent sets keep every word; the others lose some or all
        assert set(kinds) == {(True, True), (False, False), ("dense", False), ("dense", True)}
        assert min(kinds.values()) >= 40


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


class TestNoisyEquilibriumAgainstEveryReceiver:
    """Over a noisy channel, verify_noisy_equilibrium is the pessimistic
    definition on every receiver map X^n -> X^n + {error}, and
    noisy_equilibrium_value's d = min(alpha_s, alpha_c) is the best count
    over all of them."""

    @pytest.mark.parametrize("q, n, trials", [(2, 1, 6), (3, 1, 6), (2, 2, 2)])
    def test_analysis_is_the_definition_and_value_is_best_count(self, q, n, trials):
        rng = random.Random(137 + 10 * q + n)
        nv = q**n
        maps = list(product([None, *range(nv)], repeat=nv))
        for trial in range(trials):
            U = (random_int_utility if trial % 2 else random_utility)(rng, q)
            channel = random_channel(rng, q)
            best = 0
            for decode in maps:
                g = ReceiverStrategy(n, decode)
                expected = oracle_noisy_outcome(U, channel, g)
                assert analysed(U, channel, g) == expected
                best = max(best, len(expected[0]))
            d, strategy = noisy_equilibrium_value(U, channel, n)
            assert d == best == len(oracle_noisy_outcome(U, channel, strategy)[0])


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
        """The pentagon's G_s^2 is built once, by the sign kernel that builds
        every block graph, inside ``block_independence_number``.  Before the
        letter rule every equilibrium built its sender graph; the graph
        utility of C4, whose alpha is its clique cover number, is answered
        at n = 3 from its letters and builds none on X^3 (its two bases are
        the sign graphs of single letters, from one letter pass).  A
        caller's set is checked on its block sums, with no graph."""
        calls = []
        build, one_pass = ixcap.graphs._sign_block, ixcap.graphs._letter_graphs
        monkeypatch.setattr(ixcap.graphs, "_sign_block",
                            lambda ints, n: calls.append(n) or build(ints, n))
        monkeypatch.setattr(ixcap.graphs, "_letter_graphs",
                            lambda t: calls.append("letters") or one_pass(t))
        equilibrium_value_noiseless(pentagon, 2)
        assert calls == [2]
        calls.clear()
        c4 = utility_from_graph(cycle_graph(4))
        value, strategy = equilibrium_value_noiseless(c4, 3)
        assert calls == ["letters"]
        assert (value, strategy.image()) == (8, (0, 2, 8, 10, 32, 34, 40, 42))
        assert receiver_strategy_from_set(c4, strategy.image(), 3) == strategy
        assert calls == ["letters"]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", ["dense", "product"])
    def test_refuses_a_dependent_set_on_its_block_sums(self, monkeypatch, pentagon, n, kind):
        # the equilibrium's witness with one more word, which no maximum
        # set admits, is read on its block sums; L^n with L = (0, 1), an
        # edge of G_s, on its letters alone.  Both refusals keep the message
        # of the sender graph's test, which agrees that they are dependent
        if kind == "dense":
            witness = equilibrium_value_noiseless(pentagon, n)[1].image()
            words = tuple(sorted((*witness, next(w for w in range(5**n) if w not in witness))))
        else:
            words = _product_words((0, 1), 5, n)
        assert not is_independent(sender_graph(pentagon, n), words)
        summed = []
        sums = ixcap.game._block_sums
        monkeypatch.setattr(ixcap.game, "_block_sums",
                            lambda *args, **kw: summed.append(1) or sums(*args, **kw))
        with pytest.raises(InputError) as info:
            receiver_strategy_from_set(pentagon, reversed(words), n)
        assert str(info.value) == "the set is not independent in the sender graph"
        assert bool(summed) == (kind == "dense")

    def test_builds_no_graph(self, monkeypatch):
        # C4's graph utility at n = 7 has 16384 words; its equilibrium set
        # L^7 is checked on its letters, where building the sender graph on
        # X^7 to test it once held about 95 MB of traced peak
        def refuse(*args):
            raise AssertionError("a sign graph was built")

        c4 = utility_from_graph(cycle_graph(4))
        words = _product_words((0, 2), 4, 7)
        monkeypatch.setattr(ixcap.graphs, "_sign_graph", refuse)
        monkeypatch.setattr(ixcap.graphs, "_sign_block", refuse)
        tracemalloc.start()
        try:
            strategy = receiver_strategy_from_set(c4, words, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert strategy.image() == words and strategy.decoded_count() == 128
        assert peak < 2e6


class TestBlockSandwichInTheGame:
    """The equilibria search alpha between the base graphs' bounds; the
    answers are those of the plain search, and the bounds' gain shows as
    node budgets, never as wall time."""

    # q = 7, the graph utility of perfbench's equilibrium structure k = 1:
    # alpha(G_s) = 4 = the cover number of G_s^Sym, so 4^3 needs no search
    CUBE_EDGES = [(0, 2), (0, 3), (0, 5), (2, 3), (2, 5), (2, 6), (3, 4)]

    def test_cube_cliff_inside_a_small_budget(self, monkeypatch):
        sizes = []
        maximum = ixcap.graphs._CliqueSearch.maximum
        monkeypatch.setattr(ixcap.graphs._CliqueSearch, "maximum",
                            lambda self, *a: sizes.append(len(self.rows)) or maximum(self, *a))
        U = utility_from_graph(graph_from_edges(7, self.CUBE_EDGES))
        value, strategy = equilibrium_value_noiseless(U, 3, budget=2000)
        assert value == 64 == len(strategy.image())
        assert 343 not in sizes

    def test_equilibrium_matches_the_plain_search(self):
        rng = random.Random(53)
        for q, n in ((3, 2), (4, 2), (3, 3)) * 3:
            U = random_utility(rng, q)
            g = sender_graph(U, n)
            alpha, witness = independence_number(g)
            value, strategy = equilibrium_value_noiseless(U, n)
            assert value == alpha == oracle_alpha(g)[0]
            assert strategy.image() == witness == oracle_lex_least_mis(g, alpha)

    def test_noisy_matches_the_plain_search(self):
        rng = random.Random(59)
        for q, n in ((3, 2), (4, 2), (3, 3)) * 3:
            U = random_utility(rng, q)
            channel = random_channel(rng, q)
            alpha_s, _ = independence_number(sender_graph(U, n))
            alpha_c, _ = independence_number(confusability_graph(channel, n))
            d, strategy = noisy_equilibrium_value(U, channel, n)
            xs, ys = noisy_pairs(U, channel, n, d)
            assert d == min(alpha_s, alpha_c)
            assert strategy == noisy_receiver_strategy(xs, ys, channel, n)


    def test_each_block_search_is_sandwiched_once(self, sandwich_calls):
        """At q = 4, n = 3 both G_s^3 and G_c^3 have 64 vertices, enough
        for the bounds, and at q = 5 125: one sandwich per alpha search, on
        the searched graph.  Before the letter rule every G_c^n was
        sandwiched; now a side is sandwiched only where the rule declines
        it, and a side it answers builds no graph.  Every G_c on 4 letters
        is perfect, so its side is answered; the pentagon's G_c is not."""
        rng = random.Random(67)
        pentagon = make_channel(Alphabet.of_size(5), [
            [Fraction(1, 2) if z in (y, (y + 1) % 5) else 0 for z in range(5)]
            for y in range(5)])
        cases = [(random_utility(rng, 4), random_channel(rng, 4)) for _ in range(3)]
        cases.append((random_utility(rng, 5), pentagon))
        declined = Counter()
        for U, channel in cases:
            sender = [] if oracle_letter_rule(U.scaled_integer_entries[1]) else [
                sender_graph(U, 3)]
            table = ixcap.graphs._confusability_table(channel)
            receiver = [] if oracle_letter_rule(table) else [confusability_graph(channel, 3)]
            declined["sender"] += len(sender)
            declined["channel"] += len(receiver)
            equilibrium_value_noiseless(U, 3)
            assert sandwich_calls == sender
            sandwich_calls.clear()
            noisy_equilibrium_value(U, channel, 3)
            assert sandwich_calls == sender + receiver
            sandwich_calls.clear()
        assert declined == {"sender": 4, "channel": 1}

    def test_a_closed_sandwich_with_i_unlike_h_keeps_its_walk(self, sandwich_calls):
        # the rule declines this closed sandwich, whose least maximum set is
        # not L^3 = {1, 3}^3: G_s^3 is built, sandwiched and walked
        U = utility_from_json({"utility": LEX_COUNTEREXAMPLE})
        value, strategy = equilibrium_value_noiseless(U, 3)
        assert (value, strategy.image()) == (8, (31, 33, 41, 43, 74, 83, 91, 93))
        assert sandwich_calls == [sender_graph(U, 3)]

    def test_noisy_on_a_nonzero_diagonal_takes_no_sender_bounds(self):
        # u(x, x) = -1 would break the sender bounds' proof: G_s and G_s^Sym
        # are both K2, yet the block sums of 00 and 01 are both -1. The
        # constructor refuses such a matrix, so no equilibrium takes bounds
        # from it; on its column-shifted form the bounds hold and the noisy
        # value is the plain search's.
        rows = [[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        with pytest.raises(InputError, match="zero diagonal"):
            UtilityMatrix(Alphabet.of_size(2), tuple(map(tuple, rows)))
        U = normalize_diagonal(rows)
        channel = identity_channel(Alphabet.of_size(2))
        d, strategy = noisy_equilibrium_value(U, channel, 2)
        assert d == oracle_alpha(sender_graph(U, 2))[0]  # G_c^2 is edgeless
        xs, ys = noisy_pairs(U, channel, 2, d)
        assert strategy == noisy_receiver_strategy(xs, ys, channel, 2)


class TestWorstCaseBlocks:
    """The block sums of a strategy's image come in row blocks of at most
    ``BLOCK_CELLS`` cells; the outcome is that of one whole table."""

    @pytest.mark.parametrize("cells", [1, 5, 64])
    def test_row_blocks_give_the_same_outcome(self, monkeypatch, cells):
        rng = random.Random(89)
        cases = []
        for i in range(12):
            q, n = rng.randint(2, 4), rng.randint(1, 3)
            U = (random_utility, random_int_utility)[i % 2](rng, q)
            _, optimal = equilibrium_value_noiseless(U, n)
            scrambled = ReceiverStrategy(n, tuple(rng.choice([None, *range(q**n)])
                                                  for _ in range(q**n)))
            cases += [(U, naive_receiver_strategy(q, n)), (U, optimal), (U, scrambled)]
        whole = [worst_case_decoded_set(U, g) for U, g in cases]
        monkeypatch.setattr(ixcap.utility, "BLOCK_CELLS", cells)
        assert [worst_case_decoded_set(U, g) for U, g in cases] == whole

    def test_naive_receiver_at_n7_stays_within_its_blocks(self, monkeypatch, tmp_path):
        # example1's naive table at n = 7 is 2187 x 2187 int64, 38 MB, and
        # took 51 MB of traced peak in one piece; in blocks of 2**18 cells
        # (2 MB) the whole command stays within 16 MB
        monkeypatch.setattr(ixcap.utility, "BLOCK_CELLS", 1 << 18)
        argv = ["game", "--utility", str(corpus_path("example1.json")), "-n", "7",
                "--receiver", "naive", "--out", str(tmp_path / "naive.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_naive_receiver_over_a_noisy_channel_at_n7_stays_within_its_blocks(
            self, monkeypatch, tmp_path):
        # a channel that swaps letters 1 and 2 is noisy by its supports, yet
        # every input reaches one output: all 2187 sources are valued, a
        # 2187 x 2187 int64 table in one piece.  The naive receiver then
        # recovers what it recovers noiselessly, each x from the input that
        # swaps to it
        monkeypatch.setattr(ixcap.utility, "BLOCK_CELLS", 1 << 18)
        channel = tmp_path / "swap.json"
        channel.write_text(json.dumps({"rows": [[1, 0, 0], [0, 0, 1], [0, 1, 0]]}))
        report = tmp_path / "naive.json"
        argv = ["game", "--utility", str(corpus_path("example1.json")), "-n", "7",
                "--channel", str(channel), "--receiver", "naive", "--out", str(report)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6
        noiseless = worst_case_decoded_set(load_utility(corpus_path("example1.json")),
                                           naive_receiver_strategy(3, 7))
        labels = sequence_labels(Alphabet.of_size(3), 7)
        decoded = [labels[x] for x in noiseless.decoded_worst]
        swap = str.maketrans("12", "21")
        got = json.loads(report.read_text())
        assert got["decoded_set"] == decoded
        assert got["input_set"] == [word.translate(swap) for word in decoded]


def check_against_reference(U, channel, n, rng):
    """The partition strategy recovers its protected sequences; it and
    perturbed strategies get the oracle's outcome."""
    nv = U.q**n
    d, strategy = noisy_equilibrium_value(U, channel, n)
    xs, ys = noisy_pairs(U, channel, n, d)
    outcome = analysed(U, channel, strategy)
    assert outcome == oracle_noisy_outcome(U, channel, strategy)
    assert outcome[0] == tuple(xs)

    tables = []
    for _ in range(4):
        decode = list(strategy.decode)
        decode[rng.randrange(nv)] = rng.choice([None, *range(nv)])
        tables.append(decode)
    # decoding all of an input's outputs to x gives that input expected
    # utility exactly zero against x: outside y*'s support it becomes a
    # second truthful report of x, and the other classes lose outputs
    x, y_star = xs[0], ys[0]
    supports = [output_support_indices(channel, y, n) for y in range(nv)]
    outside = [y for y in range(nv) if not supports[y] <= supports[y_star]]
    if outside:
        decode = list(strategy.decode)
        for z in supports[rng.choice(outside)]:
            decode[z] = x
        tables.append(decode)
    for decode in tables:
        g = ReceiverStrategy(n, tuple(decode))
        assert analysed(U, channel, g) == oracle_noisy_outcome(U, channel, g)


class TestNoisyVerification:
    @given(SIZES, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop(self, size, rng):
        q, n = size
        check_against_reference(random_utility(rng, q), random_channel(rng, q), n, rng)

    @pytest.mark.parametrize("size", [(2, 3), (3, 3), (2, 4)])
    def test_matches_reference_loop_at_longer_blocks(self, size):
        # three and four mode products per check
        q, n = size
        rng = random.Random(q * 10 + n)
        for _ in range(4):
            check_against_reference(random_utility(rng, q), random_channel(rng, q), n, rng)

    def test_sole_targets_stay_exact_in_float64_within_the_cap(self):
        # the moments that _sole_targets sums over q**n outputs are below
        # (q**n)**3, and the analysis refuses a q**n above the cap, so
        # float64 adds them exactly (the sums of t**2 once ran in Python
        # ints past 2**53, which no accepted strategy reaches)
        assert DEFAULT_VERTEX_CAP ** 3 < 2 ** 53

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("columns", [1, 3])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_letter_products_match_kronecker_power(self, q, columns, dtype):
        rng = random.Random(q * columns)
        big = 2**70 if dtype is object else 9
        for n in range(1, 5):
            w1 = np.array([[rng.randint(0, 4) for _ in range(q)] for _ in range(q)], dtype=dtype)
            x = np.array([[rng.randint(-big, big) for _ in range(columns)]
                          for _ in range(q**n)], dtype=dtype)
            dense = w1
            for _ in range(n - 1):
                dense = np.kron(dense, w1)
            out = ixcap.game._apply_letters(w1, n, x)
            assert out.shape == (q**n, columns) and out.dtype == dtype
            assert out.tolist() == (dense @ x).tolist()

    def test_one_pair_per_block_keeps_every_verdict(self, monkeypatch):
        # one valued source per block of q**n cells
        rng = random.Random(71)
        cases = []
        for q, n in ((2, 2), (3, 2), (2, 3), (3, 3)):
            for _ in range(3):
                U, channel = random_utility(rng, q), random_channel(rng, q)
                _, strategy = noisy_equilibrium_value(U, channel, n)
                decode = list(strategy.decode)
                decode[rng.randrange(q**n)] = rng.choice([None, *range(q**n)])
                for g in (strategy, ReceiverStrategy(n, tuple(decode)),
                          naive_receiver_strategy(q, n)):
                    cases.append((U, channel, g))
        outcomes = [verify_noisy_equilibrium(*case) for case in cases]
        sizes = {outcome.decoded_size for outcome in outcomes}
        assert 0 in sizes and max(sizes) > 2
        monkeypatch.setattr(ixcap.utility, "BLOCK_CELLS", 1)
        assert [verify_noisy_equilibrium(*case) for case in cases] == outcomes

    def test_unequal_pair_lists_are_rejected(self):
        # the pairs are the partition decoder's alone
        channel = identity_channel(Alphabet.of_size(2))
        with pytest.raises(InputError, match="set sizes differ"):
            noisy_receiver_strategy([0, 1], [0], channel, 1)
        with pytest.raises(InputError, match="set sizes differ"):
            noisy_receiver_strategy([0], [0, 1], channel, 1)

    # letters 0 and 1 both reach outputs {0, 1}, letter 2 reaches {2}
    CHANNEL = make_channel(Alphabet.of_size(3), [[Fraction(1, 2), Fraction(1, 2), 0],
                                                 [Fraction(1, 2), Fraction(1, 2), 0],
                                                 [0, 0, 1]])
    STRICT = utility_from_json({"utility": [[0, -1, -1], [-1, 0, -1], [-1, -1, 0]]})

    def test_refuses_a_table_of_another_length(self):
        with pytest.raises(InputError, match="strategy table has 4 entries, expected 9"):
            verify_noisy_equilibrium(self.STRICT, self.CHANNEL, ReceiverStrategy(2, (0,) * 4))

    @pytest.mark.parametrize("target", [9, -1, -2])
    def test_refuses_a_target_outside_the_words(self, target):
        g = ReceiverStrategy(2, (0,) * 8 + (target,))
        with pytest.raises(InputError, match="decoded sequence index out of range"):
            verify_noisy_equilibrium(self.STRICT, self.CHANNEL, g)

    def test_a_product_class_pairs_with_its_least_input(self):
        # {0, 1} x {2} is the support of inputs 02 and 12, decoded to 7 = 21,
        # and {2} x {0, 1} of 20 and 21, decoded to 4 = 11; every other input
        # reaches an undecoded output
        decode = [None] * 9
        decode[2] = decode[5] = 7
        decode[6] = decode[7] = 4
        outcome = verify_noisy_equilibrium(self.STRICT, self.CHANNEL, ReceiverStrategy(2, decode))
        assert outcome.decoded_worst == (4, 7)
        assert [outcome.best_response_summary[x] for x in (4, 7)] == [(6, 7), (2, 5)]

    def test_one_class_of_every_output_at_n8(self):
        # q = 3, every letter reaching every output: every input decodes
        # wholly to 5, so 5 is recovered with all 6561 inputs as its best
        # responses, and only source 5 is valued
        channel = make_channel(Alphabet.of_size(3), [[Fraction(1, 3)] * 3] * 3)
        g = ReceiverStrategy(8, (5,) * 3**8)
        start = time.perf_counter()
        outcome = verify_noisy_equilibrium(self.STRICT, channel, g)
        assert time.perf_counter() - start < 1
        assert outcome.decoded_worst == (5,)
        assert outcome.best_response_summary[5] == tuple(range(3**8))

    def test_matches_the_noiseless_analysis_over_the_identity_channel(self):
        rng = random.Random(73)
        for _ in range(60):
            q, n = rng.randint(2, 3), rng.randint(1, 2)
            U = (random_utility, random_int_utility)[rng.randrange(2)](rng, q)
            nv = q**n
            g = ReceiverStrategy(n, tuple(rng.choice([None, *range(nv)]) for _ in range(nv)))
            outcome = verify_noisy_equilibrium(U, identity_channel(U.alphabet), g)
            assert outcome.decoded_worst == worst_case_decoded_set(U, g).decoded_worst
            # over the identity channel x's truthful reports are its class
            for x in outcome.decoded_worst:
                assert outcome.best_response_summary[x] == tuple(
                    z for z, t in enumerate(g.decode) if t == x)

    def test_expected_utility_refuses_an_index_out_of_range(self, example1):
        channel = identity_channel(example1.alphabet)
        g = ReceiverStrategy(2, (*range(8), 9))
        # input 7 = "21" is decoded to itself against the source 6 = "20";
        # input 8 reaches output 8, which decodes to 9, outside X^2
        assert expected_block_utility(example1, channel, g, 7, 6, 2) == example1.u[1][0] / 2
        for y, x in ((9, 0), (0, 9), (-1, 0), (8, 0)):
            with pytest.raises(InputError, match="out of range for q=3, n=2"):
                expected_block_utility(example1, channel, g, y, x, 2)

    def test_zero_utility_needs_domination_or_inclusion(self):
        # every misreport is a tie, so x is protected only where the other
        # input reaches the undecoded output or also decodes wholly to x
        U = utility_from_json({"utility": [[0, 0], [0, 0]]})
        channel = identity_channel(Alphabet.of_size(2))
        for decode, decoded, summary in (((0, None), (0,), ((0,), ())),
                                         ((0, 0), (0,), ((0, 1), ())),
                                         ((0, 1), (), ((), ()))):
            g = ReceiverStrategy(1, decode)
            assert analysed(U, channel, g) == (decoded, summary)
            assert oracle_noisy_outcome(U, channel, g) == (decoded, summary)

    @pytest.mark.parametrize("unit", [1, 2**40, 2**70])
    def test_outputs_weighed_by_probability(self, unit):
        # input 1 reaches output 1 (decoded to 1, utility 3 against source 0)
        # and output 2 (decoded to 2, utility -2): the sign of the expected
        # utility 3*p - 2*(1 - p) follows the probability p of output 1, and
        # at n = 2 each letter adds its own term against source 00.  With
        # denominators 2**30, a unit of 2**40 keeps the block sums in int64
        # but not their products with the channel rows, and 2**70 leaves
        # int64 already in the block sums
        U = utility_from_json({"utility": [[0, -unit, -unit], [3 * unit, 0, -unit],
                                           [-2 * unit, -unit, 0]]})
        for n in (1, 2):
            g = ReceiverStrategy(n, tuple(range(3**n)))
            for p, accepted in ((Fraction(2**30 // 3, 2**30), True),
                                (Fraction(2**31 // 3, 2**30), False)):
                channel = make_channel(Alphabet.of_size(3),
                                       [[1, 0, 0], [0, p, 1 - p], [0, 0, 1]])
                outcome = analysed(U, channel, g)
                assert (0 in outcome[0]) is accepted
                assert oracle_noisy_outcome(U, channel, g) == outcome

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


class TestPartitionDecoder:
    def test_supports_are_products_of_letter_supports(self):
        rng = random.Random(83)
        for q, n in ((2, 3), (3, 2), (3, 3), (4, 2)):
            channel = random_channel(rng, q)
            for y, letters in enumerate(product(range(q), repeat=n)):
                expect = {z for z, outs in enumerate(product(range(q), repeat=n))
                          if all(channel.support[a] >> b & 1 for a, b in zip(letters, outs))}
                assert output_support_indices(channel, y, n) == expect

    def test_decode_table_matches_a_per_input_loop(self):
        rng = random.Random(89)
        for q, n in ((2, 3), (3, 2), (3, 3)):
            U, channel = random_utility(rng, q), random_channel(rng, q)
            d, strategy = noisy_equilibrium_value(U, channel, n)
            xs, ys = noisy_pairs(U, channel, n, d)
            decode = [None] * q**n
            for x, y in zip(xs, ys):
                for z in output_support_indices(channel, y, n):
                    decode[z] = x
            assert strategy.decode == tuple(decode)

    def test_decoder_builds_no_table_per_input(self):
        # 512 inputs over {0, 2} at n = 9 partition the 19683 outputs; one
        # support row per input would be a 512 x 19683 table, over 10 MB
        channel = make_channel(Alphabet.of_size(3), [[Fraction(1, 2), Fraction(1, 2), 0],
                                                     [0, 1, 0], [0, 0, 1]])
        ys = [int("".join(word), 3) for word in product("02", repeat=9)]
        tracemalloc.start()
        try:
            strategy = noisy_receiver_strategy(ys, ys, channel, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert strategy.decoded_count() == 3**9
        assert strategy.decode[int("011111111", 3)] == 0

    @pytest.mark.parametrize("y", [-1, 3**2])
    def test_input_indices_outside_the_words_are_rejected(self, y):
        # numpy would read index -1 as the last word
        channel = make_channel(Alphabet.of_size(3), [[Fraction(1, 2), Fraction(1, 2), 0],
                                                     [0, 1, 0], [0, 0, 1]])
        with pytest.raises(InputError, match="sequence index out of range"):
            noisy_receiver_strategy([0], [y], channel, 2)
        with pytest.raises(InputError, match="sequence index out of range"):
            output_support_indices(channel, y, 2)

    def test_protected_indices_outside_the_words_are_rejected(self):
        # the inputs were checked already; a protected index once became a
        # decoded target outside X^n
        channel = make_channel(Alphabet.of_size(3), [[Fraction(1, 2), Fraction(1, 2), 0],
                                                     [0, 1, 0], [0, 0, 1]])
        for xs in ([99], [-3], [0, 9]):
            with pytest.raises(InputError, match="protected sequence index out of range"):
                noisy_receiver_strategy(xs, [0, 2][:len(xs)], channel, 1)
        assert noisy_receiver_strategy([8, 0], [0, 2], channel, 2).image() == (0, 8)

    def test_overlapping_supports_are_an_input_error(self):
        # inputs 0 and 1 both reach output 1
        channel = make_channel(Alphabet.of_size(3), [[Fraction(1, 2), Fraction(1, 2), 0],
                                                     [0, 1, 0], [0, 0, 1]])
        assert noisy_receiver_strategy([0, 1], [0, 2], channel, 2).decoded_count() == 6
        with pytest.raises(InputError, match="overlap"):
            noisy_receiver_strategy([0, 1], [0, 1], channel, 1)
        with pytest.raises(InputError, match="overlap"):
            noisy_receiver_strategy([0, 4], [0, 4], channel, 2)


def rival_every_word(monkeypatch):
    """A survivor rule that disagrees with every witness: it rivals every
    word of a dense check and every letter of a product's."""
    monkeypatch.setattr(ixcap.game, "_rivalled",
                        lambda sums, words, block: np.ones(len(words), dtype=bool))
    monkeypatch.setattr(ixcap.game, "_unrivalled_letters", lambda t, letters: [])


class TestVerificationError:
    def test_noiseless_mismatch_raises(self, example1, monkeypatch):
        rival_every_word(monkeypatch)
        with pytest.raises(VerificationError):
            equilibrium_value_noiseless(example1, 1)

    def test_a_dense_witness_mismatch_raises(self, pentagon, monkeypatch):
        # the pentagon's witness at n = 2, (0, 7, 14, 16, 23), is no
        # product, so it is checked on its block sums by _rivalled alone
        monkeypatch.setattr(ixcap.game, "_rivalled",
                            lambda sums, words, block: np.ones(len(words), dtype=bool))
        with pytest.raises(VerificationError):
            equilibrium_value_noiseless(pentagon, 2)

    def test_noisy_rejection_raises(self, example1, monkeypatch):
        monkeypatch.setattr(ixcap.game, "verify_noisy_equilibrium",
                            lambda U, channel, g: GameOutcome((), 0, 0.0, ()))
        channel = identity_channel(example1.alphabet)
        with pytest.raises(VerificationError):
            noisy_equilibrium_value(example1, channel, 1)

    def test_overlapping_channel_witness_raises(self, example1, monkeypatch):
        # the partition decoder refuses overlapping supports as bad input;
        # on the library's own witnesses that is its fault.  Inputs 0 and
        # 1 both reach output 1, so (0, 1) is no independent set of G_c
        monkeypatch.setattr(ixcap.game, "block_independence_number",
                            lambda t, n, budget: (2, (0, 1)))
        channel = make_channel(example1.alphabet, [[Fraction(1, 2), Fraction(1, 2), 0],
                                                   [0, 1, 0], [0, 0, 1]])
        with pytest.raises(VerificationError, match="input supports overlap"):
            noisy_equilibrium_value(example1, channel, 1)

    @pytest.mark.parametrize("kind", ["dense", "product"])
    def test_a_dependent_witness_raises(self, pentagon, monkeypatch, kind):
        # a search that answered a dependent set of alpha's size is caught
        # by _survivors alone, which reads no graph: the pentagon's five
        # lowest words at n = 2 on their block sums, and L^2 with L = (0,
        # 1), an edge of G_s, on its letters
        words = (0, 1, 2, 3, 4) if kind == "dense" else _product_words((0, 1), 5, 2)
        assert not is_independent(sender_graph(pentagon, 2), words)
        monkeypatch.setattr(ixcap.game, "block_independence_number",
                            lambda t, n, budget: (len(words), words))
        with pytest.raises(VerificationError, match="equilibrium verification failed"):
            equilibrium_value_noiseless(pentagon, 2)

    @pytest.mark.parametrize("q", [2, 4])
    def test_a_channel_on_another_alphabet_stays_an_input_error(self, example1, q):
        # the user's mismatch, not a fault of the library's witnesses
        with pytest.raises(InputError, match="alphabets differ"):
            noisy_equilibrium_value(example1, identity_channel(Alphabet.of_size(q)), 1)

    def test_cli_reports_exit_code(self, monkeypatch, capsys):
        rival_every_word(monkeypatch)
        code = main(["game", "--utility", str(corpus_path("example1.json")), "-n", "1"])
        assert code == 1
        assert "equilibrium verification failed" in capsys.readouterr().err


class TestOptimizedInterpreter:
    def test_verification_errors_survive_python_O(self):
        # python -O strips assert statements; every equilibrium check raises
        # VerificationError instead, so TestVerificationError must pass
        # unchanged in an optimized interpreter, which the runner refuses
        # to be anything else
        root = Path(__file__).parents[1]
        runner = ("import sys, pytest\n"
                  "if not sys.flags.optimize: sys.exit(3)\n"
                  "sys.exit(pytest.main(sys.argv[1:]))")
        done = subprocess.run(
            [sys.executable, "-O", "-c", runner, "-q", "-p", "no:cacheprovider",
             "tests/test_game.py::TestVerificationError"],
            cwd=root, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.splitlines()[-1].startswith("9 passed")


def test_a_strategy_on_a_mixed_alphabet_round_trips():
    # symbols of one and of several characters, the one-character "," among
    # them where all are one character: every output keeps its own label
    rng = random.Random(38)
    singles, longs = ["a", "b", ",", "c"], ["ab", "ba", "abc", ""]
    for _ in range(40):
        symbols = rng.sample(singles, rng.randint(1, 3))
        if rng.random() < 0.7:
            symbols = [s for s in symbols if s != ","] + rng.sample(longs, rng.randint(1, 2))
        rng.shuffle(symbols)
        q = len(symbols)
        U = normalize_diagonal([[0] * q] * q, Alphabet(tuple(symbols)))
        for n in (1, 2, 3):
            words = range(q**n)
            for g in (naive_receiver_strategy(q, n),
                      ReceiverStrategy(n, tuple(rng.choice([None, *words]) for _ in words))):
                table = strategy_to_json_dict(U, g)
                assert len(table["decode"]) == q**n
                assert strategy_from_json_dict(U, json.loads(json.dumps(table))) == g


class TestInputRefusals:
    """Each public entry point refuses malformed input with an InputError
    that names the fault, before any table is built."""

    @pytest.mark.parametrize("call", [
        lambda channel: naive_receiver_strategy(3, 0),
        lambda channel: noisy_receiver_strategy([0], [0], channel, 0),
        lambda channel: output_support_indices(channel, 0, 0),
    ], ids=["naive", "noisy", "supports"])
    def test_blocklength_zero(self, example1, call):
        # X^0 holds one empty word: each of these once answered for it, as
        # a strategy with decode (0,) or the support {0}
        with pytest.raises(InputError) as info:
            call(identity_channel(example1.alphabet))
        assert (type(info.value), str(info.value)) == (
            InputError, "blocklength must be at least 1")

    @pytest.mark.parametrize("call, message", [
        (lambda U: worst_case_decoded_set(U, ReceiverStrategy(1, (0,))),
         "strategy table has 1 entries, expected 3"),
        (lambda U: expected_block_utility(U, identity_channel(Alphabet.of_size(2)),
                                          naive_receiver_strategy(3, 1), 0, 0, 1),
         "utility and channel alphabets differ in size"),
        (lambda U: verify_noisy_equilibrium(U, identity_channel(Alphabet.of_size(2)),
                                            naive_receiver_strategy(3, 1)),
         "utility and channel alphabets differ in size"),
        (lambda U: strategy_from_json_dict(U, {"n": 1, "decode": {"9": "0"}}),
         "unknown output sequence label '9'"),
        (lambda U: strategy_from_json_dict(U, {"n": 1, "decode": {"0": "0"}}),
         "strategy table is missing 2 output sequences"),
    ], ids=["table-length", "expected-channel", "noisy-channel", "unknown-output",
            "missing-outputs"])
    def test_refusal(self, example1, call, message):
        with pytest.raises(InputError) as info:
            call(example1)
        assert (type(info.value), str(info.value)) == (InputError, message)


class TestVertexCap:
    """A strategy on X^n is refused above the vertex cap before any table
    of q**n sequences is built."""

    def test_strategy_file_above_the_cap(self, example1):
        # at n = 12 the labels alone once took 1.2 s and 66 MB traced
        with pytest.raises(CapExceededError, match="59049 vertices exceed the cap"):
            strategy_from_json_dict(example1, {"n": 10, "decode": {}})

    @pytest.mark.parametrize("call", [
        lambda U: receiver_strategy_from_set(U, [0], 10**7),
        lambda U: expected_block_utility(U, identity_channel(U.alphabet),
                                         ReceiverStrategy(1, (0, 1, 2)), 0, 0, 10**7),
        lambda U: block_sums(U, 10**7, [0]),
        lambda U: block_sums(U, 10**7),
        lambda U: block_utility_rows(U, 10**7),
        lambda U: sequence_labels(U.alphabet, 10**7, [0]),
        lambda U: sequence_labels(U.alphabet, 10**7),
    ], ids=["strategy-from-set", "expected-utility", "block-sums-rows", "block-sums",
            "block-utility-rows", "labels-of-indices", "labels"])
    def test_refused_before_any_power(self, example1, call):
        # 3**(10**7) alone took seconds to compute, and the tables after it
        # could not be held; the cap refuses it unexpanded
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match=r"3\^10000000 vertices exceed the cap"):
            call(example1)
        assert time.perf_counter() - start < 1.0

    def test_block_sums_refuse_rows_above_the_cap(self, example1):
        # one row of 3**10 = 59049 sums was returned above the cap of 20000
        with pytest.raises(CapExceededError, match="59049 vertices exceed the cap"):
            block_sums(example1, 10, [0])

    def test_naive_receiver_above_the_cap(self):
        with pytest.raises(CapExceededError, match="59049 vertices exceed the cap"):
            naive_receiver_strategy(3, 10)

    def test_letter_rule_inputs_above_the_cap(self):
        # both sides would be answered from their letters (the path P5 is
        # perfect, the identity channel's G_c edgeless), yet 5^7 words
        # exceed the cap, which both equilibria check before any table on
        # X^7 exists: a list of 78125 words alone holds over 600 kB
        U = utility_from_graph(graph_from_edges(5, [(i, i + 1) for i in range(4)]))
        channel = identity_channel(U.alphabet)
        assert 5**7 > DEFAULT_VERTEX_CAP
        channel_table = ixcap.graphs._confusability_table(channel)
        for table in (U.scaled_integer_entries[1], channel_table):
            assert oracle_letter_rule(table)
        calls = [lambda: equilibrium_value_noiseless(U, 7),
                 lambda: noisy_equilibrium_value(U, channel, 7),
                 lambda: ixcap.graphs.block_independence_number(channel_table, 7)]
        tracemalloc.start()
        try:
            for call in calls:
                with pytest.raises(CapExceededError, match="78125 vertices exceed the cap"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_noiseless_analysis_above_the_cap(self, example1, monkeypatch):
        # 3**4 = 81 words: analysed at a cap of 81, refused at 80 before
        # any block sum is taken
        g = naive_receiver_strategy(3, 4)
        monkeypatch.setattr(ixcap.utility, "DEFAULT_VERTEX_CAP", 81)
        assert worst_case_decoded_set(example1, g).decoded_worst == (80,)
        monkeypatch.setattr(ixcap.utility, "DEFAULT_VERTEX_CAP", 80)
        monkeypatch.setattr(ixcap.game, "_block_sums", None)
        with pytest.raises(CapExceededError, match="81 vertices exceed the cap of 80"):
            worst_case_decoded_set(example1, g)

    def test_noisy_analysis_above_the_cap(self, example1, monkeypatch):
        g = naive_receiver_strategy(3, 4)
        channel = identity_channel(example1.alphabet)
        monkeypatch.setattr(ixcap.utility, "DEFAULT_VERTEX_CAP", 81)
        assert verify_noisy_equilibrium(example1, channel, g).decoded_worst == (80,)
        monkeypatch.setattr(ixcap.utility, "DEFAULT_VERTEX_CAP", 80)
        monkeypatch.setattr(ixcap.game, "_sole_targets", None)
        with pytest.raises(CapExceededError, match="81 vertices exceed the cap of 80"):
            verify_noisy_equilibrium(example1, channel, g)

    @pytest.mark.parametrize("receiver", ["naive", "file"])
    @pytest.mark.parametrize("n, size", [(10, "59049"), (10000, "3^10000")])
    def test_cli_exits_1_with_the_cap_message(self, receiver, n, size, tmp_path, capsys):
        # 3**10000 has more digits than an int may print, so the message
        # names the power
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps({"n": n, "decode": {}}))
        spec = f"file:{path}" if receiver == "file" else receiver
        argv = ["game", "--utility", str(corpus_path("example1.json")), "-n", str(n),
                "--receiver", spec]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"ixcap: error: {size} vertices exceed the cap of 20000\n")
