import json
import random
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    capped_max,
    complete_graph,
    empty_graph,
    incremented,
    oracle_best_responses,
    oracle_block_sums,
    oracle_noisy_outcome,
    oracle_sender_edges,
    oracle_sequence_labels,
    oracle_symmetric_part,
    random_channel,
    random_int_utility,
    random_utility,
)
from ixcap.errors import CapExceededError, InputError
from ixcap.game import (
    ReceiverStrategy,
    _survivors,
    verify_noisy_equilibrium,
    worst_case_decoded_set,
)
from ixcap.graphs import (
    cycle_graph,
    sender_graph,
    symmetric_sender_graph,
)
from ixcap.lower_bounds import _triple_masks
from ixcap.utility import (
    Alphabet,
    UtilityMatrix,
    _block_sums,
    _expand_rows,
    _sum_table,
    block_sums,
    block_utility,
    block_utility_rows,
    load_utility,
    normalize_diagonal,
    parse_rational,
    sequence_labels,
    utility_from_graph,
    utility_from_json,
)


class TestParsing:
    def test_rational_forms(self):
        assert parse_rational(3) == 3
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2.5") == Fraction(-5, 2)
        assert parse_rational(-2.5) == Fraction(-5, 2)
        assert parse_rational(0.1) == Fraction(1, 10)

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_rational("a/b")
        with pytest.raises(InputError):
            parse_rational(True)
        with pytest.raises(InputError):
            parse_rational(None)

    def test_decimal_exponents_beyond_four_digits_are_refused(self, tmp_path):
        # Fraction would expand each into a power of ten of 10**9 digits
        assert parse_rational("1e-9999") == Fraction(1, 10**9999)
        with pytest.raises(InputError, match="more than 4 digits"):
            parse_rational("1e999999999")
        path = tmp_path / "u.json"
        path.write_text('{"utility": [[0, -1e-999999999], [-1, 0]]}')
        with pytest.raises(InputError, match="cannot read utility file .* more than 4 digits"):
            load_utility(path)

    def test_load_example1(self, tmp_path, example1):
        # entries straight from the worked 3-symbol example
        assert example1.u[1][0] == 1
        assert example1.u[2][0] == -1
        assert example1.u[2][1] == 0
        assert all(example1.u[i][i] == 0 for i in range(example1.q))

    def test_degenerate_single_symbol(self):
        U = utility_from_json({"utility": [[0]]})
        assert U.q == 1
        assert U.u == ((Fraction(0),),)

    @pytest.mark.parametrize("call, message", [
        (lambda: UtilityMatrix(Alphabet.of_size(2), ((Fraction(0),),)),
         "utility matrix must be 2x2 to match the alphabet"),
        (lambda: utility_from_json({}), 'utility JSON must contain a "utility" matrix'),
        (lambda: block_utility(utility_from_json({"utility": [[0]]}), (), ()),
         "blocklength must be at least 1"),
    ], ids=["rows-of-another-alphabet", "no-utility", "empty-words"])
    def test_refusal(self, call, message):
        with pytest.raises(InputError) as info:
            call()
        assert (type(info.value), str(info.value)) == (InputError, message)

    def test_nonzero_diagonal_is_rejected_by_the_constructor(self):
        # every loader and transform normalizes first; a matrix built
        # directly with u(x, x) != 0 would break the sender graphs' bounds
        with pytest.raises(InputError, match="zero diagonal"):
            UtilityMatrix(Alphabet.of_size(2), ((Fraction(-1), Fraction(0)),
                                                (Fraction(0), Fraction(-1))))

    def test_nonzero_diagonal_is_normalized(self):
        U = utility_from_json({"utility": [[0, 1, 0], [0, 5, 0], [0, 2, 0]]})
        assert U.u[1][1] == 0
        # column 1 shifted down by 5
        assert U.u[0][1] == -4
        assert U.u[2][1] == -3

    def test_bad_inputs(self, tmp_path):
        with pytest.raises(InputError):
            utility_from_json({"utility": [[0, 1], [0, 0], [1, 1]]})
        with pytest.raises(InputError):
            utility_from_json({"alphabet": ["a"], "utility": [[0, 1], [1, 0]]})
        with pytest.raises(InputError):
            utility_from_json({"utility": []})
        with pytest.raises(InputError):
            utility_from_json([1, 2])
        with pytest.raises(InputError):
            utility_from_json({"utility": [5, [0, 1]]})
        with pytest.raises(InputError):
            utility_from_json({"alphabet": 5, "utility": [[0, 1], [1, 0]]})
        with pytest.raises(InputError):
            load_utility(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputError):
            load_utility(bad)

    def test_decimal_entries_exact(self, example1_prime):
        assert example1_prime.u[0][1] == Fraction(-5, 2)
        assert example1_prime.u[2][0] == Fraction(-3, 2)

    def test_alphabet_validation(self):
        with pytest.raises(InputError):
            Alphabet(())
        with pytest.raises(InputError):
            Alphabet(("a", "a"))
        assert Alphabet(("x", "y")).index_of("y") == 1
        with pytest.raises(InputError):
            Alphabet(("x",)).index_of("z")


class TestNormalization:
    def test_zero_diagonal_unchanged(self, example1):
        again = normalize_diagonal(example1.u, example1.alphabet)
        assert again.u == example1.u

    def test_column_shift(self):
        out = normalize_diagonal([[2, 1], [0, 3]])
        assert out.u == ((Fraction(0), Fraction(-2)), (Fraction(-2), Fraction(0)))

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(20):
            q = rng.randint(1, 4)
            raw = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                    for _ in range(q)] for _ in range(q)]
            once = normalize_diagonal(raw)
            twice = normalize_diagonal(once.u, once.alphabet)
            assert once.u == twice.u

    def test_best_responses_preserved(self):
        # normalization must not change which recoveries the sender prefers
        rng = random.Random(11)
        for _ in range(50):
            q = rng.randint(2, 3)
            raw = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(q)] for _ in range(q)]
            normalized = normalize_diagonal(raw)
            assert oracle_best_responses(raw, q) == \
                oracle_best_responses(normalized.u, q)


class TestBlockUtility:
    def test_paper_two_block(self, example1):
        assert block_utility(example1, (1, 0), (0, 1)) == 0

    def test_truthful_is_zero(self, example1):
        assert block_utility(example1, (2, 1, 0), (2, 1, 0)) == 0

    def test_variant_two_block_negative(self, example1_prime):
        assert block_utility(example1_prime, (1, 0), (0, 1)) == Fraction(-3, 4)

    def test_length_mismatch(self, example1):
        with pytest.raises(InputError):
            block_utility(example1, (0, 1), (0,))

    def test_rows_table_matches_pointwise(self, example1):
        rows = block_utility_rows(example1, 2)
        words = list(product(range(3), repeat=2))
        for x in range(9):
            for y in range(9):
                assert rows[x][y] == block_utility(example1, words[x], words[y])


def narrowest_type(bound: int):
    """The type that ``_sum_table`` gives a table with max|entry| * n =
    bound: the narrowest integer type that holds every sum of magnitude up
    to bound (int64 only below 2**62), else Python ints."""
    for dtype, top in ((np.int8, 2**7), (np.int16, 2**15), (np.int32, 2**31),
                       (np.int64, 2**62)):
        if bound < top:
            return np.dtype(dtype)
    return np.dtype(object)


def check_types_at_bound(top: int, narrow, wide, n: int):
    """On either side of top, on a 3 x 3 integer utility whose sums reach
    +-n * big: the letter table and its n-fold sums, also the library's
    ``_block_sums``, take the narrow type for the largest entry big below
    top / n and the wide one for big + 1,
    ``block_sums`` gives them as int64 or, past 2**62, Python ints, and
    every consumer of the sums matches its Fraction oracle on both sides:
    the block sums themselves, G_s^n and G_s^Sym,n, the subset search's
    triple masks (whose bound is 3 * n * big, so they are checked on either
    side of theirs), the survivor rule, the decoded sets and the noisy
    check."""
    rng = random.Random(top + n)
    words = list(product(range(3), repeat=n))
    for per_sum in (n, 3 * n):
        for big, dtype in (((top - 1) // per_sum, narrow), ((top - 1) // per_sum + 1, wide)):
            U = utility_from_json({"utility": [[0, big, -1], [-big, 0, big - 1],
                                               [big, -big + 1, 0]]})
            ints = [[int(v) for v in row] for row in oracle_block_sums(U, n)]
            if per_sum == 3 * n:
                masks = _triple_masks(_expand_rows(_sum_table(U.scaled_integer_entries[1],
                                                              3 * n), n))
                for a, b in product(range(len(words)), repeat=2):
                    assert masks[a][b] == sum(
                        1 << c for c in range(len(words)) if len({a, b, c}) == 3 and (
                            ints[b][a] + ints[c][b] + ints[a][c] >= 0
                            or ints[c][a] + ints[b][c] + ints[a][b] >= 0))
                continue
            summed = _expand_rows(_sum_table(U.scaled_integer_entries[1], n), n)
            assert summed.dtype == np.dtype(dtype) and summed.tolist() == ints
            assert _block_sums(U, n)[1].dtype == np.dtype(dtype)
            scale, sums = block_sums(U, n)
            assert scale == 1
            assert sums.dtype == (np.dtype(object) if dtype is object else np.int64)
            assert sums.tolist() == ints
            assert max(map(max, ints)) == n * big and min(map(min, ints)) == -n * big
            assert set(sender_graph(U, n).edges()) == oracle_sender_edges(U, n)
            assert (set(symmetric_sender_graph(U, n).edges())
                    == oracle_sender_edges(oracle_symmetric_part(U), n))
            nv = len(words)
            image = sorted(rng.sample(range(nv), rng.randint(1, nv)))
            assert _survivors(U, n, image) == tuple(
                x for x in image if all(ints[y][x] < 0 for y in image if y != x))
            g = ReceiverStrategy(n, tuple(rng.choice([None, *image]) for _ in range(nv)))
            outcome = worst_case_decoded_set(U, g)
            assert outcome.decoded_worst == tuple(
                x for x in g.image() if all(ints[y][x] < 0 for y in g.image() if y != x))
            channel = random_channel(rng, 3)
            noisy = verify_noisy_equilibrium(U, channel, g)
            assert ((noisy.decoded_worst, noisy.best_response_summary)
                    == oracle_noisy_outcome(U, channel, g))


class TestBlockSums:
    @given(st.integers(1, 4), st.integers(1, 3), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_oracle(self, q, n, rng):
        # the sums are int64, summed in the narrowest type that holds them
        U = random_utility(rng, q)
        nv = q**n
        rows = rng.sample(range(nv), rng.randint(0, nv))
        scale, sums = block_sums(U, n, rows)
        assert sums.shape == (len(rows), nv)
        assert sums.dtype == np.int64
        expected = oracle_block_sums(U, n, rows)
        assert [[Fraction(v, scale) for v in row] for row in sums.tolist()] == expected
        ints = U.scaled_integer_entries[1]
        table = _sum_table(ints, n)
        assert table.dtype == narrowest_type(max(abs(v) for row in ints for v in row) * n)
        assert _expand_rows(table, n, rows).tolist() == sums.tolist()

    @pytest.mark.parametrize("unit", [1, 2**70])
    def test_observed_rows_are_columns(self, unit):
        # rows naming observed sequences give the default table's columns,
        # in int64 and in Python ints alike
        rng = random.Random(29)
        for q, n in ((2, 3), (3, 2), (4, 1)):
            U = random_int_utility(rng, q, values=(-unit, 0, unit))
            rows = rng.sample(range(q**n), 3)
            scale, full = block_sums(U, n)
            scale_obs, cols = block_sums(U, n, rows, observed=True)
            assert scale_obs == scale and cols.dtype == full.dtype
            assert cols.tolist() == full[:, rows].T.tolist()

    def test_default_rows_are_all_sequences(self, example1_prime):
        scale, sums = block_sums(example1_prime, 2)
        assert (sums / scale).tolist() == oracle_block_sums(example1_prime, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dtype_switches_at_two_to_the_62(self, n):
        # the largest entry for which no block sum can reach 2**62 keeps
        # int64; one more moves every sum to Python ints
        check_types_at_bound(2**62, np.int64, object, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("top, narrow, wide", [(2**7, np.int8, np.int16),
                                                   (2**15, np.int16, np.int32),
                                                   (2**31, np.int32, np.int64)])
    def test_dtype_switches_at_each_narrow_bound(self, top, narrow, wide, n):
        # the largest entry for which no block sum can reach top keeps the
        # narrow type; one more moves every sum to the next wider one
        check_types_at_bound(top, narrow, wide, n)

    def test_fraction_entries_use_common_denominator(self):
        U = utility_from_json({"utility": [[0, "1/3"], ["-1/2", 0]]})
        scale, sums = block_sums(U, 2, [1, 2])
        assert scale == 6
        assert sums.tolist() == [[-3, 0, -1, 2], [-3, -1, 0, 2]]

    @pytest.mark.parametrize("unit", [1, 2**70])
    def test_whole_table_equals_all_rows(self, unit):
        # the whole-table form (no rows, Kronecker sums) against the rows
        # form over every sequence, in int64 and in Python ints alike
        rng = random.Random(31)
        dtypes = set()
        for q in (1, 2, 3, 4):
            for n in (1, 2, 3, 4):
                U = random_int_utility(rng, q, values=(-unit - 1, -unit, 0, unit))
                for observed in (False, True):
                    _, whole = block_sums(U, n, observed=observed)
                    _, rows = block_sums(U, n, range(q**n), observed=observed)
                    assert whole.shape == (q**n, q**n) and whole.dtype == rows.dtype
                    assert whole.tolist() == rows.tolist()
                    dtypes.add(whole.dtype)
        assert (np.dtype(object) in dtypes) == (unit > 1)

    def test_public_sums_are_int64_below_two_to_the_62(self):
        # sums that fit int8 still come out of block_sums as int64, so a
        # caller may add two of them: S + S^T reaches +-254 at n = 1
        U = utility_from_json({"utility": [[0, 127, -127], [127, 0, 1], [-127, 1, 0]]})
        assert _sum_table(U.scaled_integer_entries[1], 1).dtype == np.int8
        for n in (1, 2):
            ints = [[int(v) for v in row] for row in oracle_block_sums(U, n)]
            _, sums = block_sums(U, n)
            assert sums.dtype == np.int64
            assert (sums + sums.T).tolist() == [
                [a + b for a, b in zip(row, col)] for row, col in zip(ints, zip(*ints))]
            assert block_sums(U, n, [0], observed=True)[1].dtype == np.int64

    def test_validates(self, example1):
        with pytest.raises(InputError):
            block_sums(example1, 0)
        with pytest.raises(InputError):
            block_sums(example1, 2, [9])
        with pytest.raises(InputError):
            block_sums(example1, 2, [-1])


class TestSequenceLabels:
    def test_canonical_order_is_most_significant_first(self, example1):
        labels = sequence_labels(example1.alphabet, 2)
        assert labels[5] == "12"
        assert labels == tuple(f"{a}{b}" for a in "012" for b in "012")

    def test_named_indices_are_those_of_the_whole_table(self):
        for symbols, n in ((("0", "1", "2"), 3), (("ab", "c", "d"), 2), (("x",), 4)):
            alphabet = Alphabet(symbols)
            labels = sequence_labels(alphabet, n)
            picked = [i % len(labels) for i in (1, 5, len(labels) - 2, 0, 1)]
            assert sequence_labels(alphabet, n, picked) == tuple(labels[i] for i in picked)
            assert sequence_labels(alphabet, n, ()) == ()

    def test_indices_outside_the_words_are_refused(self):
        # at q = 2, n = 2 index 4 was named "00" and index -1 "11"
        alphabet = Alphabet(("0", "1"))
        assert sequence_labels(alphabet, 2, [0, 3]) == ("00", "11")
        for index in (4, -1, 2**70):
            with pytest.raises(InputError, match="out of range for q=2, n=2"):
                sequence_labels(alphabet, 2, [1, index])

    @pytest.mark.parametrize("symbols", [("a", "b", "c", "d", "e"), ("ab", "c", "def", "g", "hi")],
                             ids=["one-character", "multi-character"])
    def test_labels_are_the_joined_words(self, symbols):
        # the labels read from the whole table that iter_product joins, for
        # indices passed in every form a caller uses
        rng = random.Random(271)
        forms = (list, tuple, lambda p: (i for i in p), lambda p: np.array(p, dtype=np.int64))
        for q in range(1, 6):
            alphabet = Alphabet(symbols[:q])
            for n in range(1, 5):
                words = oracle_sequence_labels(alphabet.symbols, n)
                assert sequence_labels(alphabet, n) == words
                assert sequence_labels(alphabet, n, range(q**n)) == words
                picked = [rng.randrange(q**n) for _ in range(12)]
                for form in forms:
                    assert sequence_labels(alphabet, n, form(picked)) == tuple(
                        words[i] for i in picked)
                with pytest.raises(InputError, match=f"out of range for q={q}, n={n}"):
                    sequence_labels(alphabet, n, [*picked, q**n])

    def test_the_cap_is_checked_before_any_index_is_read(self):
        def unread():
            raise AssertionError("an index was read")
            yield

        for symbols in (("a", "b"), ("ab", "c")):
            for indices in (None, unread()):
                with pytest.raises(CapExceededError):
                    sequence_labels(Alphabet(symbols), 10**7, indices)

    def test_long_symbols_join_with_commas(self):
        # a symbol longer than one character joins every label with commas
        symbols = ("ab", "c", "d")
        assert sequence_labels(Alphabet(symbols), 2)[5] == "c,d"
        labels = sequence_labels(Alphabet(symbols), 3)
        assert labels[5] == "ab,c,d"
        assert labels == tuple(map(",".join, product(symbols, repeat=3)))

    @pytest.mark.parametrize("symbols", [("a", "a,a"), (",", "ab"), ("0", "1", "x,")])
    def test_a_comma_in_a_comma_joined_label_is_refused(self, symbols):
        # once "a,a" gave the label "a,a,a" to both ("a", "a,a") and ("a,a", "a")
        with pytest.raises(InputError, match="contains ','"):
            Alphabet(symbols)
        q = len(symbols)
        with pytest.raises(InputError, match="contains ','"):
            utility_from_json({"alphabet": list(symbols), "utility": [[0] * q] * q})

    def test_a_one_character_comma_stays_legal(self):
        # every symbol is one character, so the labels join with ""
        labels = sequence_labels(Alphabet((",", "a")), 2)
        assert labels == (",,", ",a", "a,", "aa")

    def test_labels_of_mixed_alphabets_are_distinct(self):
        rng = random.Random(38)
        pool = ["a", "b", ",", "ab", "ba", "a,", ",b", "abc", ""]
        legal = 0
        for _ in range(200):
            symbols = tuple(rng.sample(pool, rng.randint(1, 4)))
            joined = any(len(s) != 1 for s in symbols)
            if joined and any("," in s for s in symbols):
                with pytest.raises(InputError):
                    Alphabet(symbols)
                continue
            legal += 1
            for n in (1, 2, 3):
                labels = sequence_labels(Alphabet(symbols), n)
                assert len(set(labels)) == len(symbols) ** n
        assert legal >= 50


def _antisymmetric_part(U):
    return [[(U.u[i][j] - U.u[j][i]) / 2 for j in range(U.q)] for i in range(U.q)]


class TestDecomposition:
    """The tests' reference for G_s^Sym, ``conftest.oracle_symmetric_part``,
    splits u into its symmetric and antisymmetric parts."""

    def test_symmetric_input(self):
        U = utility_from_json({"utility": [[0, -1], [-1, 0]]})
        assert oracle_symmetric_part(U).u == U.u
        assert all(x == 0 for row in _antisymmetric_part(U) for x in row)

    def test_pentagon_paper_values(self, pentagon_literal):
        sym = oracle_symmetric_part(pentagon_literal)
        assert sym.u[0][1] == 0
        assert sym.u[0][2] == -1

    def test_reconstructs_exactly(self):
        rng = random.Random(3)
        for _ in range(25):
            U = random_utility(rng, rng.randint(1, 5))
            sym = oracle_symmetric_part(U)
            asym = _antisymmetric_part(U)
            for i in range(U.q):
                for j in range(U.q):
                    assert sym.u[i][j] + asym[i][j] == U.u[i][j]
                    assert sym.u[i][j] == sym.u[j][i]
                    assert asym[i][j] == -asym[j][i]

    def test_decomposition_unique(self):
        rng = random.Random(5)
        U = random_utility(rng, 4)
        sym = oracle_symmetric_part(U)
        assert oracle_symmetric_part(sym).u == sym.u
        assert all(x == 0 for row in _antisymmetric_part(sym) for x in row)


class TestPerMatrixTables:
    def test_computed_once_and_immutable(self):
        U = random_utility(random.Random(9), 4)
        scale, ints = U.scaled_integer_entries
        assert U.scaled_integer_entries is U.scaled_integer_entries
        assert isinstance(ints, tuple) and all(isinstance(row, tuple) for row in ints)
        assert all(Fraction(ints[i][j], scale) == U.u[i][j] for i in range(4) for j in range(4))
        assert U == utility_from_json(U.to_json_dict())  # the caches are not fields

    def test_integers_match_the_fraction_formula(self):
        # scale is the least common denominator and scale * u is read from
        # each entry's own numerator and denominator; the Fraction products
        # int(x * scale) give the same integers
        rng = random.Random(17)
        for trial in range(60):
            q = rng.randint(1, 5)
            top = 10 ** rng.choice((1, 6, 30))
            rows = [[Fraction(0) if i == j else Fraction(rng.randint(-top, top),
                                                        rng.randint(1, top))
                     for j in range(q)] for i in range(q)]
            U = UtilityMatrix(Alphabet.of_size(q), tuple(map(tuple, rows)))
            scale = 1
            for row in rows:
                for x in row:
                    scale = scale * x.denominator // gcd(scale, x.denominator)
            assert U.scaled_integer_entries == (
                scale, tuple(tuple(int(x * scale) for x in row) for row in rows))


class TestCappedUtilities:
    """``capped_max`` of conftest, one of the dominating utilities that
    ``test_dominating_utilities_never_win`` compares U with."""

    def test_sign_classes(self):
        U = utility_from_json(
            {"utility": [[0, 1, -1], [0, 0, -4], [-4, 1, 0]]})
        capped = capped_max(U)
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert capped.u[i][j] == 0
                elif U.u[i][j] >= 0:
                    assert capped.u[i][j] == 1
                else:
                    assert capped.u[i][j] == -1

    def test_two_valued_fixed_point(self):
        U = utility_from_json({"utility": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]})
        assert capped_max(U).u == U.u

    def test_example1_extrema(self, example1):
        capped = capped_max(example1)
        offdiag = {capped.u[i][j] for i in range(3) for j in range(3) if i != j}
        assert offdiag == {Fraction(1), Fraction(-1)}

    def test_ordering(self):
        rng = random.Random(13)
        for _ in range(30):
            U = random_utility(rng, rng.randint(2, 5))
            hi = capped_max(U)
            for i in range(U.q):
                for j in range(U.q):
                    assert U.u[i][j] <= hi.u[i][j]

    def test_all_negative_class_skip(self):
        U = utility_from_json({"utility": [[0, -3], [-1, 0]]})
        assert capped_max(U).u == ((0, -1), (-1, 0))


class TestIncremented:
    """``incremented`` of conftest, the other dominating utility."""

    def test_symmetric_unchanged(self):
        U = utility_from_json({"utility": [[0, -2], [-2, 0]]})
        assert incremented(U).u == U.u

    def test_hand_computed_pair(self):
        U = utility_from_json({"utility": [[0, 1], [-4, 0]]})
        inc = incremented(U)
        assert inc.u[0][1] == 1
        assert inc.u[1][0] == 1

    def test_antisymmetric_becomes_absolute(self):
        U = utility_from_json({"utility": [[0, 3, -1], [-3, 0, 2], [1, -2, 0]]})
        inc = incremented(U)
        for i in range(3):
            for j in range(3):
                assert inc.u[i][j] == abs(U.u[i][j])

    def test_symmetric_and_dominating(self):
        rng = random.Random(17)
        for _ in range(25):
            U = random_utility(rng, rng.randint(2, 4))
            inc = incremented(U)
            assert inc.is_symmetric()
            for i in range(U.q):
                for j in range(U.q):
                    assert inc.u[i][j] >= U.u[i][j]


class TestUtilityFromGraph:
    def test_edgeless(self):
        U = utility_from_graph(empty_graph(3))
        assert all(U.u[i][j] == -1 for i in range(3) for j in range(3) if i != j)

    def test_pentagon_zeros_on_edges(self):
        c5 = cycle_graph(5)
        U = utility_from_graph(c5)
        for i in range(5):
            for j in range(5):
                expected = 0 if i == j or c5.has_edge(i, j) else -1
                assert U.u[i][j] == expected
        assert sender_graph(U, 1).rows == c5.rows

    def test_complete_graph_all_zero(self):
        U = utility_from_graph(complete_graph(4))
        assert all(x == 0 for row in U.u for x in row)


def test_everything_stays_rational(example1, pentagon):
    for U in (example1, pentagon, capped_max(example1), incremented(example1),
              oracle_symmetric_part(pentagon)):
        for row in U.u:
            for x in row:
                assert isinstance(x, Fraction)


def test_json_round_trip(pentagon, tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps(pentagon.to_json_dict()))
    again = load_utility(path)
    assert again.u == pentagon.u
    assert again.alphabet == pentagon.alphabet
