import json
from fractions import Fraction

import pytest

from ixcap.channel import channel_from_json, identity_channel, load_channel, make_channel
from ixcap.errors import InputError
from ixcap.utility import Alphabet

AB = Alphabet.of_size(2)


class TestMakeChannel:
    def test_exact_entries(self):
        ch = make_channel(AB, [["1/3", "2/3"], [0.1, 0.9]])
        assert ch.rows == ((Fraction(1, 3), Fraction(2, 3)),
                           (Fraction(1, 10), Fraction(9, 10)))
        assert ch.prob(1, 0) == Fraction(2, 3)

    @pytest.mark.parametrize("rows", [
        [[-1, 2], [0, 1]],  # negative probability
        [[1, 0, 0], [0, 1]],  # row of the wrong length
        [[1], [0, 1]],
        [["1/2", "1/3"], [0, 1]],  # row sums to 5/6
        [[0.5, 0.6], [0, 1]],
        [[1, 0]],  # one row short
        [[1, 0], [0, 1], [1, 0]],  # one row too many
        [["x", 1], [0, 1]],  # not a number
        [[True, False], [0, 1]],
    ])
    def test_rejects_bad_rows(self, rows):
        with pytest.raises(InputError):
            make_channel(AB, rows)

    def test_supports(self):
        ch = make_channel(Alphabet.of_size(3),
                          [["1/2", "1/2", 0], [0, 1, 0], ["1/4", 0, "3/4"]])
        assert ch.support == (0b011, 0b010, 0b101)
        assert not ch.is_noiseless()

    def test_permutation_is_not_noiseless(self):
        # noiseless means each input reaches only itself
        assert not make_channel(AB, [[0, 1], [1, 0]]).is_noiseless()

    def test_identity(self):
        ch = identity_channel(Alphabet(("a", "b", "c")))
        assert ch.is_noiseless()
        assert ch.support == (1, 2, 4)
        assert ch.rows == tuple(tuple(Fraction(int(y == z)) for z in range(3))
                                for y in range(3))
        assert ch.to_json_dict() == {"alphabet": ["a", "b", "c"],
                                     "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


class TestChannelJson:
    def test_round_trip(self):
        ch = make_channel(Alphabet(("x", "y")), [["1/3", "2/3"], [0, 1]])
        back = channel_from_json(ch.to_json_dict())
        assert back == ch
        assert ch.to_json_dict()["rows"] == [["1/3", "2/3"], [0, 1]]

    def test_default_alphabet(self):
        ch = channel_from_json({"rows": [[1, 0], [0, 1]]})
        assert ch.alphabet == AB

    @pytest.mark.parametrize("obj", [
        [[1, 0], [0, 1]],  # not an object
        {"matrix": [[1, 0], [0, 1]]},  # no "rows"
        {"alphabet": ["a", "b", "c"], "rows": [[1, 0], [0, 1]]},  # size mismatch
        {"alphabet": ["a", "a"], "rows": [[1, 0], [0, 1]]},  # repeated labels
        {"alphabet": ["a", "a,a"], "rows": [[1, 0], [0, 1]]},  # a comma in joined labels
        {"rows": [[1, 0], [1, 1]]},
        {"rows": 7},  # not a list of rows
        {"rows": [5, [0, 1]]},  # a row that is not a list
        {"alphabet": 5, "rows": [[1, 0], [0, 1]]},  # not a list of symbols
    ])
    def test_rejects_bad_objects(self, obj):
        with pytest.raises(InputError):
            channel_from_json(obj)

    def test_load_reads_decimals_exactly(self, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text('{"rows": [[0.1, 0.9], ["1/3", "2/3"]]}')
        ch = load_channel(path)
        assert ch.rows[0] == (Fraction(1, 10), Fraction(9, 10))
        assert ch.rows[1] == (Fraction(1, 3), Fraction(2, 3))

    @pytest.mark.parametrize("text", [
        "{not json",
        json.dumps({"rows": [[0.5, 0.6], [0, 1]]}),
        json.dumps({"rows": "identity"}),
    ])
    def test_load_rejects_bad_files(self, tmp_path, text):
        path = tmp_path / "ch.json"
        path.write_text(text)
        with pytest.raises(InputError):
            load_channel(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_channel(tmp_path / "missing.json")
