"""Discrete memoryless channels with exact row-stochastic transition matrices.

Zero-error questions depend only on the support sets, so positivity is
decided exactly on the stored rationals; no epsilon thresholds anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .utility import Alphabet, _read_json, _render_rational, alphabet_from_json, parse_rational


@dataclass(frozen=True)
class Channel:
    """Row-stochastic q x q transition matrix; rows[y][z] = P(z | y)."""

    alphabet: Alphabet
    rows: tuple[tuple[Fraction, ...], ...]
    support: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.alphabet.q

    def prob(self, z: int, y: int) -> Fraction:
        return self.rows[y][z]

    def is_noiseless(self) -> bool:
        return all(self.support[y] == 1 << y for y in range(self.q))

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet.symbols),
            "rows": [[_render_rational(x) for x in row] for row in self.rows],
        }


def make_channel(alphabet: Alphabet, rows) -> Channel:
    q = alphabet.q
    parsed = []
    for y, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"channel row {y} is not a list: {row!r}")
        if len(row) != q:
            raise InputError(f"channel row {y} has {len(row)} entries, expected {q}")
        entries = tuple(parse_rational(x) for x in row)
        if any(x < 0 for x in entries):
            raise InputError(f"channel row {y} has a negative probability")
        if sum(entries) != 1:
            raise InputError(f"channel row {y} sums to {sum(entries)}, expected 1")
        parsed.append(entries)
    if len(parsed) != q:
        raise InputError(f"channel must have {q} rows, got {len(parsed)}")
    support = tuple(
        sum(1 << z for z, x in enumerate(row) if x > 0) for row in parsed
    )
    return Channel(alphabet, tuple(parsed), support)


def channel_from_json(obj) -> Channel:
    if not isinstance(obj, dict) or not isinstance(obj.get("rows"), list):
        raise InputError('channel JSON must be an object with a "rows" matrix')
    rows = obj["rows"]
    return make_channel(alphabet_from_json(obj, len(rows)), rows)


def load_channel(path) -> Channel:
    return channel_from_json(_read_json(path, "channel"))


def identity_channel(alphabet: Alphabet) -> Channel:
    q = alphabet.q
    rows = [[Fraction(1) if z == y else Fraction(0) for z in range(q)] for y in range(q)]
    return make_channel(alphabet, rows)
