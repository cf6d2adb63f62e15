"""Alphabets, words, and factor search over free monoids.

A word is a plain Python string whose characters are letters of an
:class:`Alphabet`; the empty string is the monoid identity.  All values
are immutable, so words and alphabets can be shared freely between
threads and workers.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import groupby

Word = str

# One term of word syntax: any character (so a foreign one can be named),
# then optionally ``^`` and its exponent's ASCII digits.  Matched back to
# back, the terms cover the whole text.
_TERM = re.compile(r"(.)(\^([0-9]*))?", re.DOTALL)


class WordSyntaxError(ValueError):
    """Malformed word text, or a letter outside the intended alphabet."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered collection of distinct single-character letters, each
    alphabetic (so ``1``, ``^``, ``#`` and separators stay syntax).

    The construction order is fixed and doubles as the default letter
    precedence (earlier letter = greater) and as the enumeration order
    for shortlex listings (earlier letter = listed first).
    """

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("alphabet must contain at least one letter")
        for letter in self.letters:
            if len(letter) != 1 or not letter.isalpha():
                raise ValueError(f"letters must be single alphabetic characters, got {letter!r}")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"duplicate letters in {self.letters!r}")

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def validate_word(self, word: Word) -> Word:
        """Return ``word`` unchanged, raising if any letter is foreign."""
        for ch in word:
            if ch not in self.letters:
                raise WordSyntaxError(f"letter {ch!r} not in alphabet {''.join(self.letters)!r}")
        return word


def alphabet(letters: str) -> Alphabet:
    """Convenience constructor: ``alphabet("abx")``."""
    return Alphabet(tuple(letters))


def parse_word(text: str, alpha: Alphabet) -> Word:
    """Expand concrete word syntax like ``a^2b^2ab^2`` to a letter string.

    The syntax is ``letter(^exponent)?`` repeated, where an exponent is
    ASCII digits with value >= 1 (leading zeros allowed); the empty
    string and the text ``1`` denote the identity.  Round-trips with
    :func:`print_word` and with the report form :func:`report_word`.
    Malformed text raises :class:`WordSyntaxError`, and so does an
    exponent too large for a string length.
    """
    if text == "1":
        return ""
    out: list[str] = []
    for ch, power, digits in _TERM.findall(text):
        if ch not in alpha:
            raise WordSyntaxError(f"unknown letter {ch!r} in {text!r}")
        if power == "^":
            raise WordSyntaxError(f"malformed exponent after {ch!r} in {text!r}")
        if power and not digits.lstrip("0"):
            raise WordSyntaxError(f"exponent 0 not allowed in {text!r}")
        try:
            out.append(ch * int(digits or 1))
        except (ValueError, OverflowError):  # past the int-string limit, or sys.maxsize
            raise WordSyntaxError(f"exponent too large after {ch!r} in {text!r}") from None
    return "".join(out)


def _parse_pair_file(text: str, kind: str, item: str, sep: str, make):
    """Read the layout shared by system and presentation files.

    Blank lines and ``#`` comments are skipped; the first line is
    ``letters: ...`` and every other line is ``lhs <sep> rhs``.  Each line
    becomes ``make(lhs, rhs)``; ``kind`` and ``item`` name the file and its
    lines in error messages.  Returns ``(alphabet, items)``.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("letters:"):
        raise ValueError(f"{kind} file must start with a 'letters:' line")
    alpha = Alphabet(tuple(lines[0].split(":", 1)[1].split()))
    items = []
    for ln in lines[1:]:
        if sep not in ln:
            raise ValueError(f"bad {item} line {ln!r}")
        lhs_text, rhs_text = ln.split(sep, 1)
        items.append(make(parse_word(lhs_text.strip(), alpha),
                          parse_word(rhs_text.strip(), alpha)))
    return alpha, tuple(items)


def print_word(word: Word) -> str:
    """Compress runs of a word into ``^`` notation, e.g. ``xxb`` -> ``x^2b``."""
    runs = ((ch, len(list(run))) for ch, run in groupby(word))
    return "".join(ch if n == 1 else f"{ch}^{n}" for ch, n in runs)


def report_word(word: Word) -> str:
    """How every report prints a word: :func:`print_word`, except that the
    identity prints as ``1``."""
    return print_word(word) or "1"


def find_occurrences(haystack: Word, needle: Word) -> list[int]:
    """All start positions of ``needle`` in ``haystack``, overlapping included."""
    if not needle:
        raise ValueError("needle must be non-empty")
    out: list[int] = []
    pos = haystack.find(needle)
    while pos != -1:
        out.append(pos)
        pos = haystack.find(needle, pos + 1)
    return out


def _shortlex_words(letters, max_length: int, prune=None):
    """Words over ``letters`` of length 0..max_length in shortlex order
    (shorter first, then by letter position).  A word for which
    ``prune(word)`` is true is skipped together with all its extensions."""
    frontier = [""]
    for length in range(max_length + 1):
        if length:
            frontier = [w + c for w in frontier for c in letters]
        if prune is not None:
            frontier = [w for w in frontier if not prune(w)]
        yield from frontier


def _random_words(letters, count: int, min_length: int, max_length: int, seed: int):
    """``count`` seeded random words over ``letters``: each draws its length
    uniformly from min_length..max_length, then each letter uniformly."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(min_length, max_length)
        yield "".join(rng.choice(letters) for _ in range(n))
