import itertools
import random

import pytest

from rewritekit.confluence import _pairs_for_rules
from rewritekit.words import (
    Alphabet,
    WordSyntaxError,
    _random_words,
    alphabet,
    find_occurrences,
    parse_word,
    print_word,
)

AB = alphabet("ab")
ABX = alphabet("abx")


def naive_occurrences(haystack, needle):
    return [i for i in range(len(haystack) - len(needle) + 1)
            if haystack[i:i + len(needle)] == needle]


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_rejects_multichar(self):
        with pytest.raises(ValueError):
            Alphabet(("ab",))

    def test_validate_word(self):
        assert AB.validate_word("abba") == "abba"
        with pytest.raises(WordSyntaxError):
            AB.validate_word("abc")


class TestParseWord:
    def test_literal(self):
        assert parse_word("abab", AB) == "abab"

    def test_exponents(self):
        assert parse_word("x^2b^2", ABX) == "xxbb"
        assert parse_word("a^2b^2ab^2", AB) == "aabbabb"

    def test_empty(self):
        assert parse_word("", AB) == ""

    def test_unknown_letter(self):
        with pytest.raises(WordSyntaxError):
            parse_word("abc", AB)

    def test_malformed_exponent(self):
        with pytest.raises(WordSyntaxError):
            parse_word("a^", AB)
        with pytest.raises(WordSyntaxError):
            parse_word("a^b", AB)

    def test_zero_exponent_rejected(self):
        with pytest.raises(WordSyntaxError):
            parse_word("a^0b", AB)

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(500):
            w = "".join(rng.choice("abx") for _ in range(rng.randint(0, 12)))
            assert parse_word(print_word(w), ABX) == w

    def test_print_examples(self):
        assert print_word("xxb") == "x^2b"
        assert print_word("aabbabb") == "a^2b^2ab^2"
        assert print_word("") == ""


class TestFindOccurrences:
    def test_simple(self):
        assert find_occurrences("abab", "ab") == [0, 2]

    def test_overlapping(self):
        assert find_occurrences("aaa", "aa") == [0, 1]

    def test_factor_across_blocks(self):
        assert find_occurrences("xxbxxbx", "xxbx") == [0, 3]

    def test_empty_needle_rejected(self):
        with pytest.raises(ValueError):
            find_occurrences("ab", "")

    def test_matches_naive_scan(self):
        rng = random.Random(11)
        for _ in range(500):
            hay = "".join(rng.choice("ab") for _ in range(rng.randint(0, 15)))
            needle = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
            assert find_occurrences(hay, needle) == naive_occurrences(hay, needle)


class TestOverlaps:
    """Overlaps as the one overlap finder, ``confluence._pairs_for_rules``,
    turns them into critical pairs."""

    @staticmethod
    def found(rules):
        return [(cp.source, cp.kind, cp.pos_j) for cp in _pairs_for_rules(rules)]

    def test_self_overlap(self):
        # abab overlaps itself in ab: the staircase ababab
        assert self.found([("abab", "b")]) == [("ababab", "suffix_prefix", 2)]

    def test_no_self_overlap(self):
        assert self.found([("ababb", "b")]) == []

    def test_one_letter_staircase(self):
        # suffix "b" of ab equals prefix "b" of ba: the word aba reduces two ways
        assert ("aba", "suffix_prefix", 1) in self.found([("ab", "a"), ("ba", "b")])

    def test_interior_containment(self):
        assert ("aba", "containment", 1) in self.found([("aba", "a"), ("b", "a")])

    def test_equal_left_sides_give_one_containment_pair(self):
        [cp] = _pairs_for_rules([("ab", "a"), ("ab", "b")])
        assert (cp.source, {cp.left, cp.right}, cp.kind, cp.pos_j) == (
            "ab", {"a", "b"}, "containment", 0)

    def test_relator_self_overlap_matches_classification(self):
        # a^A b^B a^C b^D overlaps itself iff B >= D and C >= A
        from rewritekit import Case, classify

        for a, b, g, d in itertools.product(range(1, 5), repeat=4):
            tag, params = classify(a, b, g, d)
            has_overlap = bool(_pairs_for_rules([(params.relator, "b")]))
            assert has_overlap == (tag.variant != Case.NO_OVERLAP)


def test_random_words_draw_a_length_then_its_letters():
    # Dehn-table random seeds and the Case2 termination probe draw this way
    rng = random.Random(3)
    expected = []
    for _ in range(50):
        n = rng.randint(2, 5)
        expected.append("".join(rng.choice("ab") for _ in range(n)))
    assert list(_random_words("ab", 50, 2, 5, seed=3)) == expected
    assert all(2 <= len(w) <= 5 for w in expected)
