"""Seeded property tests for the shared building blocks: the one reduction
loop and its trace, the system and presentation file formats, and the
shortlex enumerator behind ``enumerate_elements``."""

import itertools

import pytest
from hypothesis import given, strategies as st

from rewritekit.analysis import enumerate_elements
from rewritekit.family import (
    Presentation,
    format_presentation_file,
    parse_presentation_file,
)
from rewritekit.rewrite import (
    FuelExhausted,
    Rule,
    RewritingSystem,
    _reduce,
    format_system_file,
    normal_form,
    parse_system_file,
    rewrite_step,
)
from rewritekit.words import Alphabet, _shortlex_words, parse_word, print_word

LETTER_SETS = ("ab", "abx", "pqrs")


def _words(letters, min_size=0, max_size=6):
    return st.lists(st.sampled_from(letters), min_size=min_size,
                    max_size=max_size).map("".join)


@st.composite
def _systems(draw, shrinking=False):
    """A system over one of LETTER_SETS; with ``shrinking`` every rule is
    length-reducing, so every reduction terminates."""
    letters = draw(st.sampled_from(LETTER_SETS))
    pairs = []
    for lhs in draw(st.lists(_words(letters, 1, 4), max_size=5)):
        rhs = draw(_words(letters, 0, len(lhs) - 1 if shrinking else 4))
        if rhs != lhs:
            pairs.append((lhs, rhs))
    return RewritingSystem(Alphabet(tuple(letters)),
                           tuple(Rule(l, r) for l, r in dict.fromkeys(pairs)))


@given(_systems(shrinking=True), st.data())
def test_normal_form_trace_replays_the_reduction(system, data):
    w = data.draw(_words(system.alphabet.letters, 0, 12))
    nf, trace = normal_form(system, w)
    assert trace.replay(system, w)
    assert (trace.steps[-1][2] if trace.steps else w) == nf
    assert _reduce(system.rule_pairs(), w, 10**6) == nf
    # the trace is the rewrite_step sequence, one entry per step
    stepped, u = [], w
    while (step := rewrite_step(system, u)) is not None:
        u = step[0]
        stepped.append((step[1], step[2], u))
    assert list(trace.steps) == stepped
    if trace.steps:  # the fuel covers exactly the recorded steps
        assert normal_form(system, w, fuel=len(trace.steps))[0] == nf
        with pytest.raises(FuelExhausted):
            _reduce(system.rule_pairs(), w, len(trace.steps) - 1)


@given(_systems())
def test_system_file_round_trip(system):
    assert parse_system_file(format_system_file(system)) == system


@given(st.sampled_from(LETTER_SETS).flatmap(lambda letters: st.tuples(
    st.just(letters),
    st.lists(st.tuples(_words(letters), _words(letters)), max_size=4))))
def test_presentation_file_round_trip(drawn):
    letters, equations = drawn
    pres = Presentation(Alphabet(tuple(letters)), tuple(equations))
    assert parse_presentation_file(format_presentation_file(pres)) == pres


@given(st.sampled_from(LETTER_SETS).flatmap(lambda letters: st.tuples(
    st.just(Alphabet(tuple(letters))), _words(letters, 0, 20))))
def test_word_print_parse_round_trip(drawn):
    alpha, w = drawn
    assert parse_word(print_word(w), alpha) == w


@given(_systems(), st.integers(0, 5))
def test_enumerate_elements_is_filtered_shortlex(system, n):
    letters = system.alphabet.letters
    full = list(_shortlex_words(letters, n))
    assert full == ["".join(t) for k in range(n + 1)
                    for t in itertools.product(letters, repeat=k)]
    assert enumerate_elements(system, n, allow_uncertified=True) == [
        w for w in full if rewrite_step(system, w) is None]
