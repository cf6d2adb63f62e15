"""Seeded property tests for the shared building blocks: the one reduction
loop and its trace, the system and presentation file formats, the
shortlex enumerator behind ``enumerate_elements``, and the certificates of
the equality oracle."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rewritekit.analysis import enumerate_elements, equal_in_monoid
from rewritekit.rewrite import (
    FuelExhausted,
    Presentation,
    Rule,
    RewritingSystem,
    _reduce,
    format_presentation_file,
    format_system_file,
    normal_form,
    parse_presentation_file,
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


def _moves(equations, w, cap):
    """Every word one equation application (either direction) away from w
    within the length cap."""
    return [w[:p] + new + w[p + len(old):]
            for lhs, rhs in equations for old, new in ((lhs, rhs), (rhs, lhs))
            if len(w) - len(old) + len(new) <= cap
            for p in range(len(w) - len(old) + 1) if w.startswith(old, p)]


@settings(max_examples=300)
@given(st.lists(st.tuples(_words("ab", 0, 3), _words("ab", 0, 3)), min_size=1,
                max_size=3),
       _words("ab", 0, 5), st.integers(0, 4), st.lists(st.integers(0, 99), max_size=6),
       st.sampled_from(("steps", "space")))
def test_equal_certificates_replay_within_the_bound(equations, x, extra, walk,
                                                     minimize):
    """y is a random walk from x within the bound, so the pair is equal
    within it; the certificate must join x to y by recorded applications
    and be no longer, in steps or in space, than the walk."""
    pres = Presentation(Alphabet(("a", "b")), tuple(equations))
    bound = len(x) + extra
    path = [x]
    for choice in walk:
        moves = _moves(pres.equations, path[-1], bound)
        if moves:
            path.append(moves[choice % len(moves)])
    y = path[-1]
    outcome = equal_in_monoid(pres, x, y, bound, node_budget=5000, minimize=minimize)
    assert outcome.status == "equal"
    cert = outcome.certificate
    assert cert.replay(pres)
    assert (cert.chain[0], cert.chain[-1]) == (x, y)
    assert cert.s <= bound
    if minimize == "steps":
        assert cert.d <= len(path) - 1
    else:
        assert cert.s <= max(map(len, path))
