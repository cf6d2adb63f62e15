"""Seeded property tests for the shared building blocks: the one reduction
loop, its trace and its two matchers, the system and presentation file
formats, the shortlex enumerator behind ``enumerate_elements``, the
certificates of the equality oracle, the weighted-shortlex reduction order
and its search, and the Dehn tables' distance search."""

import itertools
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from rewritekit import rewrite
from rewritekit.analysis import dehn_table, enumerate_elements, equal_in_monoid
from rewritekit.rewrite import (
    FuelExhausted,
    LESS,
    Presentation,
    ReductionOrder,
    Rule,
    RewritingSystem,
    _leftmost_match,
    _matcher,
    _reduce,
    compare,
    find_termination_order,
    format_presentation_file,
    format_system_file,
    normal_form,
    parse_presentation_file,
    parse_system_file,
    rewrite_step,
    verify_termination,
)
from rewritekit.words import Alphabet, _shortlex_words, parse_word, print_word
from tests.conftest import (reference_dehn_rows, reference_order_scan,
                            weight_needed)

LETTER_SETS = ("ab", "abx", "pqrs")


def _words(letters, min_size=0, max_size=6):
    return st.lists(st.sampled_from(letters), min_size=min_size,
                    max_size=max_size).map("".join)


@st.composite
def _systems(draw, shrinking=False, letter_sets=LETTER_SETS):
    """A system over one of ``letter_sets``; with ``shrinking`` every rule
    is length-reducing, so every reduction terminates."""
    letters = draw(st.sampled_from(letter_sets))
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


@given(st.lists(st.tuples(_words("ab", 1, 4), _words("abx", 0, 3)), max_size=24),
       _words("abx", 0, 12), st.integers(0, 30))
@example([("abb", ""), ("b", "a")], "xabbx", 5)  # a match inside a longer one
@example([("aaba", ""), ("ab", "b")], "aabx", 5)  # a match that ends a longer prefix
@example([("abb", "a"), ("ab", "")], "abb", 5)  # the same start, a lower index
@example([("ab", "a"), ("ab", "")], "bab", 5)  # a repeated lhs
@example([("ab", "a")], "", 5)
@example([], "ab", 5)
def test_automaton_matches_like_the_find_scan(pairs, w, fuel):
    """With every list long enough for the automaton, ``_matcher`` gives
    it exactly the flat lists, those in which no lhs ends inside another;
    on those it finds the match the per-rule ``str.find`` scan finds.
    ``_reduce`` gives the same normal form and trace, or runs out of the
    same fuel at the same word, with or without the automaton.  The lhs
    words share the letters a and b, so one often lies inside another or
    repeats with a different rhs; no lhs uses x.  The first three
    examples are nested lists, the repeated lhs a flat one."""
    nested = any(u in v[:-1] for u, _ in pairs for v, _ in pairs)
    with patch.object(rewrite, "FIND_SCAN_MAX_RULES", -1):
        automaton = _matcher(pairs)
    assert (automaton is None) == nested
    if automaton is not None:
        assert automaton.match(w, [0], 0) == _leftmost_match(pairs, w)

    def reduced(cutoff):
        trace = []
        with patch.object(rewrite, "FIND_SCAN_MAX_RULES", cutoff):
            try:
                return _reduce(pairs, w, fuel, trace), trace
            except FuelExhausted as exc:
                return exc.args, trace

    assert reduced(-1) == reduced(len(pairs))


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
    assert parse_word(print_word(w) or "1", alpha) == w  # the report form


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


def _walk(equations, x, cap, choices):
    """A random walk from x by equation applications within the length cap:
    each choice picks one of the current word's moves, if it has any."""
    path = [x]
    for choice in choices:
        moves = _moves(equations, path[-1], cap)
        if moves:
            path.append(moves[choice % len(moves)])
    return path


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
    path = _walk(pres.equations, x, bound, walk)
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


@settings(max_examples=500)
@given(st.lists(st.tuples(_words("ab", 0, 3), _words("ab", 0, 3)), min_size=1,
                max_size=2),
       _words("ab", 0, 5), st.integers(0, 4), st.lists(st.integers(0, 99), max_size=6))
def test_budget_cut_certificates_stay_minimal(equations, x, extra, walk):
    """An ``equal`` answer under a node budget of 3 to 40 is as minimal as
    one under the default budget: steps mode keeps the least ``d``, and
    space mode the ``s`` of the least cap at which x and y are equal."""
    pres = Presentation(Alphabet(("a", "b")), tuple(equations))
    bound = len(x) + extra
    y = _walk(pres.equations, x, bound, walk)[-1]
    d = equal_in_monoid(pres, x, y, bound).certificate.d
    s = next(cap for cap in range(max(len(x), len(y)), bound + 1)
             if equal_in_monoid(pres, x, y, cap).status == "equal")
    for budget in range(3, 41):
        steps = equal_in_monoid(pres, x, y, bound, node_budget=budget)
        if steps.status == "equal":
            assert steps.certificate.d == d
        space = equal_in_monoid(pres, x, y, bound, node_budget=budget,
                                minimize="space")
        if space.status == "equal":
            assert space.certificate.s == s


def _orders(letters):
    return st.tuples(st.lists(st.integers(1, 6), min_size=len(letters),
                              max_size=len(letters)),
                     st.permutations(letters)).map(
        lambda drawn: ReductionOrder(dict(zip(letters, drawn[0])), tuple(drawn[1])))


@settings(max_examples=300)
@given(st.sampled_from(LETTER_SETS).flatmap(lambda letters: st.tuples(
    _orders(letters), *(_words(letters, 0, 8) for _ in range(5)))))
def test_compare_is_a_reduction_order(drawn):
    """Antisymmetric, total (0 exactly on identical words), transitive,
    compatible with concatenation on both sides, and with the empty word
    below every other word."""
    order, u, v, w, left, right = drawn
    c = compare(order, u, v)
    assert compare(order, v, u) == -c
    assert (c == 0) == (u == v)
    if u:
        assert compare(order, "", u) == LESS
    if c == compare(order, v, w):
        assert compare(order, u, w) == c
    assert compare(order, left + u, left + v) == c
    assert compare(order, u + right, v + right) == c


@given(_systems(), st.sampled_from((1, 2, 3, 8)))
def test_search_matches_the_reference_scan(system, max_weight):
    """The pruned search returns the first certifying order of the full scan."""
    assert (find_termination_order(system, max_weight)
            == reference_order_scan(system, max_weight))


@given(st.booleans().flatmap(lambda shrinking: _systems(shrinking, ("ab", "abx"))),
       st.integers(1, 3))
def test_found_orders_certify_termination(system, max_weight):
    """Every order the search returns orients every rule, and stays inside
    each letter's range max(max_weight, weight needed)."""
    order = find_termination_order(system, max_weight)
    if all(len(r.lhs) > len(r.rhs) for r in system.rules):
        assert order is not None  # all weights 1 orient length-reducing rules
    if order is not None:
        assert verify_termination(system, order).certified
        pairs = system.rule_pairs()
        for letter, weight in order.weights.items():
            assert weight <= max(max_weight, weight_needed(pairs, letter))


@settings(max_examples=40)
@given(st.lists(st.tuples(_words("ab", 0, 4), _words("ab", 0, 4)), min_size=1,
                max_size=2),
       st.integers(1, 6))
@example([("a", ""), ("aa", "")], 1)
def test_dehn_table_matches_the_per_pair_reference(equations, n):
    """Exhaustive rows at the default slack equal the rows of a BFS from
    every seed: odd and even distances, equations with an empty or
    repeated side, and presentations without a complete system, whose
    seeds are all searched in one graph.  In the explicit example "" and
    "a" are one step apart and both one step from "aa", so their distance
    is 1 only if a level's odd meets are counted before its even ones."""
    pres = Presentation(Alphabet(("a", "b")), tuple(equations))
    slack = 2 * max(len(side) for eq in equations for side in eq)
    assert dehn_table(pres, n) == reference_dehn_rows(pres.equations, n, n + slack)
