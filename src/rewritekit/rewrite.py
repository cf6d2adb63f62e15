"""Rules, rewriting systems and monoid presentations, reduction to normal
form, and termination certification via weighted-shortlex reduction orders.

The rewriting strategy is fixed: always rewrite at the leftmost matching
position, and among rules matching there, the one with the lowest index
wins.  On a complete system the normal form is strategy-independent, so
this choice only pins down traces and makes every run reproducible.

Two matchers implement it, chosen by the rule list's shape.  An
Aho-Corasick automaton over the lhs words reads each letter once and
resumes where the last rewrite happened.  It takes the lists longer than
``FIND_SCAN_MAX_RULES`` that are flat: no lhs ends inside another, so the
first match it reads is the leftmost.  Every other list is scanned with one
``str.find`` per rule.  Knuth-Bendix completion keeps its rules
inter-reduced, so its growing lists are always flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import permutations
from typing import Mapping, Optional

from .words import Alphabet, Word, _parse_pair_file, print_word

LESS, GREATER = -1, 1  # compare() returns 0 only for identical words

DEFAULT_FUEL = 10**6
MAX_WEIGHT = 8  # the termination-order search's default weight cap
# Rule lists up to this length are matched by str.find, longer flat ones
# (no lhs ends inside another) by an automaton; completion's lists are
# flat, since it keeps each lhs a normal form of the other rules.  On
# recorded completion calls the automaton, once built, runs at 0.8-0.9x
# the find scan's speed at 4-7 rules and 1.5-3x from 16 rules up; a build
# costs about 25 us at 8 rules and 270 us at 48.  Both matchers stay,
# chosen by this size: completion reduces many words against one long
# list, where the automaton wins, while certifying a family system reduces
# against a new list of 1-6 rules, where a build (6-9 us at 1-4 rules)
# costs more than the scans it saves.  With every list on the automaton,
# the benchmark's `certify` median query time rose by about 22%.
FIND_SCAN_MAX_RULES = 16


class FuelExhausted(RuntimeError):
    """A reduction exceeded its step budget."""


@dataclass(frozen=True)
class Rule:
    lhs: Word
    rhs: Word

    def __post_init__(self) -> None:
        if not self.lhs:
            raise ValueError("rule left-hand side must be non-empty")
        if self.lhs == self.rhs:
            raise ValueError(f"trivial rule {self.lhs!r} -> {self.rhs!r}")

    def __str__(self) -> str:
        return f"{print_word(self.lhs)} -> {print_word(self.rhs)}"


class Certification(Enum):
    """How much of 'complete' has been established for a system."""

    UNCERTIFIED = "uncertified"
    LOCALLY_CONFLUENT = "locally-confluent"
    TERMINATING = "terminating"
    COMPLETE = "complete"


def _letter_ranks(precedence) -> dict[str, int]:
    """Letter ranks for :func:`_order_key`: the greatest letter ranks highest."""
    return {c: -i for i, c in enumerate(precedence)}


def _order_key(weights: Mapping[str, int], ranks: Mapping[str, int], word: Word):
    """Weighted-shortlex sort key: total weight, then length, then the
    letters' ranks left to right."""
    return (sum(map(weights.__getitem__, word)), len(word),
            tuple(map(ranks.__getitem__, word)))


@dataclass(frozen=True)
class ReductionOrder:
    """Weighted shortlex: total weight, then length, then leftmost letter.

    ``precedence`` lists letters greatest-first.  With all weights >= 1
    this is a reduction order: well-founded and compatible with
    concatenation on both sides, so rule-wise descent certifies
    termination.
    """

    weights: Mapping[str, int]
    precedence: tuple[str, ...]
    _ranks: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if set(self.weights) != set(self.precedence):
            raise ValueError("weights and precedence must cover the same letters")
        if len(set(self.precedence)) != len(self.precedence):
            raise ValueError("precedence must list each letter once")
        for letter, w in self.weights.items():
            if w < 1:
                raise ValueError(f"weight of {letter!r} must be >= 1, got {w}")
        object.__setattr__(self, "_ranks", _letter_ranks(self.precedence))

    def sort_key(self, word: Word):
        """A key that sorts words ascending in this order."""
        try:
            return _order_key(self.weights, self._ranks, word)
        except KeyError as exc:
            raise KeyError(f"letter {exc.args[0]!r} missing from order") from None

    def __str__(self) -> str:
        ws = " ".join(f"{c}={self.weights[c]}" for c in self.precedence)
        return f"weights: {ws}; precedence: {'>'.join(self.precedence)}"


def compare(order: ReductionOrder, u: Word, v: Word) -> int:
    """-1, 0, or +1 as u is less than, equal to, or greater than v.

    Equality holds only for identical words: ties on weight and length
    fall through to a letter-by-letter comparison.
    """
    ku, kv = order.sort_key(u), order.sort_key(v)
    return (ku > kv) - (ku < kv)


def parse_order(text: str) -> ReductionOrder:
    """Parse ``weights: a=4 b=1 x=2; precedence: x>b>a``."""
    try:
        wpart, ppart = text.split(";")
        items = [item.split("=") for item in wpart.split(":", 1)[1].split()]
        weights = {letter: int(value) for letter, value in items}
        precedence = tuple(c.strip() for c in ppart.split(":", 1)[1].split(">"))
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad order syntax: {text!r}") from exc
    if len(weights) < len(items):
        raise ValueError(f"bad order syntax: {text!r} weighs a letter twice")
    return ReductionOrder(weights, precedence)


@dataclass(frozen=True)
class RewritingSystem:
    alphabet: Alphabet
    rules: tuple[Rule, ...]
    certification: Certification = Certification.UNCERTIFIED
    order: Optional[ReductionOrder] = None

    def __post_init__(self) -> None:
        seen = set()
        for rule in self.rules:
            self.alphabet.validate_word(rule.lhs)
            self.alphabet.validate_word(rule.rhs)
            key = (rule.lhs, rule.rhs)
            if key in seen:
                raise ValueError(f"duplicate rule {rule}")
            seen.add(key)
        if self.certification in (Certification.TERMINATING, Certification.COMPLETE):
            if self.order is None:
                raise ValueError(f"certification {self.certification.value} requires an order")

    def rule_pairs(self) -> tuple[tuple[Word, Word], ...]:
        return tuple((r.lhs, r.rhs) for r in self.rules)

    def __str__(self) -> str:
        lines = [f"letters: {' '.join(self.alphabet.letters)}"]
        lines += [str(rule) for rule in self.rules]
        return "\n".join(lines)


def _leftmost_match(pairs, w: Word) -> tuple[int, int]:
    """(position, rule index) of the leftmost lowest-index match, or (-1, -1),
    by one ``str.find`` per rule."""
    best_pos, best_idx = -1, -1
    for idx, (lhs, _) in enumerate(pairs):
        p = w.find(lhs)
        if p != -1 and (best_pos == -1 or p < best_pos):
            best_pos, best_idx = p, idx
    return best_pos, best_idx


class _Automaton:
    """Aho-Corasick automaton over a rule list's lhs words (Aho & Corasick,
    *CACM* 18(6), 1975), matching by the same strategy as
    :func:`_leftmost_match` on a flat list.

    ``goto[c][s]`` is the state reached from state ``s`` by letter ``c``;
    a letter that no lhs uses leads to the root, state 0.
    ``out_len[s]`` is the length of the longest lhs that ends the text read
    into ``s`` (0 if none), and ``out_idx[s]`` that lhs's lowest rule index.
    ``nested`` says some lhs ends before the end of a longer one.  Only
    then can a match that ends later start sooner, or at the same place
    with a lower index, than the first match the scan reads, so only a
    flat list, one that is not nested, may be matched by :meth:`match`.
    """

    __slots__ = ("goto", "out_len", "out_idx", "nested")

    def __init__(self, lhss) -> None:
        children: list[dict[str, int]] = [{}]  # the trie, dropped once built
        out_len, out_idx = [0], [-1]
        for idx, lhs in enumerate(lhss):
            s = 0
            for c in lhs:
                t = children[s].get(c)
                if t is None:
                    t = children[s][c] = len(children)
                    children.append({})
                    out_len.append(0)
                    out_idx.append(-1)
                s = t
            if not out_len[s]:  # a repeated lhs keeps its lowest index
                out_len[s], out_idx[s] = len(lhs), idx
        letters = {c for lhs in lhss for c in lhs}
        goto = {c: [0] * len(children) for c in letters}
        fail = [0] * len(children)
        nested = False
        order = [0]
        for s in order:  # breadth first: a state's failure state is done before it
            for c in letters:
                row, t = goto[c], children[s].get(c)
                if t is None:
                    row[s] = row[fail[s]]
                    continue
                row[s] = t
                f = fail[t] = row[fail[s]] if s else 0  # the root's children fail to it
                if not out_len[t]:
                    out_len[t], out_idx[t] = out_len[f], out_idx[f]
                order.append(t)
            if out_len[s] and children[s]:  # an lhs ends inside a longer one
                nested = True
        self.goto, self.out_len, self.out_idx = goto, out_len, out_idx
        self.nested = nested

    def match(self, w: Word, states: list[int], resume: int) -> tuple[int, int]:
        """(position, rule index) of the leftmost lowest-index match, or
        (-1, -1), on a flat list.  ``states[i]`` is the state after
        ``w[:i]`` for every ``i <= resume``: the scan drops the later
        states, resumes after ``w[:resume]`` and appends the states it
        reads."""
        goto, out_len = self.goto, self.out_len
        del states[resume + 1:]
        s = states[resume]
        append = states.append
        for c in w[resume:]:
            try:
                s = goto[c][s]
            except KeyError:
                s = 0
            append(s)
            if out_len[s]:
                return len(states) - 1 - out_len[s], self.out_idx[s]
        return -1, -1


@lru_cache(maxsize=4)
def _automaton(lhss: tuple[Word, ...]) -> Optional[_Automaton]:
    """The automaton over ``lhss``, or None if the list is nested.
    Completion reduces many words against one rule list before the list
    changes, so the last few answers are kept."""
    automaton = _Automaton(lhss)
    return None if automaton.nested else automaton


def _matcher(pairs) -> Optional[_Automaton]:
    """The automaton for flat rule lists longer than
    ``FIND_SCAN_MAX_RULES``, else None: shorter lists, and nested ones,
    where a match that ends later can start sooner, are matched by
    :func:`_leftmost_match`.  Completion's lists are flat, since it keeps
    every lhs a normal form of the other rules."""
    if len(pairs) > FIND_SCAN_MAX_RULES:
        return _automaton(tuple([lhs for lhs, _ in pairs]))
    return None


def rewrite_step(system: RewritingSystem, w: Word) -> Optional[tuple[Word, int, int]]:
    """Apply one rule at the leftmost position (lowest rule index on ties).

    Returns ``(word, rule index, position)``, or ``None`` if ``w`` is a
    normal form.
    """
    pairs = system.rule_pairs()
    pos, idx = _leftmost_match(pairs, w)
    if pos == -1:
        return None
    lhs, rhs = pairs[idx]
    return w[:pos] + rhs + w[pos + len(lhs):], idx, pos


def _reduce(pairs, w: Word, fuel: int, trace: Optional[list] = None) -> Word:
    """Normal form of ``w``: the one reduction loop.  When ``trace`` is
    given, each step appends ``(rule index, position, word after)`` to it.

    Flat lists longer than ``FIND_SCAN_MAX_RULES`` rules, such as
    completion's, are matched by an Aho-Corasick automaton over their lhs
    words.  A rewrite at position p leaves the states it read for
    ``w[:p]`` valid, so the next scan resumes there.  Other lists are
    matched by one ``str.find`` per rule and step.
    """
    automaton = _matcher(pairs)
    states, pos = [0], 0
    steps = 0
    while True:
        pos, idx = (_leftmost_match(pairs, w) if automaton is None
                    else automaton.match(w, states, pos))
        if pos == -1:
            return w
        if steps >= fuel:
            raise FuelExhausted(f"no normal form within {fuel} steps (at {print_word(w)})")
        lhs, rhs = pairs[idx]
        w = w[:pos] + rhs + w[pos + len(lhs):]
        steps += 1
        if trace is not None:
            trace.append((idx, pos, w))


@dataclass(frozen=True)
class ReductionTrace:
    """Steps of a reduction: (rule index, position, word after the step)."""

    steps: tuple[tuple[int, int, Word], ...]

    def replay(self, system: RewritingSystem, start: Word) -> bool:
        """Check each recorded step applies the recorded rule at the recorded spot."""
        w = start
        for idx, pos, after in self.steps:
            rule = system.rules[idx]
            if not w.startswith(rule.lhs, pos):
                return False
            if w[:pos] + rule.rhs + w[pos + len(rule.lhs):] != after:
                return False
            w = after
        return True


def normal_form(system: RewritingSystem, w: Word,
                fuel: int = DEFAULT_FUEL) -> tuple[Word, ReductionTrace]:
    """Reduce ``w`` until no rule applies; deterministic leftmost strategy."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    steps: list[tuple[int, int, Word]] = []
    nf = _reduce(system.rule_pairs(), w, fuel, steps)
    return nf, ReductionTrace(tuple(steps))


@dataclass(frozen=True)
class TerminationReport:
    certified: bool
    failing_rule: Optional[int] = None


def verify_termination(system: RewritingSystem, order: ReductionOrder) -> TerminationReport:
    """Check every rule strictly descends under ``order``.

    Weighted shortlex is compatible with concatenation, so rule-wise
    descent is sufficient for termination.
    """
    for idx, rule in enumerate(system.rules):
        if compare(order, rule.lhs, rule.rhs) != GREATER:
            return TerminationReport(False, failing_rule=idx)
    return TerminationReport(True)


def find_termination_order(system: RewritingSystem,
                           max_weight: int = MAX_WEIGHT) -> Optional[ReductionOrder]:
    """The first certifying weighted-shortlex order, or ``None``.

    The search runs over the precedences in ``permutations`` order and,
    for each, over the weight vectors in ``product`` order, each letter's
    weight in ``[1, max(max_weight, need)]``.  A letter's ``need`` is the
    least weight at which every rule with more of it on the left than on
    the right is strictly heavier on the left, every other letter weighing
    1.  It returns the first order in that order under which every rule
    strictly descends.

    Weights are chosen letter by letter, depth first.  A prefix is cut
    when, for some rule, even the best weights in range for the remaining
    letters leave its lhs lighter than its rhs, or as heavy with the tie
    lost on length then letters.  No order below a cut prefix certifies,
    and on a full vector the test is the sort-key comparison itself, so
    the answer is the one a full scan would give.  The worst case is a
    full scan: when no order exists and no single rule rules a prefix
    out, every vector is visited.
    """
    if max_weight < 1:
        raise ValueError("max weight must be >= 1")
    letters = system.alphabet.letters
    pairs = system.rule_pairs()
    # gains[k][i]: how much rule i's lhs outweighs its rhs per unit weight of letter k
    gains = [[lhs.count(c) - rhs.count(c) for lhs, rhs in pairs] for c in letters]
    growth = [len(rhs) - len(lhs) for lhs, rhs in pairs]
    # with letter k at weight w and every other letter at 1, rule i's lhs
    # outweighs its rhs by gains[k][i] * (w - 1) - growth[i], which is
    # positive from w = 2 + growth[i] // gains[k][i] on when gains[k][i] > 0
    tops = [max([max_weight, *(2 + d // g for g, d in zip(gain, growth) if g > 0)])
            for gain in gains]
    # best[k][i]: the most that letter k's weight can add to rule i's lhs-rhs difference
    best = [[g * top if g > 0 else g for g in gain] for gain, top in zip(gains, tops)]
    zero = dict.fromkeys(letters, 0)

    def extend(vec, reach, floors):
        """The first certifying weights that start with ``vec``, or None;
        ``reach[i]`` is the largest weight difference rule i can reach
        with ``vec`` fixed."""
        if any(r < f for r, f in zip(reach, floors)):
            return None
        k = len(vec)
        if k == len(letters):
            return dict(zip(letters, vec))
        for w in range(1, tops[k] + 1):
            found = extend(vec + (w,), [r + g * w - b for r, g, b in
                                        zip(reach, gains[k], best[k])], floors)
            if found:
                return found
        return None

    for prec in permutations(letters):
        ranks = _letter_ranks(prec)
        # the least weight difference under which a rule descends: 0 if it
        # wins a tie (the key of zero weights is length, then letters), else 1
        floors = [int(_order_key(zero, ranks, lhs) <= _order_key(zero, ranks, rhs))
                  for lhs, rhs in pairs]
        weights = extend((), [sum(rule) for rule in zip(*best)], floors)
        if weights:
            return ReductionOrder(weights, prec)
    return None


@dataclass(frozen=True)
class Presentation:
    """A monoid presentation: alphabet plus unordered word-pair equations."""

    alphabet: Alphabet
    equations: tuple[tuple[Word, Word], ...]

    def __post_init__(self) -> None:
        for lhs, rhs in self.equations:
            self.alphabet.validate_word(lhs)
            self.alphabet.validate_word(rhs)

    def __str__(self) -> str:
        lines = [f"letters: {' '.join(self.alphabet.letters)}"]
        lines += [f"{print_word(l)} = {print_word(r)}" for l, r in self.equations]
        return "\n".join(lines)


def parse_system_file(text: str) -> RewritingSystem:
    """Parse the system file format::

        letters: a b x
        ax^2b -> x
        ab -> x^2
    """
    alpha, rules = _parse_pair_file(text, "system", "rule", "->", Rule)
    return RewritingSystem(alpha, rules)


def format_system_file(system: RewritingSystem) -> str:
    return str(system) + "\n"


def parse_presentation_file(text: str) -> Presentation:
    """Parse the presentation file format: a letters: line, then lhs = rhs lines."""
    alpha, equations = _parse_pair_file(text, "presentation", "equation", "=",
                                        lambda lhs, rhs: (lhs, rhs))
    return Presentation(alpha, equations)


def format_presentation_file(presentation: Presentation) -> str:
    return str(presentation) + "\n"
