"""Rules, rewriting systems and monoid presentations, reduction to normal
form, and termination certification via weighted-shortlex reduction orders.

The rewriting strategy is fixed: always rewrite at the leftmost matching
position, and among rules matching there, the one with the lowest index
wins.  On a complete system the normal form is strategy-independent, so
this choice only pins down traces and makes every run reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import permutations, product
from typing import Mapping, Optional

from .words import Alphabet, Word, _parse_pair_file, print_word

LESS, EQUAL, GREATER = -1, 0, 1

DEFAULT_FUEL = 10**6
MAX_WEIGHT = 8  # the termination-order search's default weight cap


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
        precedence = tuple(ppart.split(":", 1)[1].strip().split(">"))
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
    """(position, rule index) of the leftmost lowest-index match, or (-1, -1)."""
    best_pos, best_idx = -1, -1
    for idx, (lhs, _) in enumerate(pairs):
        p = w.find(lhs)
        if p != -1 and (best_pos == -1 or p < best_pos):
            best_pos, best_idx = p, idx
    return best_pos, best_idx


def rewrite_step(system: RewritingSystem, w: Word) -> Optional[tuple[Word, int, int]]:
    """Apply one rule at the leftmost position (lowest rule index on ties).

    Returns ``(word, rule index, position)``, or ``None`` if ``w`` is a
    normal form.
    """
    pos, idx = _leftmost_match(system.rule_pairs(), w)
    if pos == -1:
        return None
    lhs, rhs = system.rules[idx].lhs, system.rules[idx].rhs
    return w[:pos] + rhs + w[pos + len(lhs):], idx, pos


def _reduce(pairs, w: Word, fuel: int, trace: Optional[list] = None) -> Word:
    """Normal form of ``w``: the one reduction loop.  When ``trace`` is
    given, each step appends ``(rule index, position, word after)`` to it."""
    steps = 0
    while True:
        pos, idx = _leftmost_match(pairs, w)
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


def _weight_needed(pairs, letter: str) -> int:
    """Smallest weight of ``letter`` that orients every rule the weights
    decide when every other letter weighs 1."""
    need = 1
    for lhs, rhs in pairs:
        n_l, m_l = lhs.count(letter), rhs.count(letter)
        if n_l > m_l:
            n_o, m_o = len(lhs) - n_l, len(rhs) - m_l
            need = max(need, max(0, m_o - n_o) // (n_l - m_l) + 1)
    return need


def find_termination_order(system: RewritingSystem,
                           max_weight: int = MAX_WEIGHT) -> Optional[ReductionOrder]:
    """Exhaustive search for a certifying weighted-shortlex order.

    Scans all precedence permutations and all weight vectors with each
    letter's weight in ``[1, max(max_weight, need)]`` (``need`` from
    :func:`_weight_needed`), returning the first order under which every
    rule strictly descends, or ``None``.
    """
    if max_weight < 1:
        raise ValueError("max weight must be >= 1")
    letters = system.alphabet.letters
    pairs = system.rule_pairs()
    ranges = [range(1, max(max_weight, _weight_needed(pairs, c)) + 1) for c in letters]
    for prec in permutations(letters):
        ranks = _letter_ranks(prec)
        for vec in product(*ranges):
            weights = dict(zip(letters, vec))
            for lhs, rhs in pairs:
                if _order_key(weights, ranks, lhs) <= _order_key(weights, ranks, rhs):
                    break
            else:
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
