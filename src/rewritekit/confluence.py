"""Critical pairs, local-confluence checking, and Knuth-Bendix completion."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

from .rewrite import (
    DEFAULT_FUEL,
    Certification,
    GREATER,
    Presentation,
    ReductionOrder,
    Rule,
    RewritingSystem,
    _reduce,
    compare,
    verify_termination,
)
from .words import Word, find_occurrences


@dataclass(frozen=True)
class CriticalPair:
    """Two one-step reducts of a minimal word where two rule lhs overlap.

    ``source`` reduces to ``left`` via rule ``rule_i`` at ``pos_i`` and to
    ``right`` via rule ``rule_j`` at ``pos_j``.  ``kind`` records whether
    the overlap was a suffix-prefix staircase or a containment of one lhs
    in the other.
    """

    source: Word
    left: Word
    right: Word
    rule_i: int
    rule_j: int
    pos_i: int
    pos_j: int
    kind: str


def _pairs_for_rules(rules, new: Optional[int] = None) -> list[CriticalPair]:
    """Critical pairs of ``rules`` in (i, j) order, deduplicated by
    (source, reduct set).

    With ``new=k`` only the pairs that involve rule k are built, in the
    order the full walk lists them: (i, k) for i < k, (k, j) for every j,
    then (i, k) for i > k.
    """
    out: list[CriticalPair] = []
    seen: set[tuple[Word, frozenset]] = set()

    def add(source, left, right, i, j, pi, pj, kind):
        if left == right:
            return
        key = (source, frozenset((left, right)))
        if key in seen:
            return
        seen.add(key)
        out.append(CriticalPair(source, left, right, i, j, pi, pj, kind))

    every_j = range(len(rules))
    for i, (l1, r1) in enumerate(rules):
        for j in (every_j if new is None or i == new else (new,)):
            l2, r2 = rules[j]
            # staircase: proper suffix of l1 = proper prefix of l2
            for t in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - t:] == l2[:t]:
                    source = l1 + l2[t:]
                    add(source, r1 + l2[t:], l1[:len(l1) - t] + r2,
                        i, j, 0, len(l1) - t, "suffix_prefix")
            # containment of l2 in l1 (any position, l2 == l1 included);
            # needed for soundness on systems that are not inter-reduced
            if i != j and len(l2) <= len(l1):
                for p in find_occurrences(l1, l2):
                    add(l1, r1, l1[:p] + r2 + l1[p + len(l2):],
                        i, j, 0, p, "containment")
    return out


def critical_pairs(system: RewritingSystem) -> list[CriticalPair]:
    """All critical pairs of the system, deduplicated by (source, reduct set)."""
    return _pairs_for_rules(system.rule_pairs())


@dataclass(frozen=True)
class ConfluenceFailure:
    pair: CriticalPair
    left_normal_form: Word
    right_normal_form: Word


@dataclass(frozen=True)
class LocalConfluenceReport:
    joinable: bool
    pairs_checked: int
    failures: tuple[ConfluenceFailure, ...] = ()


def check_local_confluence(system: RewritingSystem,
                           fuel: int = DEFAULT_FUEL) -> LocalConfluenceReport:
    """Reduce both sides of every critical pair to normal form and compare."""
    pairs = system.rule_pairs()
    failures = []
    cps = critical_pairs(system)
    for cp in cps:
        nl = _reduce(pairs, cp.left, fuel)
        nr = _reduce(pairs, cp.right, fuel)
        if nl != nr:
            failures.append(ConfluenceFailure(cp, nl, nr))
    return LocalConfluenceReport(not failures, len(cps), tuple(failures))


def certify(system: RewritingSystem, order: Optional[ReductionOrder] = None,
            fuel: int = DEFAULT_FUEL) -> RewritingSystem:
    """The system with its certification set from two checks: local
    confluence, and termination under ``order`` when one is given.

    Both together make it complete (Newman's lemma).  The order is kept
    only when it certifies termination.
    """
    joinable = check_local_confluence(system, fuel).joinable
    terminates = order is not None and verify_termination(system, order).certified
    level = (Certification.COMPLETE if joinable and terminates else
             Certification.LOCALLY_CONFLUENT if joinable else
             Certification.TERMINATING if terminates else Certification.UNCERTIFIED)
    return replace(system, certification=level, order=order if terminates else None)


def is_length_non_increasing(system: RewritingSystem) -> bool:
    """True iff every rule satisfies |lhs| >= |rhs|."""
    return all(len(r.lhs) >= len(r.rhs) for r in system.rules)


@dataclass(frozen=True)
class CompletionStats:
    pairs_processed: int = 0
    rules_added: int = 0
    rules_removed: int = 0
    steps: int = 0


@dataclass(frozen=True)
class CompletionReport:
    outcome: str  # "completed" | "limit-exceeded"
    system: Optional[RewritingSystem]
    stats: CompletionStats

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"


def knuth_bendix(presentation: Presentation, order: ReductionOrder,
                 max_rules: int = 200, max_steps: int = 5000,
                 fuel: int = DEFAULT_FUEL) -> CompletionReport:
    """Standard completion: orient, overlap, repair, inter-reduce.

    Equations are processed FIFO and normalized before orientation; after
    each rule addition, rules whose lhs became reducible are removed and
    requeued, and the rhs sides that contain the new lhs are re-normalized.
    Only the critical pairs that involve the new rule are queued: the pairs
    among older rules were queued when the younger of the two was added.
    The order must cover exactly the presentation's letters.  The outcome is
    ``completed`` when the pair queue empties within the limits, with the
    system self-checked (locally confluent and terminating under ``order``),
    and ``limit-exceeded`` otherwise.  Orienting a pair never fails: the
    order is total, and the empty word is below every other word.
    """
    if max_rules < 1 or max_steps < 1:
        raise ValueError("limits must be positive")
    for letter in order.precedence:
        if letter not in presentation.alphabet:
            raise ValueError(f"order letter {letter!r} not in presentation alphabet")
    for letter in presentation.alphabet.letters:
        if letter not in order.weights:
            raise ValueError(f"presentation letter {letter!r} missing from order {order}")

    queue: deque[tuple[Word, Word]] = deque(presentation.equations)
    live: list[tuple[Word, Word]] = []
    pairs_processed = rules_added = rules_removed = steps = 0

    def report(outcome, system=None):
        return CompletionReport(outcome, system,
                                CompletionStats(pairs_processed, rules_added,
                                                rules_removed, steps))

    while queue:
        steps += 1
        if steps > max_steps:
            return report("limit-exceeded")
        u, v = queue.popleft()
        pairs_processed += 1
        u = _reduce(live, u, fuel)
        v = _reduce(live, v, fuel)
        if u == v:
            continue
        # compare is 0 only on equal words, and with every weight >= 1 the
        # empty word is below the rest, so lhs is the non-empty greater side
        lhs, rhs = (u, v) if compare(order, u, v) == GREATER else (v, u)

        # inter-reduce against the new rule before installing it
        kept: list[tuple[Word, Word]] = []
        for l, r in live:
            if lhs in l:
                queue.append((l, r))
                rules_removed += 1
            else:
                kept.append((l, r))
        live = kept
        live.append((lhs, rhs))
        rules_added += 1
        if len(live) > max_rules:
            return report("limit-exceeded")
        # rhs are irreducible under the earlier rules and never contain their own lhs
        live = [(l, _reduce(live, r, fuel) if lhs in r else r) for l, r in live]

        queue.extend((cp.left, cp.right)
                     for cp in _pairs_for_rules(live, new=len(live) - 1))

    system = RewritingSystem(presentation.alphabet,
                             tuple(Rule(l, r) for l, r in sorted(live)))
    system = certify(system, order, fuel)
    if system.certification != Certification.COMPLETE:  # pragma: no cover - self-check
        raise AssertionError("completion produced a non-complete system")
    return report("completed", system=system)
