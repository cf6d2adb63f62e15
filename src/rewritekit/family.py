"""The one-relator family Mon<a,b : a^alpha b^beta a^gamma b^delta = b>:
case classification, construction of the finite complete systems, and
machine verification that they present the same monoid.

When the relator self-overlaps it can be written a^p b^(q+s) a^(r+pk) b^s
with p,s,k >= 1, q >= 0, 0 <= r < p, and the shape of the complete system
depends only on (s, r, k).  The auxiliary letter x always abbreviates
a^(pk) b^s.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Optional

from . import analysis
from .confluence import certify
from .rewrite import (
    DEFAULT_FUEL,
    Certification,
    FuelExhausted,
    Presentation,
    ReductionOrder,
    Rule,
    RewritingSystem,
    _matcher,
    _reduce,
    find_termination_order,
)
from .words import Alphabet, Word, _random_words, alphabet

AB = alphabet("ab")
ABX = alphabet("abx")
AUX_LETTER = "x"
# The largest exponent a relator may have: a^n is a string of n letters,
# and Python can build no longer one.
MAX_EXPONENT = sys.maxsize


class Case(Enum):
    NO_OVERLAP = "NoOverlap"
    CASE1 = "Case1"  # s = 1
    CASE2 = "Case2"  # s > 1, r > 0
    CASE3 = "Case3"  # s > 1, r = 0, k = 1
    CASE4 = "Case4"  # s > 1, r = 0, k >= 2


@dataclass(frozen=True)
class CaseTag:
    variant: Case
    extra_rule: bool = False  # Case 4 only: q >= s-1


@dataclass(frozen=True)
class FamilyParams:
    alpha: int
    beta: int
    gamma: int
    delta: int
    # derived parameters; populated exactly when the relator self-overlaps
    p: Optional[int] = None
    q: Optional[int] = None
    r: Optional[int] = None
    s: Optional[int] = None
    k: Optional[int] = None

    @property
    def relator(self) -> Word:
        return "a" * self.alpha + "b" * self.beta + "a" * self.gamma + "b" * self.delta

    @property
    def overlapping(self) -> bool:
        return self.p is not None


def classify(alpha: int, beta: int, gamma: int, delta: int) -> tuple[CaseTag, FamilyParams]:
    """Classify an exponent tuple by the shape of its complete system.

    The relator a^alpha b^beta a^gamma b^delta self-overlaps exactly when
    beta >= delta and gamma >= alpha; in that case p = alpha, s = delta,
    q = beta - delta, and gamma = r + p*k with 0 <= r < p, k >= 1.  Each
    exponent is in 1..MAX_EXPONENT.
    """
    for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("delta", delta)):
        if value < 1:
            raise ValueError(f"exponent {name} must be >= 1, got {value}")
        if value > MAX_EXPONENT:
            raise ValueError(f"exponent {name} must be <= {MAX_EXPONENT}, got {value}")
    if not (beta >= delta and gamma >= alpha):
        return CaseTag(Case.NO_OVERLAP), FamilyParams(alpha, beta, gamma, delta)
    p, s, q = alpha, delta, beta - delta
    r, k = gamma % p, gamma // p
    params = FamilyParams(alpha, beta, gamma, delta, p=p, q=q, r=r, s=s, k=k)
    if s == 1:
        tag = CaseTag(Case.CASE1)
    elif r > 0:
        tag = CaseTag(Case.CASE2)
    elif k == 1:
        tag = CaseTag(Case.CASE3)
    else:
        tag = CaseTag(Case.CASE4, extra_rule=q >= s - 1)
    return tag, params


def x_definition(params: FamilyParams) -> Word:
    """The word the auxiliary letter abbreviates: a^(pk) b^s."""
    if not params.overlapping:
        raise ValueError("x is defined only for an overlapping tuple")
    return "a" * (params.p * params.k) + "b" * params.s


def build_system(tag: CaseTag, params: FamilyParams) -> RewritingSystem:
    """Instantiate the complete-system schema for a classified tuple."""
    expected_tag, expected_params = classify(params.alpha, params.beta,
                                             params.gamma, params.delta)
    if expected_tag != tag or expected_params != params:
        raise ValueError(f"tag {tag} does not match parameters {params}")

    p, q, r, s, k = params.p, params.q, params.r, params.s, params.k
    x = AUX_LETTER
    if tag.variant == Case.NO_OVERLAP:
        return RewritingSystem(AB, (Rule(params.relator, "b"),))
    if tag.variant == Case.CASE1:
        rules = [Rule("a" * p + "b" * (q + 1) + "a" * (r + p * k) + "b", "b")]
        rules += [Rule("a" * p + "b" * (q + 1) + "a" * (r + p * i) + "b",
                       "b" * (q + 1) + "a" * (r + p * (i + 1)) + "b")
                  for i in range(k)]
        return RewritingSystem(AB, tuple(rules))
    if tag.variant == Case.CASE2:
        block = "a" * (r + p * k) + "b" * (q + 2 * s - 1)
        rules = [Rule("a" * p + "b" * (q + s) + "a" * (r + p * k) + "b" * s, "b")]
        rules += [Rule("a" * p + "b" * (q + s) + "a" * (r + p * i) + "b",
                       "b" * (q + 1) + block * (k - 1 - i) + "a" * (r + p * k) + "b" * s)
                  for i in range(k)]
        return RewritingSystem(AB, tuple(rules))
    if tag.variant == Case.CASE3:
        return RewritingSystem(ABX, (
            Rule("a" * p + "b" * s, x),
            Rule(x + "b" * q + x, "b"),
            Rule(x + "b" * (q + 1), "b" * (q + 1) + x),
        ))
    # Case 4
    tail = "b" * (q + s - 1) + x
    rules = [
        Rule("a" * p + x + "b" * q + x + "b" * (s - 1), x),
        Rule("a" * p + "b", x + "b" * q + x + tail * (k - 2)),
        Rule(x + "b" * q + x + tail * (k - 1), "b"),
        Rule(x + "b" * q + x + tail * (k - 2) + "b" * (q + s),
             "b" * (q + 1) + x + tail * (k - 1)),
    ]
    if tag.extra_rule:
        rules.append(Rule("a" * p + x + "b" * (q + 1),
                          x + "b" * (q - (s - 1)) + x + tail * (k - 1)))
    return RewritingSystem(ABX, tuple(rules))


# The identities behind the Case 4 rules, in build_system's rule order.
CASE4_IDENTITY_NAMES = ("absorb-x", "expand-ab", "expand-b", "shift-b-block", "extra")


def one_relator_presentation(params: FamilyParams) -> Presentation:
    """The defining presentation <a,b | relator = b>."""
    return Presentation(AB, ((params.relator, "b"),))


def extended_presentation(params: FamilyParams) -> Presentation:
    """<a,b,x | relator = b, a^(pk) b^s = x>; only meaningful when x is defined."""
    return Presentation(ABX, ((params.relator, "b"), (x_definition(params), AUX_LETTER)))


def probe_order(alpha: Alphabet) -> ReductionOrder:
    """The all-weights-1 shortlex order used by completion probes.

    Two-letter presentations use alphabet order (a > b).  When the
    auxiliary letter is present it is slotted between a and b: x stands
    for an a-heavy word, and this placement orients the hand-built
    systems as written and completes noticeably more grid tuples than
    leaving x last.
    """
    letters = list(alpha.letters)
    if AUX_LETTER in letters and letters != ["a", AUX_LETTER, "b"]:
        letters.remove(AUX_LETTER)
        letters.insert(1, AUX_LETTER)
    return ReductionOrder({c: 1 for c in letters}, tuple(letters))


@dataclass(frozen=True)
class IdentityCheck:
    """One oracle check that ``lhs`` equals ``rhs``, the rule at
    ``rule_index`` of the constructed system; ``name`` is the Case4
    identity's name, None in a presentation-equivalence check."""

    rule_index: int
    name: Optional[str]
    lhs: Word
    rhs: Word
    status: str  # "equal" | "unequal-within-bound" | "inconclusive"
    d: Optional[int]
    s: Optional[int]
    certificate: Optional["analysis.EqualityCertificate"]


@dataclass(frozen=True)
class EquivalenceReport:
    """``verdict``: FAIL if the relator's sides differ in normal form or a rule is
    unequal-within-bound, else inconclusive if the budget left a rule undecided, else PASS."""

    rule_results: tuple[IdentityCheck, ...]
    relator_normal_forms_match: bool
    relator_normal_form: Word

    @property
    def verdict(self) -> str:
        statuses = {r.status for r in self.rule_results}
        if not self.relator_normal_forms_match or "unequal-within-bound" in statuses:
            return "FAIL"
        return "inconclusive" if "inconclusive" in statuses else "PASS"


def _oracle_with_deepening(presentation: Presentation, rule_index: int, name: Optional[str],
                           lhs: Word, rhs: Word, node_budget: int) -> IdentityCheck:
    """Check ``lhs`` = ``rhs`` with the equality oracle at the default bound,
    deepening it twice by half the default slack (the longest side) if needed."""
    slack = analysis.default_slack(presentation)
    base = max(len(lhs), len(rhs)) + slack
    for attempt in range(3):
        outcome = analysis.equal_in_monoid(presentation, lhs, rhs,
                                           base + attempt * (slack // 2),
                                           node_budget=node_budget)
        if outcome.status == "equal":
            break
    cert = outcome.certificate
    d, s = (cert.d, cert.s) if cert else (None, None)
    return IdentityCheck(rule_index, name, lhs, rhs, outcome.status, d, s, cert)


def verify_presentation_equivalence(original: Presentation,
                                    constructed: RewritingSystem,
                                    x_def: Optional[Word] = None,
                                    node_budget: int = analysis.DEFAULT_NODE_BUDGET,
                                    fuel: int = DEFAULT_FUEL) -> EquivalenceReport:
    """Two-sided check that the constructed system presents the original monoid.

    Every constructed rule, with x expanded to its definition, must hold
    in the original monoid (bounded-search certificate); and the original
    relator's two sides must share a normal form in the constructed
    system.
    """
    if AUX_LETTER in constructed.alphabet and x_def is None:
        raise ValueError("constructed system uses x; its definition is required")
    x = x_def or AUX_LETTER  # without a definition no rule holds x
    results = tuple(_oracle_with_deepening(original, i, None, rule.lhs.replace(AUX_LETTER, x),
                                           rule.rhs.replace(AUX_LETTER, x), node_budget)
                    for i, rule in enumerate(constructed.rules))
    pairs = constructed.rule_pairs()
    nf_sides = [_reduce(pairs, side, fuel) for side in original.equations[0]]
    return EquivalenceReport(results, nf_sides[0] == nf_sides[1], nf_sides[0])


@dataclass(frozen=True)
class ChainReport:
    identities: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(i.status == "equal" for i in self.identities)


def check_derivation_chain(params: FamilyParams) -> ChainReport:
    """Replay the identities behind the k>=2 construction over
    <a,b,x | relator = b, a^(pk) b^s = x>: one per rule that
    :func:`build_system` ships, so the chain checks exactly those rules.
    Each identity gets the oracle at the default node budget, and keeps
    its certificate.
    """
    tag, _ = classify(params.alpha, params.beta, params.gamma, params.delta)
    if tag.variant != Case.CASE4:
        raise ValueError("derivation chain is defined for Case4 parameters only")
    pres = extended_presentation(params)
    # expand-b is derived as b = ..., the rule read right to left
    return ChainReport(tuple(
        _oracle_with_deepening(pres, i, name, *(pair[::-1] if name == "expand-b" else pair),
                               analysis.DEFAULT_NODE_BUDGET)
        for i, (name, pair) in enumerate(zip(CASE4_IDENTITY_NAMES,
                                             build_system(tag, params).rule_pairs()))))


@dataclass(frozen=True)
class EmpiricalTermination:
    samples: int
    max_length: int
    step_budget: int
    all_halted: bool


@dataclass(frozen=True)
class CertificationSummary:
    """``verdict`` is PASS when the system is locally confluent and has
    termination evidence (an order, or for Case2 a probe that halted)."""

    tag: CaseTag
    params: FamilyParams
    system: RewritingSystem
    locally_confluent: bool
    order: Optional[ReductionOrder]
    empirical: Optional[EmpiricalTermination]

    @property
    def certification(self) -> Certification:
        return self.system.certification

    @property
    def verdict(self) -> str:
        terminates = self.empirical.all_halted if self.empirical else self.order is not None
        return "PASS" if self.locally_confluent and terminates else "FAIL"


# The empirical termination probe reduces EMPIRICAL_SAMPLES seeded random
# words of length <= EMPIRICAL_MAX_LENGTH, each within EMPIRICAL_STEP_BUDGET.
EMPIRICAL_SAMPLES, EMPIRICAL_MAX_LENGTH, EMPIRICAL_STEP_BUDGET = 200, 20, 10**5
EMPIRICAL_SEED = 0


@cache
def _probe_words(letters: tuple[str, ...]) -> tuple[Word, ...]:
    """The probe's seeded random words over ``letters``, drawn once."""
    return tuple(_random_words(letters, EMPIRICAL_SAMPLES, 0, EMPIRICAL_MAX_LENGTH,
                               EMPIRICAL_SEED))


def empirical_termination_probe(system: RewritingSystem) -> EmpiricalTermination:
    """Reduce random words and record that every derivation halted."""
    pairs = system.rule_pairs()
    automaton = _matcher(pairs)
    halted = True
    for w in _probe_words(system.alphabet.letters):
        try:
            _reduce(pairs, w, EMPIRICAL_STEP_BUDGET, None, automaton)
        except FuelExhausted:
            halted = False
            break
    return EmpiricalTermination(EMPIRICAL_SAMPLES, EMPIRICAL_MAX_LENGTH,
                                EMPIRICAL_STEP_BUDGET, halted)


def certify_family_system(tag: CaseTag, params: FamilyParams,
                          fuel: int = DEFAULT_FUEL) -> CertificationSummary:
    """Certify a constructed system as far as the case allows.

    All cases get a local-confluence check.  Everything except Case2 then
    gets a termination-order search; Case2 instead records empirical
    termination evidence and its certification intentionally stays below
    complete.
    """
    system = build_system(tag, params)
    order = empirical = None
    if tag.variant == Case.CASE2:
        empirical = empirical_termination_probe(system)
    else:
        order = find_termination_order(system)
    system = certify(system, order, fuel)
    locally_confluent = system.certification in (Certification.LOCALLY_CONFLUENT,
                                                  Certification.COMPLETE)
    return CertificationSummary(tag, params, system, locally_confluent, order, empirical)
