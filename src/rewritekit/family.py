"""The one-relator family Mon<a,b : a^alpha b^beta a^gamma b^delta = b>:
case classification, construction of the finite complete systems, and
machine verification that they present the same monoid.

When the relator self-overlaps it can be written a^p b^(q+s) a^(r+pk) b^s
with p,s,k >= 1, q >= 0, 0 <= r < p, and the shape of the complete system
depends only on (s, r, k).  The auxiliary letter x always abbreviates
a^(pk) b^s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import analysis
from .confluence import check_local_confluence
from .rewrite import (
    DEFAULT_FUEL,
    Certification,
    FuelExhausted,
    ReductionOrder,
    Rule,
    RewritingSystem,
    _reduce,
    find_termination_order,
    verify_termination,
)
from .words import Alphabet, Word, _parse_pair_file, alphabet, print_word

AB = alphabet("ab")
ABX = alphabet("abx")
AUX_LETTER = "x"


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


def parse_presentation_file(text: str) -> Presentation:
    """Parse the presentation file format: a letters: line, then lhs = rhs lines."""
    alpha, equations = _parse_pair_file(text, "presentation", "equation", "=",
                                        lambda lhs, rhs: (lhs, rhs))
    return Presentation(alpha, equations)


def format_presentation_file(presentation: Presentation) -> str:
    return str(presentation) + "\n"


def classify(alpha: int, beta: int, gamma: int, delta: int) -> tuple[CaseTag, FamilyParams]:
    """Classify an exponent tuple by the shape of its complete system.

    The relator a^alpha b^beta a^gamma b^delta self-overlaps exactly when
    beta >= delta and gamma >= alpha; in that case p = alpha, s = delta,
    q = beta - delta, and gamma = r + p*k with 0 <= r < p, k >= 1.
    """
    for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("delta", delta)):
        if value < 1:
            raise ValueError(f"exponent {name} must be >= 1, got {value}")
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
    if not params.overlapping:
        raise ValueError("extended presentation requires an overlapping tuple")
    return Presentation(ABX, ((params.relator, "b"), (x_definition(params), AUX_LETTER)))


def substitute_aux(word: Word, definition: Word) -> Word:
    """Replace every x by its defining word."""
    return word.replace(AUX_LETTER, definition)


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
class RuleEquivalence:
    rule_index: int
    status: str  # "equal" | "unequal-within-bound" | "inconclusive"
    d: Optional[int] = None
    s: Optional[int] = None
    certificate: Optional["analysis.EqualityCertificate"] = None


@dataclass(frozen=True)
class EquivalenceReport:
    rule_results: tuple[RuleEquivalence, ...]
    relator_normal_forms_match: bool
    relator_normal_form: Word

    @property
    def passed(self) -> bool:
        return (self.relator_normal_forms_match
                and all(r.status == "equal" for r in self.rule_results))

    @property
    def inconclusive(self) -> bool:
        return any(r.status == "inconclusive" for r in self.rule_results)


def _oracle_with_deepening(presentation: Presentation, lhs: Word, rhs: Word,
                           slack: int, node_budget: int) -> "analysis.EqualityOutcome":
    """Run the equality oracle, deepening the length bound twice if needed."""
    base = max(len(lhs), len(rhs))
    step = max(len(l) for l, _ in presentation.equations)
    outcome = None
    for attempt in range(3):
        bound = base + slack + attempt * step
        outcome = analysis.equal_in_monoid(presentation, lhs, rhs, bound,
                                           node_budget=node_budget)
        if outcome.status == "equal":
            return outcome
    return outcome


def verify_presentation_equivalence(original: Presentation,
                                    constructed: RewritingSystem,
                                    x_def: Optional[Word] = None,
                                    node_budget: int = 10**6,
                                    fuel: int = DEFAULT_FUEL) -> EquivalenceReport:
    """Two-sided check that the constructed system presents the original monoid.

    Every constructed rule, with x expanded to its definition, must hold
    in the original monoid (bounded-search certificate); and the original
    relator's two sides must share a normal form in the constructed
    system.
    """
    if AUX_LETTER in constructed.alphabet and x_def is None:
        raise ValueError("constructed system uses x; its definition is required")
    relator_len = max(len(l) for l, _ in original.equations)
    results = []
    for idx, rule in enumerate(constructed.rules):
        lhs = substitute_aux(rule.lhs, x_def) if x_def else rule.lhs
        rhs = substitute_aux(rule.rhs, x_def) if x_def else rule.rhs
        outcome = _oracle_with_deepening(original, lhs, rhs,
                                         slack=2 * relator_len,
                                         node_budget=node_budget)
        cert = outcome.certificate
        results.append(RuleEquivalence(idx, outcome.status,
                                       d=cert.d if cert else None,
                                       s=cert.s if cert else None,
                                       certificate=cert))
    pairs = constructed.rule_pairs()
    nf_sides = [_reduce(pairs, side, fuel) for side in original.equations[0]]
    return EquivalenceReport(tuple(results), nf_sides[0] == nf_sides[1], nf_sides[0])


@dataclass(frozen=True)
class ChainIdentity:
    name: str
    lhs: Word
    rhs: Word
    status: str
    d: Optional[int] = None
    s: Optional[int] = None


@dataclass(frozen=True)
class ChainReport:
    identities: tuple[ChainIdentity, ...]

    @property
    def passed(self) -> bool:
        return all(i.status == "equal" for i in self.identities)


def check_derivation_chain(params: FamilyParams,
                           node_budget: int = 10**6) -> ChainReport:
    """Replay the identities behind the k>=2 construction over
    <a,b,x | relator = b, a^(pk) b^s = x>: one per rule that
    :func:`build_system` ships, so the chain checks exactly those rules.
    """
    tag, _ = classify(params.alpha, params.beta, params.gamma, params.delta)
    if tag.variant != Case.CASE4:
        raise ValueError("derivation chain is defined for Case4 parameters only")
    pres = extended_presentation(params)
    out = []
    for name, rule in zip(CASE4_IDENTITY_NAMES, build_system(tag, params).rules):
        # expand-b is derived as b = ..., the rule read right to left
        lhs, rhs = (rule.rhs, rule.lhs) if name == "expand-b" else (rule.lhs, rule.rhs)
        outcome = _oracle_with_deepening(pres, lhs, rhs,
                                         slack=2 * len(params.relator),
                                         node_budget=node_budget)
        cert = outcome.certificate
        out.append(ChainIdentity(name, lhs, rhs, outcome.status,
                                 d=cert.d if cert else None,
                                 s=cert.s if cert else None))
    return ChainReport(tuple(out))


def required_letter_cap(system: RewritingSystem, letter: str) -> int:
    """Smallest weight of ``letter`` that can orient every weight-decided rule
    when all other letters weigh 1.  Used to widen the order search for
    systems whose rules trade one letter for many others.
    """
    need = 1
    for rule in system.rules:
        n_l, m_l = rule.lhs.count(letter), rule.rhs.count(letter)
        n_o, m_o = len(rule.lhs) - n_l, len(rule.rhs) - m_l
        if n_l > m_l:
            need = max(need, max(0, m_o - n_o) // (n_l - m_l) + 1)
    return need


@dataclass(frozen=True)
class EmpiricalTermination:
    samples: int
    max_length: int
    step_budget: int
    all_halted: bool
    max_steps_seen: int


@dataclass(frozen=True)
class CertificationSummary:
    tag: CaseTag
    params: FamilyParams
    system: RewritingSystem
    locally_confluent: bool
    order: Optional[ReductionOrder]
    empirical: Optional[EmpiricalTermination]

    @property
    def certification(self) -> Certification:
        return self.system.certification


def empirical_termination_probe(system: RewritingSystem, samples: int = 200,
                                max_length: int = 20, step_budget: int = 10**5,
                                seed: int = 0) -> EmpiricalTermination:
    """Reduce random words and record that every derivation halted."""
    rng = random.Random(seed)
    pairs = system.rule_pairs()
    letters = system.alphabet.letters
    max_seen = 0
    for _ in range(samples):
        n = rng.randint(0, max_length)
        w = "".join(rng.choice(letters) for _ in range(n))
        steps: list = []
        try:
            _reduce(pairs, w, step_budget, steps)
        except FuelExhausted:
            return EmpiricalTermination(samples, max_length, step_budget,
                                        False, step_budget)
        max_seen = max(max_seen, len(steps))
    return EmpiricalTermination(samples, max_length, step_budget, True, max_seen)


def certify_family_system(tag: CaseTag, params: FamilyParams,
                          system: Optional[RewritingSystem] = None,
                          max_weight: int = 8, fuel: int = DEFAULT_FUEL,
                          seed: int = 0) -> CertificationSummary:
    """Certify a constructed system as far as the case allows.

    All cases get a local-confluence check.  Everything except Case2 then
    gets a termination-order search (widened on the letter a when the
    rules demand it); Case2 instead records empirical termination
    evidence and its certification intentionally stays below complete.
    """
    if system is None:
        system = build_system(tag, params)
    lc = check_local_confluence(system, fuel)
    current = lc.system if lc.joinable else system
    order = None
    empirical = None
    if tag.variant == Case.CASE2:
        empirical = empirical_termination_probe(system, seed=seed)
    else:
        cap = required_letter_cap(system, "a")
        order = find_termination_order(system, max_weight,
                                       per_letter_max={"a": max(max_weight, cap)})
        if order is not None:
            report = verify_termination(current, order)
            if report.certified:
                current = report.system
    return CertificationSummary(tag, params, current, lc.joinable, order, empirical)
