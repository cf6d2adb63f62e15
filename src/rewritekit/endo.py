"""Endomorphisms of finitely presented monoids: lift checking, bounded
surjectivity evidence, injectivity-violation search, and the end-to-end
non-hopfian demonstration for Mon<a,b : ab^2a^2b^2 = b>.

An endomorphism is specified on the presentation generators only; the
auxiliary rewriting letter x is an artifact of the complete system, and
elements are compared through their normal forms under that system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .family import certify_family_system, classify, one_relator_presentation
from .rewrite import DEFAULT_FUEL, Presentation, RewritingSystem, _reduce
from .words import Word, _shortlex_words, parse_word, print_word

DEMO_EXPONENTS = (1, 2, 2, 2)


@dataclass(frozen=True)
class EndomorphismSpec:
    """Images of the presentation generators, as words over those generators."""

    images: Mapping[str, Word]

    def __str__(self) -> str:
        return ",".join(f"{g}={print_word(w) or '1'}" for g, w in sorted(self.images.items()))


def parse_endomorphism(text: str, presentation: Presentation) -> EndomorphismSpec:
    """Parse the CLI map syntax ``a=a,b=bab``."""
    images = {}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"bad image {item!r}; expected letter=word")
        g, w = item.split("=", 1)
        g = g.strip()
        if g in images:
            raise ValueError(f"letter {g!r} has two images")
        images[g] = parse_word(w.strip(), presentation.alphabet)
    spec = EndomorphismSpec(images)
    validate_endomorphism(spec, presentation)
    return spec


def validate_endomorphism(phi: EndomorphismSpec, presentation: Presentation) -> None:
    generators = set(presentation.alphabet.letters)
    if set(phi.images) != generators:
        raise ValueError(f"images must cover exactly the generators {sorted(generators)}")
    for g, w in phi.images.items():
        presentation.alphabet.validate_word(w)


def apply_substitution(phi: EndomorphismSpec, w: Word) -> Word:
    """Homomorphic extension: replace each letter by its image."""
    try:
        return "".join(phi.images[c] for c in w)
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]!r} has no image") from None


def _normal_forms(system: RewritingSystem, fuel: int = DEFAULT_FUEL):
    """The normal-form function of a fixed system."""
    pairs = system.rule_pairs()
    return lambda w: _reduce(pairs, w, fuel)


@dataclass(frozen=True)
class LiftReport:
    lifts: bool
    relation_normal_forms: tuple[tuple[Word, Word], ...]  # per equation (nf(phi(l)), nf(phi(r)))


def check_lifts(system: RewritingSystem, presentation: Presentation,
                phi: EndomorphismSpec, fuel: int = DEFAULT_FUEL) -> LiftReport:
    """phi extends to an endomorphism iff it sends each defining relation
    to a pair of words with a common normal form."""
    validate_endomorphism(phi, presentation)
    nf = _normal_forms(system, fuel)
    results = []
    for lhs, rhs in presentation.equations:
        results.append((nf(apply_substitution(phi, lhs)),
                        nf(apply_substitution(phi, rhs))))
    return LiftReport(all(a == b for a, b in results), tuple(results))


def surjectivity_evidence(system: RewritingSystem, presentation: Presentation,
                          phi: EndomorphismSpec, bound: int,
                          fuel: int = DEFAULT_FUEL) -> dict[str, Optional[Word]]:
    """For each generator, the shortlex-first word whose image equals it.

    A complete table witnesses surjectivity: if every generator has a
    preimage, the image of phi generates the whole monoid.
    """
    nf = _normal_forms(system, fuel)
    targets = {g: nf(g) for g in presentation.alphabet.letters}
    found: dict[str, Optional[Word]] = {g: None for g in targets}
    remaining = set(targets)
    for u in _shortlex_words(presentation.alphabet.letters, bound):
        if not remaining:
            break
        image_nf = nf(apply_substitution(phi, u))
        for g in list(remaining):
            if image_nf == targets[g]:
                found[g] = u
                remaining.discard(g)
    return found


@dataclass(frozen=True)
class InjectivityWitness:
    """Two distinct elements with the same image under the endomorphism."""

    u: Word
    v: Word
    u_normal_form: Word
    v_normal_form: Word
    image_normal_form: Word

    def revalidate(self, system: RewritingSystem, phi: EndomorphismSpec,
                   fuel: int = DEFAULT_FUEL) -> bool:
        nf = _normal_forms(system, fuel)
        return (nf(self.u) == self.u_normal_form
                and nf(self.v) == self.v_normal_form
                and self.u_normal_form != self.v_normal_form
                and nf(apply_substitution(phi, self.u)) == self.image_normal_form
                and nf(apply_substitution(phi, self.v)) == self.image_normal_form)


def find_injectivity_violation(system: RewritingSystem, presentation: Presentation,
                               phi: EndomorphismSpec, bound: int,
                               fuel: int = DEFAULT_FUEL) -> Optional[InjectivityWitness]:
    """Scan generator words in shortlex order and return the first word whose
    image normal form an earlier word of a distinct element already has."""
    nf = _normal_forms(system, fuel)
    by_image: dict[Word, tuple[Word, Word]] = {}
    for w in _shortlex_words(presentation.alphabet.letters, bound):
        own = nf(w)
        image = nf(apply_substitution(phi, w))
        other_own, other_word = by_image.setdefault(image, (own, w))
        if other_own != own:
            return InjectivityWitness(other_word, w, other_own, own, image)
    return None


@dataclass(frozen=True)
class HopfReport:
    exponents: tuple[int, int, int, int]
    system: RewritingSystem
    lift_map: EndomorphismSpec
    lift_verdict: bool
    lift_normal_forms: tuple[tuple[Word, Word], ...]
    surjectivity: dict[str, Optional[Word]]
    non_lift_map: EndomorphismSpec
    non_lift_normal_forms: tuple[Word, Word]
    witness: InjectivityWitness
    witness_bound: int
    derived_witness: InjectivityWitness
    conclusion: str


def hopf_demo(fuel: int = DEFAULT_FUEL) -> HopfReport:
    """Machine-check that Mon<a,b : ab^2a^2b^2 = b> is non-hopfian.

    Builds and certifies the four-rule complete system, verifies that
    a -> a, b -> bab lifts to a surjective endomorphism, that the would-be
    inverse b -> ab^2 does not lift, and exhibits a validated pair of
    distinct elements sharing an image.  Every claim in the report is
    revalidated by normal-form computation before it is returned.
    ``witness_bound`` (the CLI's ``found_at_bound``) is the first of the
    bounds 6, 10 and |derived u| that covers both witness words.
    """
    tag, params = classify(*DEMO_EXPONENTS)
    summary = certify_family_system(tag, params, fuel=fuel)
    if summary.certification.value != "complete":
        raise AssertionError("demo system failed to certify as complete")
    system = summary.system
    presentation = one_relator_presentation(params)

    phi = EndomorphismSpec({"a": "a", "b": "bab"})
    lift = check_lifts(system, presentation, phi, fuel)
    if not lift.lifts:
        raise AssertionError("a -> a, b -> bab must lift")

    surj = surjectivity_evidence(system, presentation, phi, bound=3, fuel=fuel)
    if any(v is None for v in surj.values()):
        raise AssertionError("expected a full preimage table at bound 3")

    psi = EndomorphismSpec({"a": "a", "b": "abb"})
    psi_report = check_lifts(system, presentation, psi, fuel)
    psi_pair = psi_report.relation_normal_forms[0]
    if psi_report.lifts or psi_pair != ("xxxbaxxxb", "xxb"):
        raise AssertionError(f"unexpected normal forms for the inverse probe: {psi_pair}")

    nf = _normal_forms(system, fuel)
    derived_u = apply_substitution(psi, params.relator)
    derived_v = apply_substitution(psi, "b")
    derived = InjectivityWitness(derived_v, derived_u, nf(derived_v), nf(derived_u),
                                 nf(apply_substitution(phi, derived_v)))
    if not derived.revalidate(system, phi, fuel):
        raise AssertionError("derived witness failed revalidation")

    # the scan stops at its first shortlex collision: every bound >= |v| finds it
    witness = find_injectivity_violation(system, presentation, phi, len(derived_u), fuel)
    if witness is None or not witness.revalidate(system, phi, fuel):
        raise AssertionError("no validated injectivity witness found")
    witness_bound = next(b for b in (6, 10, len(derived_u)) if b >= len(witness.v))

    conclusion = ("phi: a -> a, b -> bab is a surjective, non-injective endomorphism, "
                  "so the monoid is non-hopfian; by Malcev's theorem it is therefore "
                  "not residually finite.")
    return HopfReport(DEMO_EXPONENTS, system, phi, lift.lifts,
                      lift.relation_normal_forms, surj, psi, psi_pair,
                      witness, witness_bound, derived, conclusion)
