"""Finite complete string-rewriting systems for the one-relator monoids
Mon<a,b : a^A b^B a^C b^D = b>: construction, certification, Knuth-Bendix
completion, a bounded word-problem oracle, Dehn/space measurement, and
endomorphism analysis (including the non-hopfian demonstration)."""

from .analysis import (
    DehnSample,
    EqualityCertificate,
    EqualityOutcome,
    dehn_table,
    enumerate_elements,
    equal_in_monoid,
)
from .confluence import (
    CompletionReport,
    CriticalPair,
    check_local_confluence,
    critical_pairs,
    is_length_non_increasing,
    knuth_bendix,
)
from .endo import (
    EndomorphismSpec,
    HopfReport,
    InjectivityWitness,
    apply_substitution,
    check_lifts,
    find_injectivity_violation,
    hopf_demo,
    surjectivity_evidence,
)
from .family import (
    Case,
    CaseTag,
    FamilyParams,
    build_system,
    certify_family_system,
    check_derivation_chain,
    classify,
    extended_presentation,
    one_relator_presentation,
    probe_order,
    verify_presentation_equivalence,
    x_definition,
)
from .rewrite import (
    Certification,
    FuelExhausted,
    Presentation,
    ReductionOrder,
    ReductionTrace,
    Rule,
    RewritingSystem,
    compare,
    find_termination_order,
    normal_form,
    rewrite_step,
    verify_termination,
)
from .words import (
    Alphabet,
    Word,
    WordSyntaxError,
    alphabet,
    find_occurrences,
    parse_word,
    print_word,
)

__version__ = "0.1.0"
