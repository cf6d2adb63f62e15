"""The four workloads: inputs made from a seed, one round of timed library
calls, and the checks applied to every output.

A workload is three functions.  ``setup(lib, seed)`` makes the inputs and
does the library work the operations depend on; it is timed as set-up.
``prepare(state)`` computes, with the benchmark's own code, what the
checks compare against; it is not timed.  ``ops(state)`` lists the
operations of one round.  Each operation is a single call into the
library and a check of its result; a check returns ``(failed, problems)``
where ``failed`` marks an operation that did not deliver (a budget cut,
an error) and ``problems`` lists outputs that are wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable

import reference as ref
from tracing import rebind

PROBE_LIMITS = {"max_rules": 120, "max_steps": 4000}

# Tuples of [1..4]^4 whose probe completion hits a limit at the commit
# that introduced this benchmark (13 of 256; ~60 s together, too long for
# one run).  A round holds every other tuple plus the three that stop at
# max_steps (84 rules added, 26 removed; 1.3-2.2 s each).  The ten that
# stop at max_rules take 3-8 s each.  No seeded draw among them is kept:
# no two of them cost the same within the machine's noise, so a draw
# would change the size of the job from seed to seed.
LIMIT_IN_ROUND = ((1, 2, 4, 2), (1, 3, 4, 3), (1, 4, 4, 4))
LIMIT_EXCEEDED = frozenset({
    (1, 2, 4, 2), (1, 3, 2, 2), (1, 3, 3, 2), (1, 3, 4, 2), (1, 3, 4, 3),
    (1, 4, 2, 2), (1, 4, 2, 3), (1, 4, 3, 2), (1, 4, 3, 3), (1, 4, 4, 2),
    (1, 4, 4, 3), (1, 4, 4, 4), (2, 4, 4, 2)})

# partition check: every word up to this length over the presentation's letters
PARTITION_LENGTH = {2: 8, 3: 5}

DEHN_TABLES = (((1, 2, 2, 2), 11), ((1, 2, 2, 2), 12), ((1, 1, 1, 1), 10))
DEHN_SMALL = ((1, 2, 2, 2), 8)  # also replayed by the benchmark's own BFS

# (1,1,1,1) is left out: its unequal queries take up to 0.3 s each and
# would make up four fifths of a round.
QUERY_SYSTEMS = ((1, 2, 2, 2), (2, 2, 2, 2))
# Per system and round: normal-form queries, and per oracle mode, equal
# pairs and unequal pairs of each length.  Unequal pairs hold the tail of
# the latency distribution, and their cost grows with length, so every
# length gets the same number of them: a seed cannot shift the mix.
NF_QUERIES, EQUAL_QUERIES, UNEQUAL_PER_LENGTH = 300, 150, 160
NF_LENGTHS = (50, 200)
UNEQUAL_LENGTHS = range(8, 13)
# Equal pairs come from normal-form classes of words up to this length.
# For both query monoids the exhaustive Dehn tables give a space
# requirement below the CLI's default bound, max(|u|,|v|) + 2|relator|,
# at every n <= 10, so each such pair must come back "equal".
EQUAL_MAX_LENGTH = 10

DEMO_MAP = {"a": "a", "b": "bab"}


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, list[str]]]


def _relator(t):
    a, b, g, d = t
    return "a" * a + "b" * b + "a" * g + "b" * d


def _x_definition(t):
    """a^(pk) b^s for an overlapping tuple: p = alpha, s = delta, k = gamma // alpha."""
    alpha, _, gamma, delta = t
    return "a" * (alpha * (gamma // alpha)) + "b" * delta


def _order_of(order):
    return dict(order.weights), tuple(order.precedence)


# ---------------------------------------------------------------- completion

def completion_setup(lib, seed):
    rng = random.Random(seed)
    tuples = [t for t in product(range(1, 5), repeat=4) if t not in LIMIT_EXCEEDED]
    tuples += LIMIT_IN_ROUND
    rng.shuffle(tuples)
    fam = lib.family
    inputs = []
    for t in tuples:
        tag, params = fam.classify(*t)
        if params.overlapping and tag.variant in (fam.Case.CASE3, fam.Case.CASE4):
            pres = fam.extended_presentation(params)
        else:
            pres = fam.one_relator_presentation(params)
        inputs.append({"tuple": t, "tag": tag, "params": params, "pres": pres,
                       "order": fam.probe_order(pres.alphabet)})
    return {"lib": lib, "inputs": inputs}


def completion_prepare(state):
    lib = state["lib"]
    for item in state["inputs"]:
        letters = item["pres"].alphabet.letters
        words = ref.words_up_to(letters, PARTITION_LENGTH[len(letters)])
        schema = lib.family.build_system(item["tag"], item["params"]).rule_pairs()
        item["words"] = words
        item["expected_partition"] = ref.partition(schema, words)
    state["seen"] = {}


def check_completion(item, report, limits=PROBE_LIMITS):
    """Problems with one knuth_bendix report (completion never 'fails')."""
    if report.outcome == "completed":
        rules = report.system.rule_pairs()
        problems = []
        bad = ref.misoriented(rules, *_order_of(item["order"]))
        if bad:  # the rules need not terminate, so nothing is reduced with them
            return [f"{item['tuple']}: rules not descending: {bad[:3]}"]
        if ref.partition(rules, item["words"]) != item["expected_partition"]:
            problems.append(f"{item['tuple']}: normal forms partition words unlike the schema")
        if item["tuple"] == (1, 1, 1, 1) and set(rules) != {("abab", "b"), ("abb", "bab")}:
            problems.append(f"(1,1,1,1) completed to {sorted(rules)}")
        return problems
    if report.outcome == "limit-exceeded":
        st = report.stats
        if st.steps == limits["max_steps"] + 1 or st.rules_added - st.rules_removed > limits["max_rules"]:
            return []
        return [f"{item['tuple']}: limit-exceeded without reaching a limit: {st}"]
    return [f"{item['tuple']}: outcome {report.outcome}"]


def completion_ops(state):
    lib, seen = state["lib"], state["seen"]

    def op(item):
        def call():
            return lib.confluence.knuth_bendix(item["pres"], item["order"], **PROBE_LIMITS)

        def check(report):
            key = (item["tuple"], report.outcome, report.stats,
                   report.system.rule_pairs() if report.system else None)
            if key not in seen:
                seen[key] = check_completion(item, report)
            return False, seen[key]

        return Op(f"knuth_bendix{item['tuple']}", call, check)

    return [op(item) for item in state["inputs"]]


# ---------------------------------------------------------------------- dehn

def dehn_setup(lib, seed):
    fam = lib.family
    tables = list(DEHN_TABLES) + [DEHN_SMALL]
    random.Random(seed).shuffle(tables)
    systems, presentations = {}, {}
    for t in {t for t, _ in tables}:
        tag, params = fam.classify(*t)
        presentations[t] = fam.one_relator_presentation(params)
        systems[t] = fam.certify_family_system(tag, params).system
    return {"lib": lib, "tables": tables, "pres": presentations, "systems": systems}


def dehn_prepare(state):
    counts = {}
    for t, n in state["tables"]:
        counts[(t, n)] = ref.equal_pair_counts(state["systems"][t].rule_pairs(), "ab", n)
    state["pair_counts"] = counts
    t, n = DEHN_SMALL
    equations = state["pres"][t].equations
    state["small_rows"] = ref.dehn_space_table(equations, "ab", n, n + _slack(equations))


def _slack(equations):
    return 2 * max(max(len(l), len(r)) for l, r in equations)


def check_dehn_rows(rows, n_max, cap, pair_counts, reference_rows=None):
    """(failed, problems) for one exhaustive table."""
    if len(rows) != n_max or [r.n for r in rows] != list(range(1, n_max + 1)):
        return False, [f"rows do not cover n = 1..{n_max}"]
    if not all(r.exhaustive for r in rows):
        return True, [f"n_max={n_max}: table is not exhaustive"]
    problems = []
    for prev, row in zip(rows, rows[1:]):
        if row.dehn < prev.dehn or row.space < prev.space:
            problems.append(f"n={row.n}: values decrease")
    for row in rows:
        if not row.n <= row.space <= cap:
            problems.append(f"n={row.n}: space {row.space} outside [{row.n}, {cap}]")
        if row.pairs_examined != pair_counts[row.n - 1]:
            problems.append(f"n={row.n}: {row.pairs_examined} pairs examined, "
                            f"{pair_counts[row.n - 1]} share a normal form")
    if reference_rows is not None:
        got = [(r.n, r.dehn, r.space, r.pairs_examined) for r in rows]
        if got != [tuple(r) for r in reference_rows]:
            problems.append(f"n_max={n_max}: Dehn/space rows differ from the reference BFS")
    return False, problems


def dehn_ops(state):
    lib = state["lib"]

    def op(t, n):
        pres = state["pres"][t]
        cap = n + _slack(pres.equations)
        small = state["small_rows"] if (t, n) == DEHN_SMALL else None

        def call():
            return lib.analysis.dehn_table(pres, n)

        def check(rows):
            return check_dehn_rows(rows, n, cap, state["pair_counts"][(t, n)], small)

        return Op(f"dehn_table{t}n={n}", call, check)

    return [op(t, n) for t, n in state["tables"]]


# ------------------------------------------------------------------- certify

class OracleRecorder:
    """Keeps the outcomes of analysis.equal_in_monoid while ``active``, so
    the derivation-chain certificates, which the chain report does not
    carry, can be replayed.  Costs one extra call frame per oracle call."""

    def __init__(self, lib):
        self.lib = lib
        self.active = False
        self.outcomes = []
        self.original = lib.analysis.equal_in_monoid

    def install(self):
        original = self.original

        def recording(presentation, x, y, *args, **kwargs):
            outcome = original(presentation, x, y, *args, **kwargs)
            if self.active:
                self.outcomes.append((x, y, outcome))
            return outcome

        rebind("rewritekit", original, recording)


def certify_setup(lib, seed):
    fam = lib.family
    rng = random.Random(seed)
    grid = list(product(range(1, 6), repeat=4))
    rng.shuffle(grid)
    classified = {t: fam.classify(*t) for t in grid}
    chains = [t for t in product(range(1, 5), repeat=4)
              if classified[t][0].variant == fam.Case.CASE4]
    rng.shuffle(chains)
    return {"lib": lib, "grid": grid, "classified": classified, "chains": chains,
            "hopf_at": rng.randrange(len(grid) + len(chains) + 1)}


def certify_prepare(state):
    state["recorder"] = OracleRecorder(state["lib"])
    state["recorder"].install()


def check_certification(t, case2, summary, equivalence):
    """Problems with one certify_family_system + verify_presentation_equivalence."""
    problems = []
    rules = summary.system.rule_pairs()
    if not summary.locally_confluent:
        problems.append(f"{t}: not locally confluent")
    if case2:
        if summary.empirical is None or not summary.empirical.all_halted:
            problems.append(f"{t}: no empirical termination evidence")
    elif summary.order is None:
        problems.append(f"{t}: no termination order")
    else:
        bad = ref.misoriented(rules, *_order_of(summary.order))
        if bad:
            problems.append(f"{t}: order does not orient {bad[:3]}")
    relator = _relator(t)
    x_def = _x_definition(t) if "x" in summary.system.alphabet.letters else None
    equations = ((relator, "b"),)
    for (lhs, rhs), result in zip(rules, equivalence.rule_results):
        if x_def:
            lhs, rhs = lhs.replace("x", x_def), rhs.replace("x", x_def)
        cert = result.certificate
        if result.status != "equal" or cert is None:
            problems.append(f"{t}: rule {result.rule_index} not shown equal")
            continue
        bad = ref.chain_problems(equations, lhs, rhs, cert.chain, cert.applications,
                                 cert.d, cert.s)
        if bad:
            problems.append(f"{t}: rule {result.rule_index}: {bad[0]}")
    if len(equivalence.rule_results) != len(rules):
        problems.append(f"{t}: {len(equivalence.rule_results)} results for {len(rules)} rules")
    try:
        shared = ref.reduce_word(rules, relator) == ref.reduce_word(rules, "b")
    except RuntimeError as exc:
        problems.append(f"{t}: {exc}")
    else:
        if not (shared and equivalence.relator_normal_forms_match):
            problems.append(f"{t}: relator sides do not share a normal form")
    return problems


def check_chain(t, report, outcomes):
    """Problems with one derivation-chain report, replaying the recorded
    oracle certificates over <a,b,x | relator = b, x-definition = x>."""
    equations = ((_relator(t), "b"), (_x_definition(t), "x"))
    problems = []
    if not report.identities:
        problems.append(f"{t}: empty chain report")
    for ident in report.identities:
        if ident.status != "equal":
            problems.append(f"{t}: identity {ident.name} not shown equal")
            continue
        certs = [o.certificate for x, y, o in outcomes
                 if (x, y) == (ident.lhs, ident.rhs) and o.status == "equal"]
        if not certs:
            problems.append(f"{t}: identity {ident.name} has no certificate")
            continue
        cert = certs[-1]
        bad = ref.chain_problems(equations, ident.lhs, ident.rhs, cert.chain,
                                 cert.applications, cert.d, cert.s)
        if bad or (cert.d, cert.s) != (ident.d, ident.s):
            problems.append(f"{t}: identity {ident.name}: {bad[0] if bad else 'd/s differ'}")
    return problems


def check_hopf(report):
    problems = []
    if dict(report.lift_map.images) != DEMO_MAP:
        problems.append(f"demonstration map is {report.lift_map}")
    rules = report.system.rule_pairs()
    if report.system.order is None or ref.misoriented(rules, *_order_of(report.system.order)):
        problems.append("demonstration system is not oriented by its order")
    for label, w in (("witness", report.witness), ("derived witness", report.derived_witness)):
        nu, nv = ref.reduce_word(rules, w.u), ref.reduce_word(rules, w.v)
        iu = ref.reduce_word(rules, ref.substitute(DEMO_MAP, w.u))
        iv = ref.reduce_word(rules, ref.substitute(DEMO_MAP, w.v))
        if nu == nv:
            problems.append(f"{label}: {w.u!r} and {w.v!r} are the same element")
        if iu != iv:
            problems.append(f"{label}: images differ")
    return problems


def certify_ops(state):
    lib = state["lib"]
    recorder = state["recorder"]
    fam = lib.family

    def grid_op(t):
        tag, params = state["classified"][t]
        case2 = tag.variant == fam.Case.CASE2

        def call():
            summary = lib.family.certify_family_system(tag, params)
            system = summary.system
            x_def = lib.family.x_definition(params) if "x" in system.alphabet else None
            eq = lib.family.verify_presentation_equivalence(
                lib.family.one_relator_presentation(params), system, x_def)
            return summary, eq

        def check(result):
            return False, check_certification(t, case2, *result)

        return Op(f"certify{t}", call, check)

    def chain_op(t):
        params = state["classified"][t][1]

        def call():
            recorder.outcomes = []
            recorder.active = True
            try:
                return lib.family.check_derivation_chain(params), recorder.outcomes
            finally:
                recorder.active = False

        def check(result):
            return False, check_chain(t, *result)

        return Op(f"chain{t}", call, check)

    ops = [grid_op(t) for t in state["grid"]] + [chain_op(t) for t in state["chains"]]
    ops.insert(state["hopf_at"], Op("hopf_demo", lambda: lib.endo.hopf_demo(),
                                    lambda r: (False, check_hopf(r))))
    return ops


# -------------------------------------------------------------- word-problem

def word_problem_setup(lib, seed):
    fam = lib.family
    rng = random.Random(seed)
    queries = []
    for t in QUERY_SYSTEMS:
        tag, params = fam.classify(*t)
        summary = fam.certify_family_system(tag, params)
        if summary.certification.value != "complete":
            raise RuntimeError(f"query system {t} is not certified complete")
        system = summary.system
        rules = system.rule_pairs()
        pres = fam.one_relator_presentation(params)
        classes = {}
        for w in ref.words_up_to("ab", EQUAL_MAX_LENGTH):
            classes.setdefault(ref.reduce_word(rules, w), []).append(w)
        shared = sorted(c for c in classes.values() if len(c) > 1)
        ctx = {"tuple": t, "system": system, "pres": pres, "rules": rules,
               "bound_extra": 2 * len(params.relator), "nf": {}}
        for _ in range(NF_QUERIES):
            n = rng.randint(*NF_LENGTHS)
            queries.append(("nf", ctx, "".join(rng.choice("ab") for _ in range(n)), None))
        for mode in ("steps", "space"):
            for _ in range(EQUAL_QUERIES):
                u, v = rng.sample(rng.choice(shared), 2)
                queries.append((mode, ctx, u, v))
            for n in UNEQUAL_LENGTHS:
                for _ in range(UNEQUAL_PER_LENGTH):
                    while True:
                        u, v = ("".join(rng.choice("ab") for _ in range(n)) for _ in range(2))
                        if ref.reduce_word(rules, u) != ref.reduce_word(rules, v):
                            break
                    queries.append((mode, ctx, u, v))
    rng.shuffle(queries)
    return {"lib": lib, "queries": queries}


def word_problem_prepare(state):
    for kind, ctx, u, v in state["queries"]:
        for w in (u, v):
            if w is not None and w not in ctx["nf"]:
                ctx["nf"][w] = ref.reduce_word(ctx["rules"], w)


def check_normal_form(rules, w, expected, result):
    nf, trace = result
    problems = []
    if nf != expected:
        problems.append(f"normal form of {w!r} is {nf!r}, expected {expected!r}")
    if not ref.is_irreducible(rules, nf):
        problems.append(f"normal form {nf!r} contains a rule lhs")
    current = w
    for idx, pos, after in trace.steps:
        lhs, rhs = rules[idx]
        if not current.startswith(lhs, pos) or current[:pos] + rhs + current[pos + len(lhs):] != after:
            problems.append(f"trace of {w!r} does not replay")
            break
        current = after
    if current != nf:
        problems.append(f"trace of {w!r} ends at {current!r}, not at {nf!r}")
    return problems


def check_equality(equations, u, v, bound, same_class, outcome):
    """(failed, problems) for one equal_in_monoid answer."""
    if outcome.status == "inconclusive":
        return True, []
    if (outcome.status == "equal") != same_class:
        return False, [f"{u!r} ~ {v!r}: {outcome.status}, normal forms "
                       f"{'agree' if same_class else 'differ'}"]
    if outcome.status == "equal":
        c = outcome.certificate
        bad = ref.chain_problems(equations, u, v, c.chain, c.applications, c.d, c.s)
        if not bad and c.s > bound:
            bad = [f"certificate space {c.s} exceeds the bound {bound}"]
        return False, [f"{u!r} ~ {v!r}: {b}" for b in bad]
    return False, []


def word_problem_ops(state):
    lib = state["lib"]

    def op(kind, ctx, u, v):
        rules, nfs = ctx["rules"], ctx["nf"]
        if kind == "nf":
            system = ctx["system"]
            return Op("normal_form", lambda: lib.rewrite.normal_form(system, u),
                      lambda r: (False, check_normal_form(rules, u, nfs[u], r)))
        pres = ctx["pres"]
        bound = max(len(u), len(v)) + ctx["bound_extra"]
        same = nfs[u] == nfs[v]
        return Op(f"equal_in_monoid[{kind}]",
                  lambda: lib.analysis.equal_in_monoid(pres, u, v, bound, minimize=kind),
                  lambda r: check_equality(pres.equations, u, v, bound, same, r))

    return [op(*q) for q in state["queries"]]


WORKLOADS = {
    "completion": (completion_setup, completion_prepare, completion_ops),
    "dehn": (dehn_setup, dehn_prepare, dehn_ops),
    "certify": (certify_setup, certify_prepare, certify_ops),
    "word-problem": (word_problem_setup, word_problem_prepare, word_problem_ops),
}
