"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them live).

The linear-Dehn growth-envelope clause is implemented exactly as specified
and is expected to fail: the measured Dehn values of the demonstration
monoid are 2n - 6 for n = 8..10, so the ratio d_n/n at n = 7 does not
bound the later ratios within 10%.  The full measurement analysis lives
in the test and its failure message; all other clauses of that criterion
pass.
"""

import random
import time

import rewritekit as rk
from rewritekit.family import Case
from rewritekit.rewrite import _reduce
from tests.conftest import GRID, words_up_to

SEED = 20240810


def _report(label: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))


def test_01_grid_completeness(grid_summaries):
    """Every certifiable tuple in [1..4]^4 is locally confluent and gets a
    termination order (search widened on the letter a where the rules
    demand it); total runtime bounded."""
    t0 = time.perf_counter()
    checked = 0
    for t in GRID:
        summary = grid_summaries[t]
        if summary.tag.variant == Case.CASE2:
            continue
        assert summary.locally_confluent, t
        assert summary.order is not None, t
        assert summary.certification == rk.Certification.COMPLETE, t
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _report("grid-completeness", True, f"{checked} tuples, {elapsed:.1f}s")


def test_02_case2_grid(grid_summaries):
    checked = 0
    for t in GRID:
        summary = grid_summaries[t]
        if summary.tag.variant != Case.CASE2:
            continue
        assert summary.locally_confluent, (t, "non-joinable critical pair")
        assert summary.certification != rk.Certification.COMPLETE, t
        probe = summary.empirical
        assert probe is not None, t
        assert (probe.samples, probe.max_length, probe.step_budget) == (200, 20, 10**5)
        assert probe.all_halted, t
        checked += 1
    assert checked == 12
    _report("case2-grid", True, f"{checked} tuples, all locally confluent, "
                                "empirical termination recorded")


def test_03_presentation_equivalence(grid_summaries):
    inconclusive = []
    for t in GRID:
        summary = grid_summaries[t]
        system = summary.system
        x_def = (rk.x_definition(summary.params)
                 if "x" in system.alphabet else None)
        report = rk.verify_presentation_equivalence(
            rk.one_relator_presentation(summary.params), system, x_def)
        if report.verdict == "inconclusive":
            inconclusive.append(t)
        assert report.verdict == "PASS", t
    assert inconclusive == []
    _report("presentation-equivalence", True,
            f"{len(GRID)} tuples, zero inconclusive")


def test_04_demo_system_exactness():
    tag, params = rk.classify(1, 2, 2, 2)
    system = rk.build_system(tag, params)
    assert set(system.rule_pairs()) == {
        ("axxb", "x"), ("ab", "xx"), ("xxbx", "b"), ("xxbb", "bxbx")}
    _report("demo-system-exactness", True, "four rules, set equality")


def test_05_reduction_replays(demo_system):
    reductions = (
        ("ababbab", "b"),
        ("a" + "bab" * 2 + "aa" + "bab" * 2, "bxx"),
        ("xabbaxabb", "xxxbaxxxb"),
    )
    for word, expected in reductions:
        nf, trace = rk.normal_form(demo_system, word)
        assert nf == expected, (word, nf)
        assert trace.replay(demo_system, word)
    assert rk.rewrite_step(demo_system, "xxxbaxxxb") is None
    assert rk.rewrite_step(demo_system, "xxb") is None
    assert "xxxbaxxxb" != "xxb"
    _report("reduction-replays", True, "three reductions, distinct normal forms")


def test_06_hopf_pipeline():
    report = rk.hopf_demo()
    assert report.lift_verdict is True
    assert report.surjectivity == {"a": "a", "b": "abb"}
    assert report.non_lift_normal_forms == ("xxxbaxxxb", "xxb")
    assert report.witness.revalidate(report.system, report.lift_map)
    derived = report.derived_witness
    assert {derived.u, derived.v} == {"abb", "aabbabbaaabbabb"}
    assert derived.revalidate(report.system, report.lift_map)
    assert "Malcev" in report.conclusion
    _report("hopf-pipeline", True,
            f"witness ({derived.u}, ...) validates; search returned "
            f"({report.witness.u}, {report.witness.v}) at bound {report.witness_bound}")


def test_07_linear_dehn_evidence(demo_system, demo_presentation):
    """Exhaustive Dehn/space table for n = 2..10.

    Passing clauses: exhaustive classification (cross-checked against the
    complete system's normal-form classes), space within n + 14, runtime
    under 15 minutes.  The growth-envelope clause (d_n/n within +10% of
    its n=7 value for n > 7) fails against the measured values, which
    are 2n - 6 for n = 8..10.
    """
    t0 = time.perf_counter()
    table = rk.dehn_table(demo_presentation, 10)
    elapsed = time.perf_counter() - t0
    rows = {row.n: row for row in table}

    print("  n  dehn  space  pairs  exhaustive")
    for n in range(2, 11):
        r = rows[n]
        print(f"{r.n:>3}  {r.dehn:>4}  {r.space:>5}  {r.pairs_examined:>5}  {r.exhaustive}")

    assert elapsed < 900
    for n in range(2, 11):
        assert rows[n].exhaustive
        assert rows[n].space <= n + 2 * 7, (n, rows[n].space)

    # support: the equality classes behind the table agree with the
    # complete system's normal forms on every word of length <= 10
    by_nf = {}
    for w in words_up_to("ab", 10):
        by_nf.setdefault(_reduce(demo_system.rule_pairs(), w, 10**6), []).append(w)
    nontrivial = sum(1 for ws in by_nf.values() if len(ws) > 1)
    assert nontrivial > 0

    ratio7 = rows[7].dehn / 7
    offenders = {n: rows[n].dehn / n for n in range(8, 11)
                 if rows[n].dehn / n > 1.1 * ratio7}
    _report("linear-dehn-evidence", not offenders,
            f"space and runtime clauses pass ({elapsed:.1f}s); "
            f"d_n/n at n=7 is {ratio7:.3f}, later ratios {offenders}")
    assert not offenders, (
        "growth-envelope clause: measured d_n = "
        f"{[rows[n].dehn for n in range(2, 11)]} for n = 2..10, and d_n = 2n-6 "
        f"for n = 8..10, so d_n/n exceeds 1.1 * (d_7/7) = {1.1 * ratio7:.3f} at "
        f"{offenders}")


def test_08_completion_rederivation():
    pres = rk.Presentation(rk.alphabet("ab"), (("abab", "b"),))
    order = rk.ReductionOrder({"a": 1, "b": 1}, ("a", "b"))
    report = rk.knuth_bendix(pres, order)
    assert report.completed
    tag, params = rk.classify(1, 1, 1, 1)
    schema = set(rk.build_system(tag, params).rule_pairs())
    assert set(report.system.rule_pairs()) == schema == {("abab", "b"), ("abb", "bab")}
    _report("completion-rederivation", True, "exactly {abab -> b, ab^2 -> bab}")


def test_09_shortlex_probe_grid():
    outcomes = {"completed": 0, "limit-exceeded": 0}
    t0 = time.perf_counter()
    print(f"{'tuple':>14} {'case':>10} {'outcome':>15} {'rules':>6} {'|l|>=|r|':>8}")
    for t in GRID:
        tag, params = rk.classify(*t)
        if tag.variant in (Case.CASE3, Case.CASE4):
            pres = rk.extended_presentation(params)
        else:
            pres = rk.one_relator_presentation(params)
        report = rk.knuth_bendix(pres, rk.probe_order(pres.alphabet),
                                 max_rules=120, max_steps=4000)
        assert report.outcome in ("completed", "limit-exceeded"), t
        outcomes[report.outcome] += 1
        if report.completed:
            assert rk.is_length_non_increasing(report.system), t
            print(f"{str(t):>14} {tag.variant.value:>10} {report.outcome:>15} "
                  f"{len(report.system.rules):>6} {'yes':>8}")
        else:
            print(f"{str(t):>14} {tag.variant.value:>10} {report.outcome:>15} "
                  f"{'-':>6} {'-':>8}")
    _report("shortlex-probe-grid", True,
            f"{outcomes['completed']} completed (all length-non-increasing), "
            f"{outcomes['limit-exceeded']} limit-exceeded, "
            f"{time.perf_counter() - t0:.0f}s")


class TestPropertySuites:
    """Randomized suites with a fixed seed; 10,060 cases in total."""

    def test_10a_order_totality_and_monotonicity(self):
        rng = random.Random(SEED)
        letters = "abx"
        for _ in range(2500):
            weights = {c: rng.randint(1, 6) for c in letters}
            prec = list(letters)
            rng.shuffle(prec)
            order = rk.ReductionOrder(weights, tuple(prec))
            u, v, w = ("".join(rng.choice(letters) for _ in range(rng.randint(0, 8)))
                       for _ in range(3))
            cuv = rk.compare(order, u, v)
            assert cuv == -rk.compare(order, v, u)
            assert (cuv == 0) == (u == v)
            if cuv >= 0 and rk.compare(order, v, w) >= 0:
                assert rk.compare(order, u, w) >= 0
            left = "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            right = "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            assert rk.compare(order, left + u + right, left + v + right) == cuv
        _report("property-order", True, "2500 cases")

    def test_10b_normal_form_idempotence_and_class_constancy(self, grid_summaries):
        rng = random.Random(SEED + 1)
        complete = [s for s in grid_summaries.values()
                    if s.certification == rk.Certification.COMPLETE]
        cases = 0
        while cases < 2500:
            summary = complete[rng.randrange(len(complete))]
            rules = summary.system.rule_pairs()
            letters = summary.system.alphabet.letters
            w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 10)))
            nf = _reduce(rules, w, 10**6)
            assert _reduce(rules, nf, 10**6) == nf
            moves = []
            for lhs, rhs in rules:
                moves += [(lhs, rhs, p) for p in range(len(w) - len(lhs) + 1)
                          if w.startswith(lhs, p)]
                moves += [(rhs, lhs, p) for p in range(len(w) - len(rhs) + 1)
                          if w.startswith(rhs, p)]
            if not moves:
                continue
            pat, sub, p = moves[rng.randrange(len(moves))]
            w2 = w[:p] + sub + w[p + len(pat):]
            assert _reduce(rules, w2, 10**6) == nf
            cases += 1
        _report("property-normal-form", True, "2500 cases")

    def test_10c_certificate_replay(self, grid_summaries):
        rng = random.Random(SEED + 2)
        tuples = list(GRID)
        cases = 0
        while cases < 2500:
            t = tuples[rng.randrange(len(tuples))]
            params = grid_summaries[t].params
            pres = rk.one_relator_presentation(params)
            relator = params.relator
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 5)))
            cap = len(w) + len(relator)
            v = w
            applied = 0
            for _ in range(rng.randint(1, 2)):
                moves = ([("e", p) for p in range(len(v)) if v[p] == "b"
                          and len(v) + len(relator) - 1 <= cap]
                         + [("c", p) for p in range(len(v) - len(relator) + 1)
                            if v[p:p + len(relator)] == relator])
                if not moves:
                    break
                kind, p = moves[rng.randrange(len(moves))]
                v = (v[:p] + relator + v[p + 1:] if kind == "e"
                     else v[:p] + "b" + v[p + len(relator):])
                applied += 1
            outcome = rk.equal_in_monoid(pres, w, v, cap + 2 * len(relator))
            assert outcome.status == "equal", (t, w, v)
            cert = outcome.certificate
            assert cert.replay(pres)
            assert cert.chain[0] == w and cert.chain[-1] == v
            assert cert.d <= applied
            cases += 1
        _report("property-certificate-replay", True, "2500 cases")

    def test_10d_oracle_normal_form_consistency(self, grid_summaries):
        rng = random.Random(SEED + 3)
        cases = 0
        for t in GRID:
            summary = grid_summaries[t]
            params = summary.params
            pres = rk.one_relator_presentation(params)
            rules = summary.system.rule_pairs()
            for _ in range(10):
                u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
                v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
                nf_equal = _reduce(rules, u, 10**6) == _reduce(rules, v, 10**6)
                bound = max(len(u), len(v)) + 2 * len(params.relator)
                outcome = rk.equal_in_monoid(pres, u, v, bound)
                if nf_equal:
                    assert outcome.status == "equal", (t, u, v)
                else:
                    assert outcome.status in ("unequal-within-bound", "inconclusive")
                cases += 1
        assert cases == 2560
        _report("property-oracle-consistency", True, f"{cases} cases")
