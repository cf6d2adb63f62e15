"""Tests of the benchmark's checks: each accepts the library's real output
and rejects a tampered copy of it.

Run from the repository root:  python3 bench/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
import rewritekit as rk  # noqa: E402
from rewritekit import family  # noqa: E402

DEMO = (1, 2, 2, 2)


def _demo():
    tag, params = rk.classify(*DEMO)
    return tag, params, rk.certify_family_system(tag, params).system


class CertificateReplay(unittest.TestCase):
    def setUp(self):
        _, params, self.system = _demo()
        self.pres = family.one_relator_presentation(params)
        rules = self.system.rule_pairs()
        classes = {}
        for w in ref.words_up_to("ab", 8):
            classes.setdefault(ref.reduce_word(rules, w), []).append(w)
        for members in classes.values():  # the first pair needing two or more steps
            if len(members) < 2:
                continue
            self.u, self.v = members[:2]
            self.bound = max(len(self.u), len(self.v)) + 2 * len(params.relator)
            self.outcome = rk.equal_in_monoid(self.pres, self.u, self.v, self.bound)
            if self.outcome.certificate.d >= 2:
                break

    def test_real_certificate_replays(self):
        ok = W.check_equality(self.pres.equations, self.u, self.v, self.bound, True, self.outcome)
        self.assertEqual(ok, (False, []))

    def test_altered_step_is_rejected(self):
        cert = self.outcome.certificate
        self.assertGreaterEqual(len(cert.chain), 3)
        chain = list(cert.chain)
        chain[1] = chain[1][::-1] + "a"
        tampered = replace(self.outcome, certificate=replace(cert, chain=tuple(chain)))
        failed, problems = W.check_equality(self.pres.equations, self.u, self.v,
                                            self.bound, True, tampered)
        self.assertTrue(problems)

    def test_altered_position_is_rejected(self):
        cert = self.outcome.certificate
        apps = list(cert.applications)
        idx, direction, pos = apps[0]
        apps[0] = (idx, direction, pos + 1)
        problems = ref.chain_problems(self.pres.equations, self.u, self.v, cert.chain,
                                      apps, cert.d, cert.s)
        self.assertTrue(problems)

    def test_equal_verdict_on_distinct_classes_is_rejected(self):
        failed, problems = W.check_equality(self.pres.equations, self.u, self.v,
                                            self.bound, False, self.outcome)
        self.assertTrue(problems)


class NormalForms(unittest.TestCase):
    def setUp(self):
        _, _, self.system = _demo()
        self.rules = self.system.rule_pairs()
        self.word = "abbaabbabbaabbbabab" * 4

    def test_reference_reducer_agrees_with_library(self):
        for w in ref.words_up_to("ab", 9):
            self.assertEqual(ref.reduce_word(self.rules, w), rk.normal_form(self.system, w)[0])

    def test_real_normal_form_passes(self):
        result = rk.normal_form(self.system, self.word)
        expected = ref.reduce_word(self.rules, self.word)
        self.assertEqual(W.check_normal_form(self.rules, self.word, expected, result), [])

    def test_wrong_normal_form_is_rejected(self):
        nf, trace = rk.normal_form(self.system, self.word)
        expected = ref.reduce_word(self.rules, self.word)
        for wrong in (nf + "b", nf[:-1], "ab" + nf):
            problems = W.check_normal_form(self.rules, self.word, expected, (wrong, trace))
            self.assertTrue(problems, wrong)


class DehnRows(unittest.TestCase):
    def setUp(self):
        tag, params, self.system = _demo()
        self.pres = family.one_relator_presentation(params)
        self.n = 7
        self.cap = self.n + 2 * len(params.relator)
        self.rows = rk.dehn_table(self.pres, self.n)
        self.counts = ref.equal_pair_counts(self.system.rule_pairs(), "ab", self.n)
        self.reference = ref.dehn_space_table(self.pres.equations, "ab", self.n, self.cap)

    def test_real_table_passes(self):
        self.assertEqual(W.check_dehn_rows(self.rows, self.n, self.cap, self.counts,
                                           self.reference), (False, []))

    def test_off_by_one_pair_count_is_rejected(self):
        rows = list(self.rows)
        rows[-1] = replace(rows[-1], pairs_examined=rows[-1].pairs_examined + 1)
        failed, problems = W.check_dehn_rows(rows, self.n, self.cap, self.counts)
        self.assertTrue(problems)

    def test_wrong_dehn_value_is_rejected(self):
        rows = list(self.rows)
        rows[-1] = replace(rows[-1], dehn=rows[-1].dehn + 1)
        failed, problems = W.check_dehn_rows(rows, self.n, self.cap, self.counts, self.reference)
        self.assertTrue(problems)

    def test_truncated_table_counts_as_failed(self):
        rows = [replace(r, exhaustive=False) for r in self.rows]
        failed, _ = W.check_dehn_rows(rows, self.n, self.cap, self.counts)
        self.assertTrue(failed)


class Orientation(unittest.TestCase):
    def _item(self, t):
        tag, params = rk.classify(*t)
        pres = family.one_relator_presentation(params)
        words = ref.words_up_to("ab", W.PARTITION_LENGTH[2])
        schema = family.build_system(tag, params).rule_pairs()
        return {"tuple": t, "pres": pres, "order": family.probe_order(pres.alphabet),
                "words": words, "expected_partition": ref.partition(schema, words)}

    def test_real_completion_passes(self):
        item = self._item((1, 1, 1, 1))
        report = rk.knuth_bendix(item["pres"], item["order"], **W.PROBE_LIMITS)
        self.assertEqual(W.check_completion(item, report), [])

    def test_misoriented_rule_is_rejected(self):
        item = self._item((1, 1, 1, 1))
        report = rk.knuth_bendix(item["pres"], item["order"], **W.PROBE_LIMITS)
        rules = list(report.system.rules)
        rules[0] = rk.Rule(rules[0].rhs, rules[0].lhs)
        tampered = replace(report, system=replace(report.system, rules=tuple(rules)))
        self.assertTrue(W.check_completion(item, tampered))

    def test_misoriented_certified_order_is_rejected(self):
        t = DEMO
        tag, params = rk.classify(*t)
        summary = rk.certify_family_system(tag, params)
        eq = rk.verify_presentation_equivalence(family.one_relator_presentation(params),
                                                summary.system, family.x_definition(params))
        self.assertEqual(W.check_certification(t, False, summary, eq), [])
        order = summary.order
        flipped = rk.ReductionOrder(dict(order.weights), tuple(reversed(order.precedence)))
        bad = W.check_certification(t, False, replace(summary, order=flipped), eq)
        self.assertTrue(any("orient" in p for p in bad), bad)

    def test_fake_limit_is_rejected(self):
        item = self._item((1, 1, 1, 1))
        report = rk.knuth_bendix(item["pres"], item["order"], **W.PROBE_LIMITS)
        fake = replace(report, outcome="limit-exceeded", system=None)
        self.assertTrue(W.check_completion(item, fake))


if __name__ == "__main__":
    unittest.main()
