import json
import random
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import rewritekit as rk
from rewritekit import confluence, rewrite
from rewritekit.confluence import (
    CompletionStats,
    _pairs_for_rules,
    certify,
    check_local_confluence,
    critical_pairs,
    is_length_non_increasing,
    knuth_bendix,
)
from rewritekit.family import Case
from rewritekit.rewrite import ReductionOrder, RewritingSystem, _reduce, normal_form
from rewritekit.words import alphabet
from tests.conftest import GRID, demo_schema as demo, system, words_up_to

AB = alphabet("ab")
ABX = alphabet("abx")
PROBE_GRID_GOLDEN = Path(__file__).parent / "golden" / "probe_grid.json"


def _probe_presentation(params):
    """The probe-grid presentation of the acceptance suite."""
    tag, fp = rk.classify(*params)
    return (rk.extended_presentation(fp) if tag.variant in (Case.CASE3, Case.CASE4)
            else rk.one_relator_presentation(fp))


def single_step_reducts(rules, w):
    """Every (rule index, position, reduct) of w — test-local oracle."""
    out = []
    for idx, (l, r) in enumerate(rules):
        for p in range(len(w) - len(l) + 1):
            if w[p:p + len(l)] == l:
                out.append((idx, p, w[:p] + r + w[p + len(l):]))
    return out


class TestCriticalPairs:
    def test_single_self_overlapping_rule(self):
        cps = critical_pairs(system(AB, ("abab", "b")))
        assert len(cps) == 1
        cp = cps[0]
        assert cp.source == "ababab"
        assert {cp.left, cp.right} == {"bab", "abb"}

    def test_rule_without_self_overlap(self):
        assert critical_pairs(system(AB, ("ababb", "b"))) == []

    def test_demo_self_overlap_joins(self, demo):
        pairs = [cp for cp in critical_pairs(demo)
                 if cp.source == "xxbxxbx"]
        assert len(pairs) == 1
        cp = pairs[0]
        assert {cp.left, cp.right} == {"bxbx", "xxbb"}
        rules = demo.rule_pairs()
        assert _reduce(rules, cp.left, 10**6) == _reduce(rules, cp.right, 10**6) == "bxbx"

    def test_replay_soundness(self, demo):
        for s in (demo, system(AB, ("abab", "b"), ("abb", "bab")),
                  system(AB, ("abab", "b"), ("ab", "a"))):
            rules = s.rule_pairs()
            for cp in critical_pairs(s):
                li, ri = rules[cp.rule_i], rules[cp.rule_j]
                assert cp.source[cp.pos_i:cp.pos_i + len(li[0])] == li[0]
                assert (cp.source[:cp.pos_i] + li[1]
                        + cp.source[cp.pos_i + len(li[0]):]) == cp.left
                assert cp.source[cp.pos_j:cp.pos_j + len(ri[0])] == ri[0]
                assert (cp.source[:cp.pos_j] + ri[1]
                        + cp.source[cp.pos_j + len(ri[0]):]) == cp.right

    def test_boundary_containment_generates_pair(self):
        # ab is a prefix of abab: missing this pair would wrongly pass the check
        s = system(ABX, ("abab", "b"), ("ab", "x"))
        report = check_local_confluence(s)
        assert not report.joinable

    def test_scan_is_complete_on_small_words(self, demo):
        # brute force: every word admitting two overlapping one-step reducts
        # must, after stripping the unrewritten context, appear as a pair
        rules = demo.rule_pairs()
        known = {(cp.source, frozenset((cp.left, cp.right)))
                 for cp in critical_pairs(demo)}
        max_len = max(len(l) for l, _ in rules) * 2
        words = words_up_to("abx", max_len)
        for w in words:
            apps = single_step_reducts(rules, w)
            for a_idx in range(len(apps)):
                for b_idx in range(a_idx + 1, len(apps)):
                    i, p, u = apps[a_idx]
                    j, q, v = apps[b_idx]
                    li, lj = len(rules[i][0]), len(rules[j][0])
                    if p + li <= q or q + lj <= p:
                        continue  # disjoint applications always commute
                    if (i, p) == (j, q):
                        continue
                    lo, hi = min(p, q), max(p + li, q + lj)
                    src = w[lo:hi]
                    left = u[lo:len(u) - (len(w) - hi)]
                    right = v[lo:len(v) - (len(w) - hi)]
                    if left == right:
                        continue
                    assert (src, frozenset((left, right))) in known


def _pair_key(cp):
    return cp.source, frozenset((cp.left, cp.right))


def _words(min_size, max_size):
    return st.lists(st.sampled_from("ab"), min_size=min_size,
                    max_size=max_size).map("".join)


@given(st.lists(st.tuples(_words(1, 5), _words(0, 4)), min_size=1, max_size=6),
       st.data())
def test_new_rule_pairs_are_the_full_walk_filtered(rules, data):
    k = data.draw(st.integers(0, len(rules) - 1))
    full = _pairs_for_rules(rules)
    involving_k = [cp for cp in full if k in (cp.rule_i, cp.rule_j)]
    # the full walk's dedup may already have taken a key from a pair that
    # does not involve k; the incremental walk never sees that pair
    taken_elsewhere = {_pair_key(cp) for cp in full
                       if k not in (cp.rule_i, cp.rule_j)}
    incremental = [cp for cp in _pairs_for_rules(rules, new=k)
                   if _pair_key(cp) not in taken_elsewhere]
    assert incremental == involving_k


class TestLocalConfluence:
    def test_demo_is_joinable(self, demo):
        report = check_local_confluence(demo)
        assert report.joinable
        assert certify(demo).certification == rk.Certification.LOCALLY_CONFLUENT

    def test_single_rule_not_joinable(self):
        report = check_local_confluence(system(AB, ("abab", "b")))
        assert not report.joinable
        failure = report.failures[0]
        assert {failure.left_normal_form, failure.right_normal_form} == {"bab", "abb"}

    def test_empty_rule_set_vacuous(self):
        report = check_local_confluence(RewritingSystem(AB, ()))
        assert report.joinable and report.pairs_checked == 0

    def test_unique_normal_forms_via_newman(self, demo):
        # terminating + locally confluent: one relation application never
        # changes the normal form
        rng = random.Random(17)
        tag, params = rk.classify(1, 2, 2, 2)
        relator = params.relator
        rules = demo.rule_pairs()
        checked = 0
        while checked < 1000:
            u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 12)))
            spots = [p for p in range(len(u)) if u.startswith("b", p)]
            occ = [p for p in range(len(u) - 6) if u[p:p + 7] == relator]
            moves = [("expand", p) for p in spots] + [("contract", p) for p in occ]
            if not moves:
                continue
            kind, p = moves[rng.randrange(len(moves))]
            v = (u[:p] + relator + u[p + 1:] if kind == "expand"
                 else u[:p] + "b" + u[p + 7:])
            assert _reduce(rules, u, 10**6) == _reduce(rules, v, 10**6)
            checked += 1


class TestCertify:
    ORDER = ReductionOrder({"a": 1, "b": 1}, ("a", "b"))

    @pytest.mark.parametrize("rules, order, level", [
        ((("abab", "b"), ("abb", "bab")), ORDER, rk.Certification.COMPLETE),
        ((("abab", "b"), ("abb", "bab")), None, rk.Certification.LOCALLY_CONFLUENT),
        ((("abab", "b"),), ORDER, rk.Certification.TERMINATING),
        ((("b", "ab"),), None, rk.Certification.LOCALLY_CONFLUENT),
        # aab reduces to bb and to b; a heavy b leaves aa -> b unoriented
        ((("aa", "b"), ("ab", "a")), ReductionOrder({"a": 1, "b": 5}, ("a", "b")),
         rk.Certification.UNCERTIFIED),
    ])
    def test_level_from_both_verdicts(self, rules, order, level):
        certified = certify(system(AB, *rules), order)
        assert certified.certification == level
        terminates = level in (rk.Certification.TERMINATING, rk.Certification.COMPLETE)
        assert certified.order == (order if terminates else None)

    def test_an_order_that_fails_is_dropped(self):
        s = system(AB, ("b", "ab"))
        assert certify(s, self.ORDER).order is None
        # the level comes from the two checks alone, not from the input's level
        complete = certify(system(AB, ("abab", "b"), ("abb", "bab")), self.ORDER)
        assert certify(complete).certification == rk.Certification.LOCALLY_CONFLUENT


class TestKnuthBendix:
    def test_rederives_two_rule_system(self):
        pres = rk.Presentation(AB, (("abab", "b"),))
        order = ReductionOrder({"a": 1, "b": 1}, ("a", "b"))
        report = knuth_bendix(pres, order)
        assert report.completed
        assert set(report.system.rule_pairs()) == {("abab", "b"), ("abb", "bab")}
        assert report.system.certification == rk.Certification.COMPLETE

    def test_tiny_limits_exceeded(self):
        pres = rk.Presentation(AB, (("abab", "b"),))
        order = ReductionOrder({"a": 1, "b": 1}, ("a", "b"))
        assert knuth_bendix(pres, order, max_rules=1, max_steps=1).outcome == \
            "limit-exceeded"

    def test_non_positive_limits_rejected(self):
        pres = rk.Presentation(AB, (("abab", "b"),))
        order = ReductionOrder({"a": 1, "b": 1}, ("a", "b"))
        with pytest.raises(ValueError, match="limits must be positive"):
            knuth_bendix(pres, order, max_rules=0)

    @pytest.mark.parametrize("params, outcome, stats", [
        ((1, 1, 1, 1), "completed", (3, 2, 0, 3)),
        ((2, 2, 2, 2), "completed", (6, 4, 1, 6)),
        ((1, 2, 2, 2), "completed", (52, 14, 10, 52)),
        ((1, 2, 4, 2), "limit-exceeded", (4000, 84, 26, 4001)),
        ((1, 3, 2, 2), "limit-exceeded", (2010, 146, 25, 2010)),
    ])
    def test_probe_completion_stats_are_pinned(self, params, outcome, stats):
        # the probe-grid setup of the acceptance suite, at its limits
        pres = _probe_presentation(params)
        report = knuth_bendix(pres, rk.probe_order(pres.alphabet),
                              max_rules=120, max_steps=4000)
        assert (report.outcome, report.stats) == (outcome, CompletionStats(*stats))
        if report.completed:  # inter-reduced: every rhs is a normal form
            rules = report.system.rule_pairs()
            assert all(_reduce(rules, r, 10**6) == r for _, r in rules)

    @pytest.mark.parametrize("params", [(1, 2, 4, 2), (1, 3, 4, 3), (1, 4, 4, 4), None])
    def test_matcher_does_not_change_completion(self, params, demo_presentation,
                                                monkeypatch):
        """The three probe tuples that run to 4000 steps, and the demo
        presentation under the default order (None), complete alike with
        the automaton on long rule lists and with the per-rule find scan on
        every list: the same report, and the same rules at the last
        reduction.  Every automaton they use is flat, so none of their
        long lists falls back to the find scan, and completion builds each
        list's automaton once, when the list's lhs change."""
        if params is None:
            pres, order = demo_presentation, ReductionOrder({"a": 1, "b": 1}, ("a", "b"))
        else:
            pres = _probe_presentation(params)
            order = rk.probe_order(pres.alphabet)
        reduce = confluence._reduce

        def complete():
            last_rules = []

            def recording(pairs, *args, **kwargs):
                last_rules[:] = pairs
                return reduce(pairs, *args, **kwargs)

            monkeypatch.setattr(confluence, "_reduce", recording)
            return knuth_bendix(pres, order, max_rules=120, max_steps=4000), last_rules

        automata, lhs_lists, build = [], [], rewrite._Automaton

        def building(lhss):
            lhs_lists.append(tuple(lhss))
            automata.append(build(lhss))
            return automata[-1]

        monkeypatch.setattr(rewrite, "_Automaton", building)
        with_automaton = complete()
        assert len(set(lhs_lists)) == len(lhs_lists)
        assert automata and not any(a.nested for a in automata)
        assert with_automaton[0].stats.steps == 4001
        monkeypatch.setattr(rewrite, "FIND_SCAN_MAX_RULES", 120)  # above every list
        assert complete() == with_automaton

    def test_later_rule_renormalizes_an_older_rhs(self):
        # a -> b is installed before b -> 1, whose lhs then occurs in that rhs
        pres = rk.Presentation(AB, (("bbaba", "a"), ("ab", "bb"), ("abbab", "")))
        report = knuth_bendix(pres, ReductionOrder({"a": 1, "b": 1}, ("a", "b")))
        assert report.system.rule_pairs() == (("a", ""), ("b", ""))
        assert report.stats == CompletionStats(15, 7, 5, 15)

    def test_order_must_cover_the_alphabet(self):
        pres = rk.Presentation(AB, (("abab", "b"),))
        with pytest.raises(ValueError, match="'b' missing from order"):
            knuth_bendix(pres, ReductionOrder({"a": 1}, ("a",)))

    def test_completing_a_complete_system_preserves_classes(self, demo):
        # the four equations plus the defining equation for x
        equations = tuple(demo.rule_pairs()) + (("aabb", "x"),)
        pres = rk.Presentation(ABX, equations)
        order = ReductionOrder({"a": 1, "b": 1, "x": 1}, ("a", "x", "b"))
        report = knuth_bendix(pres, order)
        assert report.completed
        words = words_up_to("abx", 6)
        by_old, by_new = {}, {}
        for w in words:
            by_old.setdefault(normal_form(demo, w)[0], set()).add(w)
            by_new.setdefault(normal_form(report.system, w)[0], set()).add(w)
        assert sorted(by_old.values(), key=sorted) == sorted(by_new.values(), key=sorted)

    def test_completed_output_is_self_checked(self):
        # a fresh presentation with several equations
        pres = rk.Presentation(AB, (("abab", "b"), ("aabb", "aabb"[::-1])))
        order = ReductionOrder({"a": 1, "b": 1}, ("a", "b"))
        report = knuth_bendix(pres, order)
        if report.completed:
            assert check_local_confluence(report.system).joinable

    def test_weight_one_output_never_lengthens(self):
        for equations in ((("abab", "b"),), (("ababb", "b"),), (("abbabb", "b"),)):
            pres = rk.Presentation(AB, equations)
            order = ReductionOrder({"a": 1, "b": 1}, ("a", "b"))
            report = knuth_bendix(pres, order)
            if report.completed:
                assert is_length_non_increasing(report.system)


def _probe_grid_lines():
    """One JSON line per tuple of [1..4]^4: its probe completion at the
    grid limits, as outcome, stats and the completed rules."""
    for params in GRID:
        pres = _probe_presentation(params)
        report = knuth_bendix(pres, rk.probe_order(pres.alphabet),
                              max_rules=120, max_steps=4000)
        rules = report.system and report.system.rule_pairs()
        yield json.dumps([params, report.outcome, astuple(report.stats), rules])


def test_probe_grid_matches_its_golden():
    """Completion on the whole probe grid is pinned byte for byte: the
    same pops, orientations and rules.  To re-record after an intended
    change, run ``PYTHONPATH=src python -m tests.test_confluence``."""
    expected = PROBE_GRID_GOLDEN.read_text().splitlines()
    assert list(_probe_grid_lines()) == expected


class TestLengthNonIncreasing:
    def test_demo(self, demo):
        assert is_length_non_increasing(demo)

    def test_case3_instance(self):
        tag, params = rk.classify(1, 2, 1, 2)
        assert is_length_non_increasing(rk.build_system(tag, params))

    def test_lengthening_rule(self):
        assert not is_length_non_increasing(system(AB, ("b", "ab")))


if __name__ == "__main__":  # re-record the probe-grid golden
    PROBE_GRID_GOLDEN.write_text("".join(line + "\n" for line in _probe_grid_lines()))
