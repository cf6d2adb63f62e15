import json
import math
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rewritekit as rk
from rewritekit import analysis
from rewritekit.analysis import (
    _partnered_seeds,
    _pruning_system,
    dehn_table,
    enumerate_elements,
    equal_in_monoid,
)
from rewritekit.rewrite import (
    ReductionOrder,
    Rule,
    RewritingSystem,
    _reduce,
)
from rewritekit.confluence import knuth_bendix
from rewritekit.words import _random_words, _shortlex_words, alphabet
from tests.conftest import (
    bfs_distances,
    bfs_graph,
    certified_demo as demo,
    reference_dehn_rows,
    words_up_to,
)

AB = alphabet("ab")
GOLDEN = Path(__file__).parent / "golden"


class TestEqualInMonoid:
    def test_defining_relation(self, demo):
        _, pres, params = demo
        outcome = equal_in_monoid(pres, params.relator, "b", 9)
        assert outcome.status == "equal"
        assert outcome.certificate.d == 1 and outcome.certificate.s == 7
        assert outcome.certificate.replay(pres)

    def test_reflexive(self, demo):
        _, pres, _ = demo
        outcome = equal_in_monoid(pres, "a", "a", 9)
        assert outcome.status == "equal"
        assert outcome.certificate.d == 0 and outcome.certificate.s == 1

    def test_unequal_within_bound(self, demo):
        _, pres, _ = demo
        assert equal_in_monoid(pres, "abb", "b", 9).status == "unequal-within-bound"

    def test_inconclusive_on_tiny_budget(self, demo):
        _, pres, _ = demo
        outcome = equal_in_monoid(pres, "abb", "b", 40, node_budget=10)
        assert outcome.status == "inconclusive"

    @pytest.mark.parametrize("minimize", ["steps", "space"])
    @pytest.mark.parametrize("x, y, bound, enough, status", [
        ("abbab", "baabb", 19, 5, "equal"),
        ("abb", "b", 17, 22, "unequal-within-bound"),
    ])
    def test_node_budget_boundary(self, demo, minimize, x, y, bound, enough,
                                  status):
        # the least budget that decides the query, and one node fewer
        _, pres, _ = demo
        for budget, expected in ((enough, status), (enough - 1, "inconclusive")):
            outcome = equal_in_monoid(pres, x, y, bound, node_budget=budget,
                                      minimize=minimize)
            assert outcome.status == expected, budget

    def test_bound_must_cover_inputs(self, demo):
        _, pres, _ = demo
        with pytest.raises(ValueError):
            equal_in_monoid(pres, "abab", "b", 3)

    def test_unknown_minimize_mode_is_rejected(self, demo):
        _, pres, _ = demo
        with pytest.raises(ValueError, match="unknown minimize mode 'time'"):
            equal_in_monoid(pres, "abb", "b", 9, minimize="time")

    @pytest.mark.parametrize("tamper", [
        lambda c: replace(c, d=c.d + 1),
        lambda c: replace(c, s=c.s + 1),
        lambda c: replace(c, applications=((0, "rl", 5),) + c.applications[1:]),
        lambda c: replace(c, applications=((0, "lr", 4),) + c.applications[1:]),
        lambda c: replace(c, chain=c.chain[:-1] + ("babab",)),
    ], ids=["d", "s", "position", "direction", "last-word"])
    def test_replay_rejects_a_tampered_certificate(self, demo, tamper):
        _, pres, _ = demo
        cert = equal_in_monoid(pres, "abbab", "baabb", 40).certificate
        assert (cert.chain, cert.applications, cert.d, cert.s) == (
            ("abbab", "abbaabbaabb", "baabb"), ((0, "rl", 4), (0, "lr", 0)), 2, 11)
        assert cert.replay(pres)
        assert not tamper(cert).replay(pres)

    def test_certificate_replay_on_random_walks(self, demo):
        _, pres, params = demo
        relator = params.relator
        rng = random.Random(29)
        for _ in range(300):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
            cap = len(w) + len(relator)
            v = w
            steps = 0
            for _ in range(rng.randint(1, 3)):
                spots = ([("e", p) for p in range(len(v)) if v[p] == "b"
                          if len(v) + 6 <= cap]
                         + [("c", p) for p in range(len(v) - 6)
                            if v[p:p + 7] == relator])
                if not spots:
                    break
                kind, p = spots[rng.randrange(len(spots))]
                v = v[:p] + relator + v[p + 1:] if kind == "e" else v[:p] + "b" + v[p + 7:]
                steps += 1
            outcome = equal_in_monoid(pres, w, v, cap + 2 * len(relator))
            assert outcome.status == "equal"
            assert outcome.certificate.d <= steps
            assert outcome.certificate.replay(pres)
            assert outcome.certificate.chain[0] == w
            assert outcome.certificate.chain[-1] == v

    def test_step_minimality_against_independent_bfs(self):
        # <a,b | abab = b>: exact distances on the full bounded graph
        pres = rk.Presentation(AB, (("abab", "b"),))
        words6 = words_up_to("ab", 6)
        cap = 6 + 3 * 4
        nodes, edges = bfs_graph(pres.equations, words6, cap)
        by_node = {}
        for a, b in edges:
            by_node.setdefault(a, []).append(b)
        checked = 0
        rng = random.Random(31)
        for i, u in enumerate(words6):
            dist = bfs_distances(by_node, u)
            for v in words6[i + 1:]:
                d = dist.get(v)
                if d is None:
                    # spot-check disagreement; exhausting components for all
                    # ~8000 unequal pairs adds nothing but runtime
                    if rng.random() < 0.03:
                        assert equal_in_monoid(pres, u, v, cap).status == \
                            "unequal-within-bound"
                    continue
                outcome = equal_in_monoid(pres, u, v, cap)
                assert outcome.status == "equal"
                assert outcome.certificate.d == d, (u, v)
                checked += 1
        assert checked >= 30  # the graph genuinely contains equal pairs

    @pytest.mark.parametrize("x, y, bound", [
        ("bbbb", "abbbbab", 15),
        ("bbab", "aaabbbb", 15),
        ("abbbb", "bbbab", 13),
    ])
    def test_search_returns_at_its_first_meet(self, monkeypatch, x, y, bound):
        # the word expanded last is the one whose neighbour met the other
        # side, so it lies on the certificate: nothing is expanded after
        pres = rk.Presentation(AB, (("abab", "b"),))
        expanded = []
        neighbors = analysis._neighbors

        def recorded(rules, w, cap):
            expanded.append(w)
            return neighbors(rules, w, cap)

        monkeypatch.setattr(analysis, "_neighbors", recorded)
        outcome = equal_in_monoid(pres, x, y, bound)
        assert outcome.status == "equal"
        assert expanded[-1] in outcome.certificate.chain

    def test_space_minimal_mode_is_exact(self, demo):
        _, pres, params = demo
        # iterative deepening in the test itself, over the independent graph
        for u, v in (("abbab", "baabb"), (params.relator, "b")):
            expected = None
            for cap in range(max(len(u), len(v)), 40):
                nodes, edges = bfs_graph(pres.equations, [u], cap)
                if v in nodes:
                    expected = cap
                    break
            outcome = equal_in_monoid(pres, u, v, 40, minimize="space")
            assert outcome.status == "equal"
            assert outcome.certificate.s == expected
            assert max(len(w) for w in outcome.certificate.chain) == expected


@pytest.fixture()
def search_caps(monkeypatch):
    """The length cap of every bidirectional search run while it is in use."""
    caps = []
    search = analysis._bidirectional_search

    def counted(rules, x, y, cap, node_budget):
        caps.append(cap)
        return search(rules, x, y, cap, node_budget)

    monkeypatch.setattr(analysis, "_bidirectional_search", counted)
    return caps


class TestSpaceMode:
    BB_A = rk.Presentation(AB, (("bb", "a"),))

    def test_unequal_at_the_bound_is_not_lost_to_a_small_cap(self):
        # cap 5 runs out of 8 nodes, but the search at the bound proves
        # the pair unequal, and so does every cap below it
        assert equal_in_monoid(self.BB_A, "bbbaa", "bbb", 9, node_budget=8,
                               minimize="space").status == "unequal-within-bound"
        assert equal_in_monoid(self.BB_A, "bbbaa", "bbb", 5, node_budget=8,
                               minimize="space").status == "inconclusive"

    def test_unequal_pair_runs_one_search(self, demo, search_caps):
        _, pres, _ = demo
        outcome = equal_in_monoid(pres, "abb", "b", 9, minimize="space")
        assert outcome.status == "unequal-within-bound"
        assert search_caps == [9]

    def test_equal_pair_deepens_only_up_to_its_s(self, demo, search_caps):
        _, pres, params = demo
        for u, v in (("abbab", "baabb"), (params.relator, "b")):
            search_caps.clear()
            outcome = equal_in_monoid(pres, u, v, 40, minimize="space")
            assert outcome.status == "equal"
            lo = max(len(u), len(v))
            assert len(search_caps) <= outcome.certificate.s - lo + 2
            assert search_caps[0] == 40 and search_caps[1:] == list(
                range(lo, outcome.certificate.s + 1))

    def test_steps_mode_runs_one_search(self, demo, search_caps):
        _, pres, params = demo
        for u, v, bound in (("abbab", "baabb", 40), ("abb", "b", 9),
                            (params.relator, "b", 40)):
            search_caps.clear()
            equal_in_monoid(pres, u, v, bound)
            assert search_caps == [bound]


class TestDehn:
    def test_no_short_equal_pairs(self, demo):
        _, pres, _ = demo
        assert dehn_table(pres, 1)[-1].dehn == 0

    def test_relation_pair_counts(self, demo):
        _, pres, _ = demo
        assert dehn_table(pres, 7)[-1].dehn >= 1

    def test_free_monoid_has_trivial_dehn_and_space_n(self):
        pres = rk.Presentation(AB, ())
        for row in dehn_table(pres, 5):
            assert row.dehn == 0
            assert row.space == row.n  # only trivial pairs; s(x, x) = |x|
            assert row.exhaustive

    def test_monotone_in_n(self, demo):
        _, pres, _ = demo
        table = dehn_table(pres, 8)
        for a, b in zip(table, table[1:]):
            assert a.dehn <= b.dehn and a.space <= b.space

    def test_agrees_with_per_pair_oracle(self, demo):
        _, pres, _ = demo
        table = dehn_table(pres, 6)
        # independent route: pairwise oracle over all words of length <= 6
        words = words_up_to("ab", 6)
        cap = 6 + 14
        best_d = 0
        for i, u in enumerate(words):
            for v in words[i + 1:]:
                outcome = equal_in_monoid(pres, u, v, cap)
                if outcome.status == "equal":
                    best_d = max(best_d, outcome.certificate.d)
        assert table[-1].dehn == best_d

    def test_exhaustive_mode_has_a_ceiling(self, demo):
        _, pres, _ = demo
        with pytest.raises(ValueError):
            dehn_table(pres, 15)
        assert dehn_table(pres, 3, sample_count=5)  # no ceiling

    def test_non_positive_n_is_rejected(self, demo):
        _, pres, _ = demo
        with pytest.raises(ValueError, match="n must be >= 1"):
            dehn_table(pres, 0)

    @pytest.mark.parametrize("count", [0, -2])
    def test_non_positive_sample_count_is_rejected(self, demo, count):
        _, pres, _ = demo
        with pytest.raises(ValueError, match="positive sample count"):
            dehn_table(pres, 4, sample_count=count)

    def test_negative_slack_is_rejected(self, demo):
        # a cap below n would report truncated rows as exhaustive
        _, pres, _ = demo
        with pytest.raises(ValueError, match="slack"):
            dehn_table(pres, 4, slack=-1)

    def test_random_mode_is_deterministic_and_bounded(self, demo):
        _, pres, _ = demo
        a = dehn_table(pres, 8, sample_count=60, seed=4)
        b = dehn_table(pres, 8, sample_count=60, seed=4)
        assert a == b
        exhaustive = dehn_table(pres, 8)
        for ra, re in zip(a, exhaustive):
            assert ra.dehn <= re.dehn and ra.space <= re.space
            assert not ra.exhaustive

    def test_random_rows_below_the_shortest_seed_read_zero(self, demo):
        # the five words drawn with seed 0 have lengths 13, 17, 20, 20 and
        # 20, so rows 1..12 hold no seed and no pair: their space is below n
        _, pres, _ = demo
        table = dehn_table(pres, 20, sample_count=5, seed=0)
        assert [(r.dehn, r.space, r.pairs_examined) for r in table[:13]] == \
            [(0, 0, 0)] * 12 + [(0, 13, 0)]

    def test_random_mode_marks_a_cut_graph_truncated(self, demo):
        # random rows are never exhaustive, so only `truncated` tells the cut
        # table (d = 6 at n = 10) from the whole one (d = 10)
        _, pres, _ = demo
        whole = dehn_table(pres, 10, sample_count=600, seed=1)
        cut = dehn_table(pres, 10, sample_count=600, seed=1, node_budget=40)
        assert not any(r.truncated or r.exhaustive for r in whole)
        assert all(r.truncated and not r.exhaustive for r in cut)
        assert (cut[-1].dehn, whole[-1].dehn) == (6, 10)


# Rows and certificates recorded before the graph layer was rewritten
# around a word-only enumerator; the rewrite must reproduce them exactly.
DEMO_ROWS_N8 = [(1, 0, 1, 0), (2, 0, 2, 0), (3, 0, 3, 0), (4, 0, 4, 0),
                (5, 2, 11, 1), (6, 6, 18, 7), (7, 6, 19, 31), (8, 10, 20, 115)]
# Before seed pruning a 1,000-node budget truncated the n = 6 table to these
# rows; with pruning a 100-node budget did.  The budget now caps each
# normal-form class's graph, and the largest class of the n = 6 table has
# 162 words, the others 128 or fewer: 100 nodes cut the table but leave
# its exhaustive values, while 30 nodes truncate it to these rows again.
DEMO_ROWS_N6_BUDGET_30 = [(1, 0, 1, 0), (2, 0, 2, 0), (3, 0, 3, 0),
                          (4, 0, 4, 0), (5, 2, 11, 1), (6, 2, 12, 5)]
DEMO_ROWS_N8_RANDOM_200_SEED_4 = [(1, 0, 1, 0), (2, 0, 2, 0), (3, 0, 3, 0),
                                  (4, 0, 4, 0), (5, 0, 5, 0), (6, 0, 6, 0),
                                  (7, 0, 7, 0), (8, 3, 14, 3)]

# <a,b | aa = a, ab = ba> and <a,b | ab = 1, ba = ab> have words joined by
# more than one application (aaab -> aab at 0 or 1; ababab -> abab at 0, 2
# or 4; abab -> ab at 0 or 2, a step the search takes from ab's side), so
# these pin which application each step records.
AA_AB = (("aa", "a"), ("ab", "ba"))
AB_1 = (("ab", ""), ("ba", "ab"))
GOLDEN_CERTIFICATES = [
    # (equations (None: the demo), x, y, bound, minimize, chain, applications, d, s)
    (None, "abbaabb", "b", 9, "steps", ("abbaabb", "b"), ((0, "lr", 0),), 1, 7),
    (None, "abbab", "baabb", 40, "steps", ("abbab", "abbaabbaabb", "baabb"),
     ((0, "rl", 4), (0, "lr", 0)), 2, 11),
    (None, "abbab", "baabb", 40, "space", ("abbab", "abbaabbaabb", "baabb"),
     ((0, "rl", 4), (0, "lr", 0)), 2, 11),
    (AA_AB, "aaab", "ba", 6, "steps", ("aaab", "aab", "ab", "ba"),
     ((0, "lr", 0), (0, "lr", 0), (1, "lr", 0)), 3, 4),
    (AA_AB, "aabab", "abb", 7, "steps", ("aabab", "aaabb", "aabb", "abb"),
     ((1, "rl", 2), (0, "lr", 0), (0, "lr", 0)), 3, 5),
    (AA_AB, "aabab", "abb", 7, "space", ("aabab", "aaabb", "aabb", "abb"),
     ((1, "rl", 2), (0, "lr", 0), (0, "lr", 0)), 3, 5),
    (AA_AB, "abaab", "bba", 7, "steps", ("abaab", "baaab", "baab", "bab", "bba"),
     ((1, "lr", 0), (0, "lr", 1), (0, "lr", 1), (1, "lr", 1)), 4, 5),
    (AB_1, "abba", "bbaa", 6, "steps", ("abba", "baba", "bbaa"),
     ((1, "rl", 0), (1, "rl", 1)), 2, 4),
    (AB_1, "ababab", "ab", 6, "steps", ("ababab", "abab", "ab"),
     ((0, "lr", 0), (0, "lr", 0)), 2, 6),
    (AB_1, "babab", "b", 5, "space", ("babab", "bab", "b"),
     ((0, "lr", 1), (0, "lr", 1)), 2, 5),
    (AB_1, "bab", "b", 5, "steps", ("bab", "b"), ((0, "lr", 1),), 1, 3),
]


def _rows(table):
    return [(r.n, r.dehn, r.space, r.pairs_examined) for r in table]


class TestGolden:
    def test_exhaustive_rows(self, demo):
        _, pres, _ = demo
        table = dehn_table(pres, 8)
        assert _rows(table) == DEMO_ROWS_N8
        assert all(r.exhaustive for r in table)

    def test_truncated_rows(self, demo):
        _, pres, _ = demo
        # pruned seeds make 1,000 nodes enough for the whole table, whose
        # rows are the golden CLI report's
        table = dehn_table(pres, 6, node_budget=1000)
        golden = json.loads((GOLDEN / "dehn_exhaustive.json").read_text())["rows"]
        assert _rows(table) == [(r["n"], r["dehn"], r["space"], r["pairs"])
                                for r in golden]
        assert all(r.exhaustive and not r.truncated for r in table)
        table = dehn_table(pres, 6, node_budget=30)
        assert _rows(table) == DEMO_ROWS_N6_BUDGET_30
        assert not any(r.exhaustive for r in table)
        assert all(r.truncated for r in table)

    def test_random_rows(self, demo):
        _, pres, _ = demo
        table = dehn_table(pres, 8, sample_count=200, seed=4)
        assert _rows(table) == DEMO_ROWS_N8_RANDOM_200_SEED_4

    @pytest.mark.parametrize("equations, x, y, bound, minimize, chain, apps, d, s",
                             GOLDEN_CERTIFICATES)
    def test_certificates(self, demo, equations, x, y, bound, minimize,
                          chain, apps, d, s):
        pres = demo[1] if equations is None else rk.Presentation(AB, equations)
        outcome = equal_in_monoid(pres, x, y, bound, minimize=minimize)
        assert outcome.status == "equal"
        cert = outcome.certificate
        assert (cert.chain, cert.applications, cert.d, cert.s) == (chain, apps, d, s)
        assert cert.replay(pres)


_side = st.lists(st.sampled_from("ab"), max_size=3).map("".join)


@settings(max_examples=100)
@given(st.lists(st.tuples(_side, _side).filter(lambda e: e[0] != e[1]),
                min_size=1, max_size=2),
       st.integers(1, 4), st.integers(0, 3))
def test_dehn_table_matches_per_pair_reference(equations, n, slack):
    pres = rk.Presentation(AB, tuple(equations))
    assert dehn_table(pres, n, slack=slack) == \
        reference_dehn_rows(pres.equations, n, n + slack)


def _family_presentation(exponents):
    _, params = rk.classify(*exponents)
    return rk.one_relator_presentation(params)


# (1,3,2,2) completes under neither letter order within the pruning limits;
# these rows were recorded before seed pruning existed.
ROWS_1322_N8 = [(1, 0, 1, 0), (2, 0, 2, 0), (3, 0, 3, 0), (4, 0, 4, 0),
                (5, 0, 5, 0), (6, 2, 13, 1), (7, 6, 21, 7), (8, 6, 22, 30)]


def _completion(pres, precedence):
    order = ReductionOrder(dict.fromkeys(precedence, 1), tuple(precedence))
    return knuth_bendix(pres, order, max_rules=10, max_steps=50)


class TestSeedPruning:
    # (1,2,2,2) completes only under b > a, (1,1,1,1) already under a > b
    @pytest.mark.parametrize("exponents, precedence",
                             [((1, 2, 2, 2), "ba"), ((1, 1, 1, 1), "ab")])
    def test_keeps_exactly_the_seeds_with_a_partner(self, exponents, precedence):
        pres = _family_presentation(exponents)
        if precedence == "ba":
            assert not _completion(pres, "ab").completed
        assert _pruning_system(pres) == _completion(pres, precedence).system
        # the partner test of the family's own complete system, built by hand
        tag, params = rk.classify(*exponents)
        summary = rk.certify_family_system(tag, params)
        assert summary.certification == rk.Certification.COMPLETE
        pairs = summary.system.rule_pairs()
        seeds = list(_shortlex_words("ab", 8))
        forms = [_reduce(pairs, w, 10**6) for w in seeds]
        count = Counter(forms)
        groups = _partnered_seeds(pres, seeds)
        kept = [w for group in groups for w in group]
        assert sorted(kept, key=seeds.index) == \
            [w for w, f in zip(seeds, forms) if count[f] > 1]
        assert 0 < len(kept) < len(seeds)
        # one group per normal form, each in seed order, ordered by first seed
        group_forms = [{_reduce(pairs, w, 10**6) for w in group} for group in groups]
        assert all(len(f) == 1 for f in group_forms)
        assert len(set().union(*group_forms)) == len(groups)
        assert all(group == sorted(group, key=seeds.index) for group in groups)
        firsts = [seeds.index(group[0]) for group in groups]
        assert firsts == sorted(firsts)

    def test_no_complete_system_explores_every_seed(self):
        pres = _family_presentation((1, 3, 2, 2))
        assert _pruning_system(pres) is None
        seeds = list(_shortlex_words("ab", 8))
        assert _partnered_seeds(pres, seeds) == [seeds]
        table = dehn_table(pres, 8)
        assert _rows(table) == ROWS_1322_N8
        assert all(r.exhaustive for r in table)

    def test_a_lone_seed_is_measured_alone(self, monkeypatch):
        # one random sample and no complete system: one class of one seed,
        # so no pair, and the space floor is the seed's own length
        pres = _family_presentation((1, 3, 2, 2))
        measure, classes = analysis._measure_class, []

        def measuring(rules, seeds, *args):
            classes.append(list(seeds))
            return measure(rules, seeds, *args)

        monkeypatch.setattr(analysis, "_measure_class", measuring)
        table = dehn_table(pres, 6, sample_count=1, seed=0)
        assert [len(seeds) for seeds in classes] == [1]
        assert _rows(table) == [(n, 0, 0 if n < 4 else 4, 0) for n in range(1, 7)]
        assert not any(r.exhaustive or r.truncated for r in table)

    @pytest.mark.parametrize("exponents", [(1, 2, 2, 2), (1, 1, 1, 1)])
    def test_rows_per_class_equal_rows_of_one_graph(self, exponents, monkeypatch):
        pres = _family_presentation(exponents)
        per_class = dehn_table(pres, 8)
        monkeypatch.setattr(analysis, "_partnered_seeds",
                            lambda presentation, seeds: [list(seeds)])
        assert dehn_table(pres, 8) == per_class

    def test_one_class_graph_at_a_time(self, demo, monkeypatch):
        # each class is measured by its own call, and every word its graph
        # grows shares the normal form of the class's seeds
        system, pres, _ = demo
        pairs = system.rule_pairs()
        measure, explore = analysis._measure_class, analysis._explore
        forms = []  # per measured class: its seeds' forms, then its words'

        def measuring(rules, seeds, *args):
            forms.append(({_reduce(pairs, w, 10**6) for w in seeds}, set()))
            return measure(rules, seeds, *args)

        def exploring(rules, batch, words, *args):
            result = explore(rules, batch, words, *args)
            forms[-1][1].update(_reduce(pairs, words[i], 10**6) for i in result[0])
            return result

        monkeypatch.setattr(analysis, "_measure_class", measuring)
        monkeypatch.setattr(analysis, "_explore", exploring)
        dehn_table(pres, 9)
        assert len(forms) > 1
        for seed_forms, word_forms in forms:
            assert len(seed_forms) == 1
            assert word_forms <= seed_forms
        assert any(word_forms for _, word_forms in forms)


class TestOnDemandGraph:
    # the unpruned (1,3,2,2), whose seeds never all meet, keeps its rows
    # in TestSeedPruning::test_no_complete_system_explores_every_seed
    @pytest.mark.parametrize("exponents", [(1, 1, 1, 1), (2, 2, 2, 2)])
    def test_rows_expand_fewer_words_than_the_whole_graph(self, exponents,
                                                          monkeypatch):
        pres = _family_presentation(exponents)
        cap = 8 + analysis.default_slack(pres)
        expanded = Counter()
        neighbors = analysis._neighbors

        def recorded(rules, w, cap):
            expanded[w] += 1
            return neighbors(rules, w, cap)

        monkeypatch.setattr(analysis, "_neighbors", recorded)
        assert dehn_table(pres, 8) == reference_dehn_rows(pres.equations, 8, cap)
        # each word is expanded at most once, and the graph reachable from
        # the partnered seeds holds at least half as many words again
        seeds = [w for group in _partnered_seeds(pres, words_up_to("ab", 8))
                 for w in group]
        whole, _ = bfs_graph(pres.equations, seeds, cap)
        assert max(expanded.values()) == 1
        assert set(expanded) < whole
        assert len(expanded) < 0.7 * len(whole)

    @pytest.mark.parametrize("slack", [255, 1])
    def test_searches_outnumber_seen_stamps(self, slack):
        # named for the per-seed searches that once outnumbered a shared
        # seen array's stamps: under ab = ba the seeds with five a's and six
        # b's form one class of C(11, 5) = 462 words, so the search from all
        # of its seeds at once marks words with 462-bit masks.  Distances
        # are inversion counts, every path keeps its length, so no slack
        # changes the rows, and each class is complete
        n = 11
        table = dehn_table(rk.Presentation(AB, (("ab", "ba"),)), n,
                           slack=slack)
        pairs = 0
        for L in range(1, n + 1):
            pairs += sum(math.comb(math.comb(L, j), 2) for j in range(L + 1))
            row = table[L - 1]
            assert (row.dehn, row.space, row.pairs_examined) == (
                (L // 2) * (L - L // 2), L, pairs)
            assert row.exhaustive

    def test_budget_caps_only_the_words_found(self):
        # some class's whole graph outgrows 30 words, but the rows never
        # need that many, so the table stays exhaustive at 30
        pres = _family_presentation((1, 1, 1, 2))
        cap = 7 + analysis.default_slack(pres)
        groups = _partnered_seeds(pres, words_up_to("ab", 7))
        assert max(len(bfs_graph(pres.equations, g, cap)[0]) for g in groups) > 30
        table = dehn_table(pres, 7, node_budget=30)
        assert all(r.exhaustive and not r.truncated for r in table)
        assert table == dehn_table(pres, 7)


@pytest.fixture()
def settled_pairs(monkeypatch):
    """How many pairs the triangle rule settles while it is in use."""
    settled = [0]
    settle = analysis._settled

    def counted(*args):
        mask = settle(*args)
        settled[0] += mask.bit_count()
        return mask

    monkeypatch.setattr(analysis, "_settled", counted)
    return settled


class TestSettledPairs:
    # the distance pass settles a pair without a meet when a seed met at
    # both of its ends bounds it within the row it would raise.  Each table
    # pins how many pairs it settles, so a rule that never fires fails here
    @pytest.mark.parametrize("exponents, n, settled", [
        pytest.param((1, 1, 1, 1), 8, 1744, id="exponents0-8"),
        pytest.param((2, 2, 2, 2), 9, 68, id="exponents1-9"),
        pytest.param((1, 3, 2, 2), 8, 3, id="exponents2-8")])
    def test_rows_equal_the_reference(self, exponents, n, settled,
                                      settled_pairs):
        pres = _family_presentation(exponents)
        cap = n + analysis.default_slack(pres)
        assert dehn_table(pres, n) == reference_dehn_rows(pres.equations, n, cap)
        assert settled_pairs == [settled]

    def test_random_rows_equal_the_reference(self, settled_pairs):
        pres = _family_presentation((1, 1, 1, 1))
        n, count, seed = 9, 200, 1
        seeds = sorted(set(_random_words("ab", count, 1, n, seed)),
                       key=lambda w: (len(w), w))
        table = dehn_table(pres, n, sample_count=count, seed=seed)
        cap = n + analysis.default_slack(pres)
        assert _rows(table) == \
            _rows(reference_dehn_rows(pres.equations, n, cap, seeds))
        assert not any(r.exhaustive or r.truncated for r in table)
        assert settled_pairs == [44]

    def test_words_expanded(self, monkeypatch, settled_pairs):
        # searching every pair until it met expanded 87,866 words on
        # (1,1,1,1) n = 10; settling 28,479 pairs that cannot raise their
        # row expands 45,718.  Only the sweep, the settle rule or a change
        # to the graph itself may move the counts
        pres = _family_presentation((1, 1, 1, 1))
        neighbors, expanded = analysis._neighbors, []

        def recorded(rules, w, cap):
            expanded.append(w)
            return neighbors(rules, w, cap)

        monkeypatch.setattr(analysis, "_neighbors", recorded)
        table = dehn_table(pres, 10)
        assert (table[-1].dehn, table[-1].pairs_examined) == (16, 32974)
        assert len(expanded) == len(set(expanded)) == 45_718
        assert settled_pairs == [28_479]


_DEFAULT_SLACK_TABLES = [
    ((1, 2, 2, 2), True), ((1, 1, 1, 1), True), ((2, 1, 3, 1), True),
    ((2, 2, 2, 2), True), ((1, 3, 2, 2), False), ((1, 2, 3, 2), False),
    ((1, 3, 2, 3), False)]


# the default-slack cases keep their ids.  At slack 0 and 2 the caps split
# most of (1,1,1,1)'s normal-form classes into several components, so the
# sweep's roots, not the grouping, decide the distance pass's classes
@pytest.mark.parametrize("exponents, prunes, slack", [
    *(pytest.param(e, p, None, id=f"exponents{k}-{p}")
      for k, (e, p) in enumerate(_DEFAULT_SLACK_TABLES)),
    ((1, 1, 1, 1), True, 0), ((1, 1, 1, 1), True, 2)])
def test_family_dehn_tables_match_per_pair_reference(exponents, prunes, slack):
    pres = _family_presentation(exponents)
    assert (_pruning_system(pres) is not None) == prunes
    table = dehn_table(pres, 6, slack=slack)
    if slack is None:
        slack = 2 * max(len(side) for eq in pres.equations for side in eq)
    else:
        # fewer pairs connect than under the default cap: the case splits
        assert table[-1].pairs_examined < dehn_table(pres, 6)[-1].pairs_examined
    assert table == reference_dehn_rows(pres.equations, 6, 6 + slack)


class TestEnumerateElements:
    def test_counts(self, demo):
        system, _, _ = demo
        assert enumerate_elements(system, 0) == [""]
        assert enumerate_elements(system, 1) == ["", "a", "b", "x"]
        assert len(enumerate_elements(system, 2)) == 12

    def test_excluded_word(self, demo):
        system, _, _ = demo
        assert "ab" not in enumerate_elements(system, 2)

    def test_shortlex_sorted(self, demo):
        system, _, _ = demo
        out = enumerate_elements(system, 3)
        keys = [(len(w), [system.alphabet.letters.index(c) for c in w]) for w in out]
        assert keys == sorted(keys)

    def test_requires_certification(self):
        s = RewritingSystem(AB, (Rule("ab", "b"),))
        with pytest.raises(ValueError):
            enumerate_elements(s, 2)
        assert enumerate_elements(s, 1, allow_uncertified=True) == ["", "a", "b"]

    def test_negative_length_is_rejected(self, demo):
        system, _, _ = demo
        with pytest.raises(ValueError, match="max length must be >= 0"):
            enumerate_elements(system, -1)

    def test_elements_are_exactly_irreducibles(self, demo):
        system, _, _ = demo
        from rewritekit.rewrite import rewrite_step

        out = set(enumerate_elements(system, 4))
        words = words_up_to("abx", 4)
        for w in words:
            assert (w in out) == (rewrite_step(system, w) is None)
