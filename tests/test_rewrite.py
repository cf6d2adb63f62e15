import random
from itertools import product

import pytest

import rewritekit as rk
from rewritekit.confluence import certify
from rewritekit.rewrite import (
    GREATER,
    MAX_WEIGHT,
    FuelExhausted,
    Certification,
    ReductionOrder,
    ReductionTrace,
    Rule,
    RewritingSystem,
    compare,
    find_termination_order,
    format_system_file,
    normal_form,
    parse_order,
    parse_system_file,
    rewrite_step,
    verify_termination,
)
from rewritekit.words import alphabet
from tests.conftest import (
    GRID,
    demo_schema as demo,
    reference_order_scan,
    system,
    words_up_to,
)

AB = alphabet("ab")
ABX = alphabet("abx")


class TestRule:
    def test_empty_lhs_rejected(self):
        with pytest.raises(ValueError):
            Rule("", "a")

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            Rule("ab", "ab")

    def test_duplicate_rules_rejected(self):
        with pytest.raises(ValueError):
            system(AB, ("ab", "b"), ("ab", "b"))

    def test_complete_system_requires_an_order(self):
        with pytest.raises(ValueError, match="certification complete requires an order"):
            RewritingSystem(AB, (Rule("ab", "b"),), Certification.COMPLETE)


class TestRewriteStep:
    def test_leftmost_single_application(self):
        s = system(ABX, ("ab", "xx"))
        assert rewrite_step(s, "aabb") == ("axxb", 0, 1)

    def test_lowest_index_wins_on_tie(self):
        s = system(AB, ("ab", "b"), ("a", "b"))
        # both rules match at position 0; rule 0 wins
        assert rewrite_step(s, "ab") == ("b", 0, 0)

    def test_demo_rule_4(self, demo):
        assert rewrite_step(demo, "xxbb") == ("bxbx", 3, 0)

    def test_empty_word_is_normal(self, demo):
        assert rewrite_step(demo, "") is None


class TestNormalForm:
    def test_image_of_ab2_reduces_to_b(self, demo):
        nf, trace = normal_form(demo, "ababbab")
        assert nf == "b"
        assert trace.replay(demo, "ababbab")

    def test_image_of_relator_reduces_to_bx2(self, demo):
        w = "a" + "bab" * 2 + "aa" + "bab" * 2
        nf, _ = normal_form(demo, w)
        assert nf == "bxx"

    def test_inverse_probe_reduction(self, demo):
        nf, _ = normal_form(demo, "xabbaxabb")
        assert nf == "xxxbaxxxb"

    def test_already_normal(self, demo):
        nf, trace = normal_form(demo, "xxxbaxxxb")
        assert nf == "xxxbaxxxb"
        assert trace.steps == ()

    def test_idempotent_on_random_words(self, demo):
        rng = random.Random(3)
        for _ in range(300):
            w = "".join(rng.choice("abx") for _ in range(rng.randint(0, 10)))
            nf, _ = normal_form(demo, w)
            nf2, trace = normal_form(demo, nf)
            assert nf2 == nf and trace.steps == ()

    def test_fuel_exhaustion(self):
        s = system(AB, ("a", "aa"))
        with pytest.raises(FuelExhausted):
            normal_form(s, "a", fuel=10)

    def test_non_positive_fuel_rejected(self, demo):
        with pytest.raises(ValueError, match="fuel must be >= 1"):
            normal_form(demo, "ab", fuel=0)

    @pytest.mark.parametrize("step", [
        lambda idx, pos, after: (0, pos, after),
        lambda idx, pos, after: (idx, pos + 1, after),
        lambda idx, pos, after: (idx, pos, after + "a"),
    ], ids=["rule", "position", "word-after"])
    def test_replay_rejects_a_tampered_trace(self, demo_system, step):
        w = "aaabbbbbaabbbabb"  # a^3b^5a^2b^3ab^2
        nf, trace = normal_form(demo_system, w)
        assert (nf, len(trace.steps), trace.steps[0][:2]) == ("axbbbxbxxb", 5, (1, 2))
        assert trace.replay(demo_system, w)
        tampered = ReductionTrace((step(*trace.steps[0]),) + trace.steps[1:])
        assert not tampered.replay(demo_system, w)


class TestCompare:
    def test_weight_dominance(self):
        order = ReductionOrder({"a": 1, "b": 1}, ("a", "b"))
        assert compare(order, "abab", "b") == GREATER

    def test_lex_tiebreak(self):
        order = ReductionOrder({"a": 1, "b": 1}, ("a", "b"))
        assert compare(order, "abb", "bab") == GREATER

    def test_three_letter_tiebreak(self):
        order = ReductionOrder({"a": 4, "b": 1, "x": 2}, ("x", "b", "a"))
        assert compare(order, "xxbb", "bxbx") == GREATER

    def test_equal_only_for_identical(self):
        order = ReductionOrder({"a": 1, "b": 1}, ("a", "b"))
        assert compare(order, "ab", "ab") == 0
        assert compare(order, "ab", "ba") != 0

    def test_missing_letter(self):
        order = ReductionOrder({"a": 1, "b": 1}, ("a", "b"))
        with pytest.raises(KeyError):
            compare(order, "ax", "b")

    def test_order_properties_random(self):
        rng = random.Random(5)
        letters = "abx"
        for _ in range(400):
            weights = {c: rng.randint(1, 5) for c in letters}
            prec = list(letters)
            rng.shuffle(prec)
            order = ReductionOrder(weights, tuple(prec))
            u, v, w = ("".join(rng.choice(letters) for _ in range(rng.randint(0, 8)))
                       for _ in range(3))
            cuv, cvw, cuw = (compare(order, u, v), compare(order, v, w),
                             compare(order, u, w))
            assert cuv == -compare(order, v, u)
            if cuv >= 0 and cvw >= 0:
                assert cuw >= 0
            assert (cuv == 0) == (u == v)
            ctx_a = "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            ctx_b = "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            assert compare(order, ctx_a + u + ctx_b, ctx_a + v + ctx_b) == cuv


class TestVerifyTermination:
    def test_two_rule_system_certifies(self):
        s = system(AB, ("abab", "b"), ("abb", "bab"))
        order = ReductionOrder({"a": 1, "b": 1}, ("a", "b"))
        report = verify_termination(s, order)
        assert report.certified
        # abab -> b alone terminates but is not locally confluent
        one_rule = certify(system(AB, ("abab", "b")), order)
        assert one_rule.certification == rk.Certification.TERMINATING
        assert one_rule.order == order

    def test_demo_certifies_with_given_order(self, demo):
        order = ReductionOrder({"a": 4, "b": 1, "x": 2}, ("x", "b", "a"))
        assert verify_termination(demo, order).certified

    def test_weight_increasing_rule_fails(self):
        s = system(AB, ("b", "ab"))
        for wa in range(1, 6):
            for wb in range(1, 6):
                order = ReductionOrder({"a": wa, "b": wb}, ("a", "b"))
                report = verify_termination(s, order)
                assert not report.certified and report.failing_rule == 0

    def test_certified_systems_terminate_empirically(self, demo):
        # exhaustive small grid: every reduction halts well under the fuel cap
        order = find_termination_order(demo)
        assert verify_termination(demo, order).certified
        words = words_up_to("abx", 7)
        for w in words:
            normal_form(demo, w, fuel=10**6)

        s = system(AB, ("abab", "b"), ("abb", "bab"))
        assert verify_termination(s, ReductionOrder({"a": 1, "b": 1}, ("a", "b"))).certified
        words = words_up_to("ab", 12)
        for w in words:
            normal_form(s, w, fuel=10**6)


def _grid_schemas(grid=GRID):
    """(tuple, system) for every tuple of ``grid`` (default [1..4]^4) whose
    schema gets an order search, that is every case but Case2."""
    for t in grid:
        tag, params = rk.classify(*t)
        if tag.variant != rk.Case.CASE2:
            yield t, rk.build_system(tag, params)


class TestFindTerminationOrder:
    def test_demo_order_found(self, demo):
        order = find_termination_order(demo, max_weight=8)
        assert order is not None
        assert verify_termination(demo, order).certified

    def test_strictly_growing_rules_have_no_order(self):
        # every letter count grows left to right, so no weighted shortlex fits
        tag, params = rk.classify(2, 2, 7, 2)
        assert tag.variant == rk.Case.CASE2 and params.k == 3
        s = rk.build_system(tag, params)
        rule = s.rules[1]
        assert rule.lhs.count("a") < rule.rhs.count("a")
        assert rule.lhs.count("b") < rule.rhs.count("b")
        assert find_termination_order(s, max_weight=8) is None

    def test_length_reducing_rule_all_weights_one(self):
        s = system(AB, ("ababb", "b"))
        order = find_termination_order(s, max_weight=8)
        assert order is not None
        assert set(order.weights.values()) == {1}

    def test_grid_schemas_match_the_reference_scan(self):
        # the pruned search returns the first certifying order of the full scan
        for t, s in _grid_schemas():
            assert find_termination_order(s) == reference_order_scan(s, MAX_WEIGHT), t

    def test_grid_orders_do_not_depend_on_the_cap(self):
        # each letter's range widens to the weight it needs, and those
        # widened ranges, not max_weight, decide every schema's order over
        # [1..8]^4: the reason certify_family_system takes no cap
        schemas = list(_grid_schemas(product(range(1, 9), repeat=4)))
        assert len(schemas) == 3648
        for t, s in schemas:
            order = find_termination_order(s, 1)
            assert order is not None and order == find_termination_order(s, 8), t
            assert rk.certify_family_system(*rk.classify(*t)).order == order, t

    def test_non_positive_weight_cap_rejected(self, demo):
        with pytest.raises(ValueError, match="max weight must be >= 1"):
            find_termination_order(demo, 0)

    def test_large_weight_cap_returns(self):
        # up to 1000^3 vectors per precedence: only a pruned search gets through
        for t, s in _grid_schemas():
            order = find_termination_order(s, max_weight=1000)
            assert order is not None and verify_termination(s, order).certified, t


class TestSerialization:
    def test_system_file_round_trip(self, demo):
        text = format_system_file(demo)
        parsed = parse_system_file(text)
        assert parsed.alphabet == demo.alphabet
        assert parsed.rule_pairs() == demo.rule_pairs()

    def test_order_round_trip(self):
        order = ReductionOrder({"a": 4, "b": 1, "x": 2}, ("x", "b", "a"))
        assert parse_order(str(order)) == order

    def test_order_precedence_allows_spaces(self):
        assert (parse_order("weights: a=1 b=1; precedence: b > a")
                == parse_order("weights: a=1 b=1; precedence: b>a"))
        with pytest.raises(ValueError):  # an empty letter stays an error
            parse_order("weights: a=1 b=1; precedence: b>a>")

    def test_bad_system_file(self):
        with pytest.raises(ValueError):
            parse_system_file("ab -> b\n")
