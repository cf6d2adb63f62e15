import random
from dataclasses import replace

import pytest

import rewritekit as rk
from rewritekit.family import (
    Case,
    CaseTag,
    build_system,
    certify_family_system,
    check_derivation_chain,
    classify,
    extended_presentation,
    one_relator_presentation,
    verify_presentation_equivalence,
    x_definition,
)
from rewritekit.rewrite import (_reduce, _weight_needed, format_presentation_file,
                               parse_presentation_file)
from tests.conftest import GRID


class TestClassify:
    def test_demo_tuple_is_case4(self):
        tag, params = classify(1, 2, 2, 2)
        assert tag == CaseTag(Case.CASE4, extra_rule=False)
        assert (params.p, params.q, params.r, params.s, params.k) == (1, 0, 0, 2, 2)

    def test_no_overlap(self):
        tag, params = classify(1, 1, 1, 2)
        assert tag.variant == Case.NO_OVERLAP
        assert not params.overlapping

    def test_case1(self):
        tag, params = classify(2, 3, 5, 1)
        assert tag.variant == Case.CASE1
        assert (params.p, params.q, params.r, params.k) == (2, 2, 1, 2)

    def test_case3(self):
        tag, params = classify(1, 2, 1, 2)
        assert tag.variant == Case.CASE3
        assert (params.p, params.q, params.r, params.s, params.k) == (1, 0, 0, 2, 1)

    def test_case2(self):
        tag, params = classify(2, 2, 3, 2)
        assert tag.variant == Case.CASE2
        assert (params.p, params.q, params.r, params.s, params.k) == (2, 0, 1, 2, 1)

    def test_extra_rule_flag(self):
        tag, _ = classify(1, 3, 2, 2)  # q = 1 >= s-1 = 1
        assert tag == CaseTag(Case.CASE4, extra_rule=True)

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            classify(0, 1, 1, 1)

    def test_parametrization_round_trip(self):
        for t in GRID:
            tag, params = classify(*t)
            if not params.overlapping:
                continue
            p, q, r, s, k = params.p, params.q, params.r, params.s, params.k
            rebuilt = "a" * p + "b" * (q + s) + "a" * (r + p * k) + "b" * s
            assert rebuilt == params.relator
            assert 0 <= r < p and k >= 1 and q >= 0 and s >= 1


class TestBuildSystem:
    def test_demo_rules_exact(self):
        tag, params = classify(1, 2, 2, 2)
        assert set(build_system(tag, params).rule_pairs()) == {
            ("axxb", "x"), ("ab", "xx"), ("xxbx", "b"), ("xxbb", "bxbx")}

    def test_case1_instance(self):
        tag, params = classify(1, 1, 1, 1)
        assert set(build_system(tag, params).rule_pairs()) == {
            ("abab", "b"), ("abb", "bab")}

    def test_case3_instance(self):
        tag, params = classify(1, 2, 1, 2)
        assert set(build_system(tag, params).rule_pairs()) == {
            ("abb", "x"), ("xx", "b"), ("xb", "bx")}

    def test_no_overlap_instance(self):
        tag, params = classify(1, 1, 1, 2)
        assert build_system(tag, params).rule_pairs() == (("ababb", "b"),)

    def test_tag_params_mismatch(self):
        tag, _ = classify(1, 1, 1, 1)
        _, params = classify(1, 2, 2, 2)
        with pytest.raises(ValueError):
            build_system(tag, params)

    def test_x_definition(self):
        _, params = classify(1, 2, 2, 2)
        assert x_definition(params) == "aabb"

    def test_x_undefined_without_overlap(self):
        _, params = classify(1, 1, 1, 2)
        for build in (x_definition, extended_presentation):
            with pytest.raises(ValueError, match="overlapping"):
                build(params)


@pytest.fixture(scope="module")
def demo_equivalence():
    tag, params = classify(1, 2, 2, 2)
    return verify_presentation_equivalence(
        one_relator_presentation(params), build_system(tag, params),
        x_definition(params))


class TestEquivalence:
    def test_demo_equivalence(self, demo_equivalence):
        report = demo_equivalence
        assert report.verdict == "PASS"
        # ab = x^2 holds by a single application of the defining relation
        assert report.rule_results[1].d == 1
        assert report.relator_normal_form == "b"

    # rule index -> status on the demo's report (every rule equal there)
    @pytest.mark.parametrize("statuses, relator_normal_forms_match, verdict", [
        ({1: "inconclusive"}, False, "FAIL"),
        ({1: "inconclusive", 2: "unequal-within-bound"}, True, "FAIL"),
        ({1: "inconclusive", 3: "inconclusive"}, True, "inconclusive"),
    ], ids=["relator-mismatch-beats-inconclusive", "unequal-beats-inconclusive",
            "inconclusive"])
    def test_verdict(self, demo_equivalence, statuses, relator_normal_forms_match,
                     verdict):
        rules = tuple(replace(r, status=statuses.get(r.rule_index, r.status))
                      for r in demo_equivalence.rule_results)
        report = replace(demo_equivalence, rule_results=rules,
                         relator_normal_forms_match=relator_normal_forms_match)
        assert report.verdict == verdict

    def test_no_overlap_rule_is_the_relation(self):
        tag, params = classify(1, 1, 1, 2)
        report = verify_presentation_equivalence(
            one_relator_presentation(params), build_system(tag, params))
        assert report.verdict == "PASS"
        assert report.rule_results[0].d == 1

    def test_case1_derived_rule(self):
        tag, params = classify(1, 1, 1, 1)
        report = verify_presentation_equivalence(
            one_relator_presentation(params), build_system(tag, params))
        assert report.verdict == "PASS"
        assert all(r.certificate.replay(one_relator_presentation(params))
                   for r in report.rule_results)

    def test_missing_x_definition_rejected(self):
        tag, params = classify(1, 2, 2, 2)
        with pytest.raises(ValueError):
            verify_presentation_equivalence(one_relator_presentation(params),
                                            build_system(tag, params))


class TestDerivationChain:
    def test_demo_chain(self):
        _, params = classify(1, 2, 2, 2)
        report = check_derivation_chain(params)
        assert report.passed
        by_name = {i.name: i for i in report.identities}
        assert by_name["expand-b"].rhs == "xxbx"  # b = x b^0 x (b^1 x)^1
        assert by_name["expand-ab"].rhs == "xx"   # ab = x b^0 x
        assert "extra" not in by_name

    def test_extra_rule_chain(self):
        _, params = classify(1, 3, 2, 2)
        report = check_derivation_chain(params)
        assert report.passed
        assert any(i.name == "extra" for i in report.identities)

    def test_rejected_outside_case4(self):
        _, params = classify(1, 1, 1, 1)
        with pytest.raises(ValueError):
            check_derivation_chain(params)


class TestCertification:
    def test_demo_complete(self, grid_summaries):
        summary = grid_summaries[(1, 2, 2, 2)]
        assert summary.certification == rk.Certification.COMPLETE
        assert summary.order is not None
        assert summary.verdict == "PASS"

    def test_case2_below_complete_with_evidence(self, grid_summaries):
        summary = grid_summaries[(2, 2, 3, 2)]
        assert summary.tag.variant == Case.CASE2
        assert summary.locally_confluent
        assert summary.certification != rk.Certification.COMPLETE
        assert summary.empirical is not None and summary.empirical.all_halted
        assert summary.empirical.samples == 200
        assert summary.verdict == "PASS"

    @pytest.mark.parametrize("t, tamper", [
        ((1, 2, 2, 2), lambda s: replace(s, order=None)),
        ((1, 2, 2, 2), lambda s: replace(s, locally_confluent=False)),
        ((2, 2, 3, 2), lambda s: replace(s, empirical=replace(s.empirical,
                                                              all_halted=False))),
    ], ids=["without-order", "not-locally-confluent", "case2-probe-did-not-halt"])
    def test_fail_verdict(self, grid_summaries, t, tamper):
        assert tamper(grid_summaries[t]).verdict == "FAIL"

    def test_case4_weight_cap_is_computed(self):
        tag, params = classify(1, 4, 4, 2)
        system = build_system(tag, params)
        assert _weight_needed(system.rule_pairs(), "a") == 12
        summary = certify_family_system(tag, params)
        assert summary.certification == rk.Certification.COMPLETE


class TestOracleNormalFormAgreement:
    def test_sampled_tuples(self, grid_summaries):
        rng = random.Random(23)
        tuples = [(1, 2, 2, 2), (1, 1, 1, 1), (1, 1, 1, 2), (2, 2, 3, 2),
                  (1, 2, 1, 2), (1, 4, 4, 2), (3, 4, 4, 4), (2, 3, 5, 1)]
        for t in tuples:
            if max(t) > 4:
                tag, params = classify(*t)
                summary = certify_family_system(tag, params)
            else:
                summary = grid_summaries[t]
            params = summary.params
            pres = one_relator_presentation(params)
            rules = summary.system.rule_pairs()
            for _ in range(100):
                u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
                v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
                nf_equal = _reduce(rules, u, 10**6) == _reduce(rules, v, 10**6)
                bound = max(len(u), len(v)) + 2 * len(params.relator)
                outcome = rk.equal_in_monoid(pres, u, v, bound)
                if nf_equal:
                    assert outcome.status == "equal", (t, u, v)
                else:
                    assert outcome.status in ("unequal-within-bound", "inconclusive")


class TestPresentationFiles:
    def test_round_trip(self):
        _, params = classify(1, 2, 2, 2)
        pres = extended_presentation(params)
        assert parse_presentation_file(format_presentation_file(pres)) == pres

    def test_bad_file(self):
        with pytest.raises(ValueError):
            parse_presentation_file("ab = b\n")
