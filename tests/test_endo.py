import random

import pytest

import rewritekit as rk
from rewritekit import endo
from rewritekit.endo import (
    EndomorphismSpec,
    apply_substitution,
    check_lifts,
    find_injectivity_violation,
    hopf_demo,
    parse_endomorphism,
    surjectivity_evidence,
)
from rewritekit.rewrite import RewritingSystem
from rewritekit.confluence import certify
from rewritekit.words import alphabet, parse_word, print_word
from tests.conftest import certified_demo as demo, words_up_to

AB = alphabet("ab")

PHI = EndomorphismSpec({"a": "a", "b": "bab"})
PSI = EndomorphismSpec({"a": "a", "b": "abb"})
IDENTITY = EndomorphismSpec({"a": "a", "b": "b"})


@pytest.fixture(scope="module")
def free_monoid():
    order = rk.ReductionOrder({"a": 1, "b": 1}, ("a", "b"))
    system = certify(RewritingSystem(AB, ()), order)
    assert system.certification == rk.Certification.COMPLETE
    return system, rk.Presentation(AB, ())


class TestApplySubstitution:
    def test_b_to_bab(self):
        assert apply_substitution(PHI, "abb") == "ababbab"

    def test_identity(self):
        assert apply_substitution(IDENTITY, "abba") == "abba"

    def test_b_to_abb_on_relator(self):
        assert apply_substitution(PSI, "abbaabb") == "aabbabbaaabbabb"

    def test_missing_image(self):
        with pytest.raises(ValueError):
            apply_substitution(EndomorphismSpec({"a": "a"}), "ab")

    def test_homomorphism_property(self):
        rng = random.Random(37)
        for _ in range(300):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
            v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
            assert (apply_substitution(PHI, u + v)
                    == apply_substitution(PHI, u) + apply_substitution(PHI, v))
        assert apply_substitution(PHI, "") == ""

    def test_parse(self, demo):
        _, pres, _ = demo
        assert parse_endomorphism("a=a,b=bab", pres) == PHI
        with pytest.raises(ValueError):
            parse_endomorphism("a=a", pres)
        with pytest.raises(ValueError):
            parse_endomorphism("a=a,b=bxb", pres)


class TestCheckLifts:
    def test_phi_lifts(self, demo):
        system, pres, _ = demo
        report = check_lifts(system, pres, PHI)
        assert report.lifts
        assert report.relation_normal_forms == (("bxx", "bxx"),)

    def test_psi_does_not_lift(self, demo):
        system, pres, _ = demo
        report = check_lifts(system, pres, PSI)
        assert not report.lifts
        assert report.relation_normal_forms == (("xxxbaxxxb", "xxb"),)

    def test_identity_lifts(self, demo):
        system, pres, _ = demo
        assert check_lifts(system, pres, IDENTITY).lifts

    def test_composition_of_lifting_maps_lifts(self, demo):
        system, pres, _ = demo
        lifting = []
        words3 = words_up_to("ab", 3)
        for image in words3:
            spec = EndomorphismSpec({"a": "a", "b": image})
            if image and check_lifts(system, pres, spec).lifts:
                lifting.append(spec)
        assert len(lifting) >= 2  # identity and b -> bab at least
        for f in lifting:
            for g in lifting:
                composed = EndomorphismSpec(
                    {c: apply_substitution(f, g.images[c]) for c in "ab"})
                assert check_lifts(system, pres, composed).lifts


class TestSurjectivity:
    def test_phi_preimages(self, demo):
        system, pres, _ = demo
        assert surjectivity_evidence(system, pres, PHI, 3) == {"a": "a", "b": "abb"}

    def test_identity_preimages(self, demo):
        system, pres, _ = demo
        assert surjectivity_evidence(system, pres, IDENTITY, 2) == {"a": "a", "b": "b"}

    def test_free_monoid_b_unreachable(self, free_monoid):
        system, pres = free_monoid
        spec = EndomorphismSpec({"a": "a", "b": "ab"})
        evidence = surjectivity_evidence(system, pres, spec, 6)
        assert evidence["a"] == "a" and evidence["b"] is None


class TestInjectivityViolation:
    def test_no_witness_at_bound_one(self, demo):
        system, pres, _ = demo
        assert find_injectivity_violation(system, pres, PHI, 1) is None

    def test_identity_never_collides(self, demo):
        system, pres, _ = demo
        assert find_injectivity_violation(system, pres, IDENTITY, 5) is None

    def test_witness_found_and_revalidates(self, demo):
        system, pres, _ = demo
        witness = find_injectivity_violation(system, pres, PHI, 8)
        assert witness is not None
        assert witness.revalidate(system, PHI)
        assert witness.u_normal_form != witness.v_normal_form

    def test_derived_pair_is_a_witness(self, demo):
        system, pres, params = demo
        u = apply_substitution(PSI, "b")            # ab^2
        v = apply_substitution(PSI, params.relator)  # 15-letter word
        from rewritekit.endo import InjectivityWitness, _normal_forms

        nf = _normal_forms(system)
        witness = InjectivityWitness(u, v, nf(u), nf(v), nf(apply_substitution(PHI, u)))
        assert witness.revalidate(system, PHI)
        assert {witness.u_normal_form, witness.v_normal_form} == {"xxb", "xxxbaxxxb"}


class TestHopfDemo:
    def test_full_pipeline(self):
        report = hopf_demo()
        assert report.lift_verdict
        assert report.surjectivity == {"a": "a", "b": "abb"}
        assert report.non_lift_normal_forms == ("xxxbaxxxb", "xxb")
        assert report.witness.revalidate(report.system, report.lift_map)
        assert report.derived_witness.revalidate(report.system, report.lift_map)
        assert "non-hopfian" in report.conclusion
        assert "Malcev" in report.conclusion

    def test_one_injectivity_scan(self, monkeypatch):
        # a scan returns its first shortlex collision, so one scan at the
        # largest bound finds the witness the smaller bounds would
        bounds = []
        original = endo.find_injectivity_violation

        def recording(system, presentation, phi, bound, fuel):
            bounds.append(bound)
            return original(system, presentation, phi, bound, fuel)

        monkeypatch.setattr(endo, "find_injectivity_violation", recording)
        report = hopf_demo()
        assert len(bounds) == 1
        assert report.witness_bound == 10
        assert (report.witness.u, report.witness.v) == ("aabbbab", "baaabbb")

    def test_composite_fixes_generators(self):
        # phi . psi is the identity on both generators as monoid elements
        report = hopf_demo()
        system = report.system
        from rewritekit.endo import _normal_forms

        nf = _normal_forms(system)
        for g in "ab":
            image = apply_substitution(PHI, apply_substitution(PSI, g))
            assert nf(image) == nf(g)


class TestWitnessesBeyondTheDemo:
    # on (p, 2, 2p, 2) the map a -> a, b -> b a^p b lifts, is surjective and
    # identifies a^(2p) b^3 a^p b with b a^(3p) b^3; measured for p = 2, 3
    @pytest.mark.parametrize("exponents, image, preimage, empty_bound, bound, u, v", [
        ((2, 2, 4, 2), "ba^2b", "a^2b^2", None, 11, "a^4b^3a^2b", "ba^6b^3"),
        ((3, 2, 6, 2), "ba^3b", "a^3b^2", 11, 13, "a^6b^3a^3b", "ba^9b^3"),
    ], ids=["p2", "p3"])
    def test_non_hopfian_witness(self, exponents, image, preimage, empty_bound,
                                 bound, u, v):
        tag, params = rk.classify(*exponents)
        summary = rk.certify_family_system(tag, params)
        assert summary.certification == rk.Certification.COMPLETE
        system, pres = summary.system, rk.one_relator_presentation(params)
        phi = EndomorphismSpec({"a": "a", "b": parse_word(image, pres.alphabet)})
        assert check_lifts(system, pres, phi).lifts
        assert surjectivity_evidence(system, pres, phi, 5) == {
            "a": "a", "b": parse_word(preimage, pres.alphabet)}
        if empty_bound is not None:
            assert find_injectivity_violation(system, pres, phi, empty_bound) is None
        witness = find_injectivity_violation(system, pres, phi, bound)
        assert (print_word(witness.u), print_word(witness.v)) == (u, v)
        assert witness.revalidate(system, phi)
