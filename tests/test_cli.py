import argparse
import inspect
import json
import sys
from dataclasses import replace

import pytest

from rewritekit import analysis, cli
from rewritekit.confluence import knuth_bendix

DEMO_PRESENTATION = "letters: a b\nab^2a^2b^2 = b\n"
PRES, SYSTEM = "{pres}", "{system}"  # stand for the demo files in an argv
HUGE, LONG = "9" * 20, "9" * 5000  # exponents past sys.maxsize and past 4,300 digits


@pytest.fixture()
def pres_file(tmp_path):
    path = tmp_path / "m.pres"
    path.write_text(DEMO_PRESENTATION)
    return str(path)


@pytest.fixture()
def bb_a_file(tmp_path):
    path = tmp_path / "bb.pres"
    path.write_text("letters: a b\nbb = a\n")
    return str(path)


@pytest.fixture()
def system_file(tmp_path):
    path = tmp_path / "demo.rs"
    assert cli.main(["build", "--params", "1", "2", "2", "2",
                     "--out", str(path)]) == 0
    return str(path)


class TestExitCodes:
    def test_build_ok(self, tmp_path, capsys):
        assert cli.main(["build", "--params", "1", "2", "2", "2", "--verify"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_usage_error_on_zero_exponent(self, capsys):
        assert cli.main(["build", "--params", "0", "1", "1", "1"]) == 2

    def test_usage_error_on_unknown_flag(self, capsys):
        assert cli.main(["build", "--bogus"]) == 2

    def test_usage_error_without_command(self, capsys):
        assert cli.main([]) == 2

    def test_usage_error_on_bad_word(self, system_file, capsys):
        assert cli.main(["nf", "--system", system_file, "zz"]) == 2

    def test_usage_error_on_empty_range(self, capsys):
        assert cli.main(["grid", "--range", "3..2"]) == 2

    def test_check_failure_on_uncertifiable_endo_target(self, capsys):
        # a Case2 tuple never certifies complete, so endo analysis refuses
        assert cli.main(["endo", "--params", "2", "2", "3", "2",
                         "--map", "a=a,b=bab"]) == 1

    def test_budget_exhaustion_on_tiny_completion_limits(self, pres_file, capsys):
        assert cli.main(["complete", "--presentation", pres_file,
                         "--max-steps", "1", "--max-rules", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("outcome: limit-exceeded\n")
        assert captured.err.startswith("budget exhausted:")
        assert len(captured.err.splitlines()) == 1

    def test_usage_error_on_order_missing_a_letter(self, pres_file, capsys):
        assert cli.main(["complete", "--presentation", pres_file,
                         "--order", "weights: a=1; precedence: a"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_order_precedence_allows_spaces_but_no_empty_letter(self, pres_file, capsys):
        argv = ["complete", "--presentation", pres_file, "--order"]
        assert cli.main(argv + ["weights: a=1 b=1; precedence: b > a"]) == 0
        assert cli.main(argv + ["weights: a=1 b=1; precedence: b>a>"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["endo", "--params", "1", "2", "2", "2", "--map", "a=a,b=bab,b=abb"],
         "letter 'b' has two images"),
        (["complete", "--presentation", "{pres}", "--order",
          "weights: a=1 a=3 b=1; precedence: a>b"], "weighs a letter twice"),
    ])
    def test_usage_error_on_repeated_letter(self, argv, message, pres_file, capsys):
        assert cli.main([a.format(pres=pres_file) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("argv, message", [
        (["grid", "--checks", "bogus"],
         "unknown check 'bogus'; known: ['completeness', 'dehn', 'equivalence', 'probe']"),
        (["complete", "--presentation", PRES, "--order", "garbage"],
         "bad order syntax: 'garbage'"),
        (["complete", "--presentation", PRES, "--order",
          "weights: a=0 b=1; precedence: a>b"], "weight of 'a' must be >= 1, got 0"),
        (["complete", "--presentation", PRES, "--order",
          "weights: a=1; precedence: a>a"], "precedence must list each letter once"),
        (["complete", "--presentation", PRES, "--order",
          "weights: a=1 b=1 c=1; precedence: a>b>c"],
         "order letter 'c' not in presentation alphabet"),
        (["endo", "--params", "1", "2", "2", "2", "--map", "ab"],
         "bad image 'ab'; expected letter=word"),
        *[(["complete", "--presentation", PRES, "--order", order],
           f"bad order syntax: {order!r}")
          for order in (":a=1 b=1;:a>b", "zzz: a=1 b=1; qqq: a>b",
                        "weights: a=\u0663 b=1; precedence: a>b",
                        "weights: a=+2 b=1; precedence: a>b",
                        "weights: a=1_0 b=1; precedence: a>b")],
        # an exponent past sys.maxsize, and one past the int-string limit
        (["nf", "--system", SYSTEM, f"a^{HUGE}"],
         f"exponent too large after 'a' in 'a^{HUGE}'"),
        (["equal", "--presentation", PRES, "b", f"b^{LONG}"],
         f"exponent too large after 'b' in 'b^{LONG}'"),
        (["endo", "--params", "1", "2", "2", "2", "--map", f"a=a,b=b^{HUGE}"],
         f"exponent too large after 'b' in 'b^{HUGE}'"),
        (["equal", "--presentation", "{huge_pres}", "a", "b"],
         f"exponent too large after 'b' in 'ab^{HUGE}'"),
        (["nf", "--system", SYSTEM, "a^\u0663"], "malformed exponent after 'a' in 'a^\u0663'"),
        # a family exponent or range end past sys.maxsize
        (["build", "--params", "1", "2", "2", HUGE],
         f"exponent delta must be <= {sys.maxsize}, got {HUGE}"),
        (["endo", "--params", HUGE, "2", "2", "2", "--map", "a=a,b=bab"],
         f"exponent alpha must be <= {sys.maxsize}, got {HUGE}"),
        (["grid", "--range", "1..1", "--beta", HUGE, "--checks", "probe"],
         f"range '{HUGE}' exceeds the largest exponent, {sys.maxsize}"),
        (["grid", "--range", f"1..{HUGE}"],
         f"range '1..{HUGE}' exceeds the largest exponent, {sys.maxsize}"),
    ], ids=["check", "order-syntax", "weight", "precedence", "order-letter", "image",
            "order-keywords", "order-names", "order-digit", "order-sign", "order-underscore",
            "nf-exponent", "equal-exponent", "map-exponent", "file-exponent", "exponent-digit",
            "build-params", "endo-params", "grid-beta", "grid-range"])
    def test_usage_error_on_malformed_input(self, argv, message, pres_file, system_file,
                                            tmp_path, capsys):
        huge_pres = tmp_path / "huge.pres"
        huge_pres.write_text(f"letters: a b\nab^{HUGE} = b\n")
        files = {"pres": pres_file, "system": system_file, "huge_pres": huge_pres}
        assert cli.main([a.format(**files) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["build", "--params", "1", "2", "2", "2", "--nodes", "0"],
        ["build", "--params", "1", "2", "2", "2", "--fuel", "0"],
        ["grid", "--max-rules", "0"],
        ["grid", "--max-steps", "-1"],
        ["grid", "--dehn-n", "0"],
        ["dehn", "--presentation", "m.pres", "--n", "0"],
        ["equal", "--presentation", "m.pres", "ab", "b", "--nodes", "0"],
        ["equal", "--presentation", "m.pres", "ab", "b", "--bound", "0"],
        ["endo", "--params", "1", "2", "2", "2", "--map", "a=a,b=bab",
         "--surjective-bound", "0"],
        ["endo", "--params", "1", "2", "2", "2", "--map", "a=a,b=bab",
         "--noninjective-bound", "-2"],
    ])
    def test_usage_error_on_non_positive_budget(self, argv, capsys):
        # parsing rejects the value before any file named in argv is read
        assert cli.main(argv) == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["equal", "--presentation", "{dir}", "ab", "b"],
        ["build", "--params", "1", "2", "2", "2", "--out", "{dir}"],
        ["grid", "--range", "1..1", "--out", "{dir}"],
    ])
    def test_usage_error_on_unusable_path(self, argv, tmp_path, capsys):
        # a directory where a file is expected is an OSError, not a crash,
        # and no report is printed before the error
        assert cli.main([a.format(dir=tmp_path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("mode", ["random:x", "random:", "sampled:5"])
    def test_usage_error_on_bad_dehn_mode(self, mode, pres_file, capsys):
        assert cli.main(["dehn", "--presentation", pres_file, "--n", "4",
                         "--mode", mode]) == 2
        assert capsys.readouterr().err == (
            f"error: bad mode {mode!r}; expected exhaustive or random:COUNT\n")

    def test_budget_exhaustion_on_truncated_dehn_table(self, pres_file, capsys):
        # with seed pruning 1,000 nodes hold the whole n = 6 table.  It
        # finds 84 words: trying every budget from 1 to 300, each one up to
        # 83 cuts it and each from 84 on does not, so 50 cuts it with room
        assert cli.main(["dehn", "--presentation", pres_file, "--n", "6",
                         "--nodes", "1000"]) == 0
        capsys.readouterr()
        assert cli.main(["dehn", "--presentation", pres_file, "--n", "6",
                         "--nodes", "50"]) == 3
        captured = capsys.readouterr()
        assert "False" in captured.out
        assert captured.err.startswith("budget exhausted:")

    def test_budget_exhaustion_on_truncated_random_dehn_table(self, pres_file, capsys):
        # random rows are never exhaustive, so only the exit code and the
        # note tell the cut table (d = 6 at n = 10) from the whole one (d = 10).
        # The cut table counts 24 pairs: those of the classes whose bounds
        # connect every pair within the cap, and whose graphs are therefore
        # neither swept nor cut apart by the budget, count whole
        argv = ["dehn", "--presentation", pres_file, "--n", "10",
                "--mode", "random:600", "--seed", "1"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1].split() == ["10", "10", "22", "30", "False"]
        assert captured.err == ""
        assert cli.main(argv + ["--nodes", "40"]) == 3
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1].split() == ["10", "6", "19", "24", "False"]
        assert captured.err.startswith("budget exhausted:")
        assert len(captured.err.splitlines()) == 1

    def test_budget_exhaustion_on_truncated_grid_dehn_table(self, capsys):
        assert cli.main(["grid", "--range", "1..1", "--checks", "dehn",
                         "--dehn-n", "6", "--nodes", "100"]) == 3
        captured = capsys.readouterr()
        assert "dehn=" in captured.out and "space=" in captured.out
        assert captured.err.startswith("budget exhausted:")
        assert "(1, 1, 1, 1)" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_usage_error_on_grid_dehn_n_above_the_ceiling(self, capsys):
        # grid has no random mode, so parsing rejects an n that no exhaustive
        # table reaches, before any tuple is certified
        ceiling = analysis.MAX_EXHAUSTIVE_N
        assert cli.main(["grid", "--range", "1..1", "--checks", "dehn",
                         "--dehn-n", str(ceiling + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"capped at n = {ceiling}," in captured.err
        assert "random" not in captured.err

    def test_budget_exhaustion_on_tiny_oracle(self, pres_file, capsys):
        assert cli.main(["equal", "--presentation", pres_file, "ab^2", "b",
                         "--bound", "40", "--nodes", "10"]) == 3

    def test_budget_exhaustion_on_inconclusive_equal(self, bb_a_file, capsys):
        assert cli.main(["equal", "--presentation", bb_a_file, "bbbaa", "bbb",
                         "--bound", "9", "--nodes", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "inconclusive\n"
        assert captured.err.startswith("budget exhausted:")
        assert len(captured.err.splitlines()) == 1

    def test_space_mode_unequal_at_the_bound_despite_a_small_cap(self, bb_a_file,
                                                                 capsys):
        # cap 5 alone runs out of 8 nodes; the search at the bound decides
        assert cli.main(["equal", "--presentation", bb_a_file, "bbbaa", "bbb",
                         "--bound", "9", "--nodes", "8", "--space"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "unequal-within-bound\n"
        assert captured.err == ""

    def test_budget_exhaustion_on_inconclusive_build_verification(self, capsys):
        # ten nodes decide no rule, but no check fails
        assert cli.main(["build", "--params", "1", "2", "2", "2", "--verify",
                         "--nodes", "10"]) == 3
        captured = capsys.readouterr()
        assert "verification: inconclusive" in captured.out
        assert captured.err.startswith("budget exhausted:")
        assert len(captured.err.splitlines()) == 1

    def test_budget_exhaustion_on_inconclusive_grid_equivalence(self, capsys):
        assert cli.main(["grid", "--range", "1..1", "--beta", "2", "--gamma", "2",
                         "--delta", "2", "--checks", "equivalence", "--nodes", "10"]) == 3
        captured = capsys.readouterr()
        assert "equivalence=inconclusive" in captured.out
        assert captured.err.startswith("budget exhausted:")
        assert "(1, 2, 2, 2)" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_check_failure_wins_over_inconclusive_rules(self, monkeypatch, capsys):
        original = cli.family.verify_presentation_equivalence

        def mismatched(*args, **kwargs):
            report = original(*args, **kwargs)
            return cli.family.EquivalenceReport(report.rule_results, False,
                                                report.relator_normal_form)

        monkeypatch.setattr(cli.family, "verify_presentation_equivalence", mismatched)
        assert cli.main(["build", "--params", "1", "2", "2", "2", "--verify",
                         "--nodes", "10"]) == 1
        assert "verification: FAIL" in capsys.readouterr().out
        assert cli.main(["grid", "--range", "1..1", "--beta", "2", "--gamma", "2",
                         "--delta", "2", "--checks", "equivalence", "--nodes", "10"]) == 1
        assert "equivalence=FAIL" in capsys.readouterr().out

    def test_check_failure_without_termination_evidence(self, monkeypatch, capsys):
        # build --verify and grid apply the same rule: no order, no pass
        original = cli.family.certify_family_system

        def orderless(*args, **kwargs):
            return replace(original(*args, **kwargs), order=None)

        monkeypatch.setattr(cli.family, "certify_family_system", orderless)
        assert cli.main(["build", "--params", "1", "2", "2", "2", "--verify"]) == 1
        assert "verification: FAIL" in capsys.readouterr().out
        assert cli.main(["grid", "--range", "1..1", "--beta", "2", "--gamma", "2",
                         "--delta", "2", "--checks", "completeness,equivalence"]) == 1
        assert "hard failure: True" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["random:0", "random:-2"])
    def test_usage_error_on_non_positive_sample_count(self, mode, pres_file, capsys):
        assert cli.main(["dehn", "--presentation", pres_file, "--n", "4",
                         "--mode", mode]) == 2
        assert capsys.readouterr().err == (
            "error: random mode needs a positive sample count\n")

    def test_usage_error_on_non_alphabetic_letter(self, tmp_path, capsys):
        # '#' would start a comment, so '#a = a' could never be read
        pres = tmp_path / "hash.pres"
        pres.write_text("letters: a #\n#a = a\n")
        assert cli.main(["equal", "--presentation", str(pres), "#a", "a"]) == 2
        assert "'#'" in capsys.readouterr().err

    def test_budget_exhaustion_on_out_of_memory(self, pres_file, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli.analysis, "dehn_table", out_of_memory)
        assert cli.main(["dehn", "--presentation", pres_file, "--n", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget exhausted: out of memory")
        assert len(captured.err.splitlines()) == 1


class TestCommands:
    def test_nf_prints_normal_form(self, system_file, capsys):
        assert cli.main(["nf", "--system", system_file, "ab^2"]) == 0
        assert capsys.readouterr().out.strip() == "x^2b"

    def test_equal_unequal_within_bound(self, pres_file, capsys):
        assert cli.main(["equal", "--presentation", pres_file, "ab^2", "b",
                         "--bound", "9"]) == 0
        assert capsys.readouterr().out.strip() == "unequal-within-bound"

    def test_equal_with_certificate(self, pres_file, capsys):
        assert cli.main(["equal", "--presentation", pres_file,
                         "ab^2a^2b^2", "b", "--bound", "9"]) == 0
        assert "d=1" in capsys.readouterr().out

    def test_complete_writes_system(self, tmp_path, capsys):
        pres = tmp_path / "p.pres"
        pres.write_text("letters: a b\nabab = b\n")
        out = tmp_path / "out.rs"
        assert cli.main(["complete", "--presentation", str(pres),
                         "--out", str(out)]) == 0
        text = out.read_text()
        assert "abab -> b" in text and "ab^2 -> bab" in text

    def test_dehn_table(self, pres_file, capsys):
        assert cli.main(["dehn", "--presentation", pres_file, "--n", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6  # header + rows 1..5

    def test_build_case2_verify_reports_empirical(self, capsys):
        assert cli.main(["build", "--params", "2", "2", "3", "2",
                         "--verify", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        result = payload["result"]
        assert result["case"] == "Case2"
        assert result["system"]["certification"] == "locally-confluent"
        assert result["empirical_termination"]["all_halted"] is True
        assert result["equivalence"]["passed"] is True

    def test_grid_case2_row_reports_empirical(self, capsys):
        assert cli.main(["grid", "--range", "2..2", "--gamma", "3", "--json"]) == 0
        [row] = json.loads(capsys.readouterr().out)["rows"]
        assert row["params"] == [2, 2, 3, 2]
        assert row["case"] == "Case2"
        assert row["certification"] == "locally-confluent"
        assert row["order"] is None
        assert row["empirical_all_halted"] is True

    def test_grid_small(self, capsys):
        assert cli.main(["grid", "--range", "1..2",
                         "--checks", "completeness,equivalence"]) == 0
        out = capsys.readouterr().out
        assert "16 tuples" in out and "hard failure: False" in out

    def test_grid_probe_and_dehn(self, tmp_path, capsys):
        out_path = tmp_path / "rows.json"
        assert cli.main(["grid", "--range", "1..1",
                         "--checks", "completeness,probe,dehn",
                         "--dehn-n", "3", "--out", str(out_path)]) == 0
        rows = json.loads(out_path.read_text())["rows"]
        assert rows[0]["probe"] == "completed"
        assert rows[0]["length_non_increasing"] is True
        assert rows[0]["dehn"][-1][0] == 3

    @pytest.mark.parametrize("equation", ["ab^2a^2b^2 = b", "b = ab^2a^2b^2"])
    @pytest.mark.parametrize("mode", [[], ["--space"]])
    def test_equal_default_bound_ignores_equation_orientation(self, equation, mode,
                                                             tmp_path, capsys):
        pres = tmp_path / "m.pres"
        pres.write_text(f"letters: a b\n{equation}\n")
        argv = ["equal", "--presentation", str(pres), "abbab", "baabb", *mode]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.strip() == "equal (d=2, s=11)"
        assert cli.main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["budgets"]["bound"] == 19  # 5 + 2 * 7
        assert payload["result"]["status"] == "equal"
        assert payload["result"]["certificate"]["d"] == 2

    def test_equal_space_minimal(self, pres_file, capsys):
        assert cli.main(["equal", "--presentation", pres_file,
                         "abbab", "baabb", "--bound", "40", "--space"]) == 0
        assert "s=11" in capsys.readouterr().out

    def test_endo_report(self, capsys):
        assert cli.main(["endo", "--params", "1", "2", "2", "2",
                         "--map", "a=a,b=bab", "--noninjective-bound", "8",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["lifts"] is True
        assert payload["result"]["surjectivity"] == {"a": "a", "b": "ab^2"}
        assert payload["result"]["witness"] is not None

    def test_hopf_demo(self, capsys):
        assert cli.main(["hopf-demo"]) == 0
        out = capsys.readouterr().out
        assert "non-hopfian" in out and "x^3bax^3b" in out

    @pytest.mark.parametrize("u, v, expected", [
        ("a", "b", "unequal-within-bound"),
        ("a", "a", "equal (d=0, s=1)"),
    ])
    def test_equal_without_equations(self, u, v, expected, tmp_path, capsys):
        pres = tmp_path / "free.pres"
        pres.write_text("letters: a b\n")
        assert cli.main(["equal", "--presentation", str(pres), u, v]) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_build_verify_passes_fuel_to_equivalence(self, monkeypatch, capsys):
        original = cli.family.verify_presentation_equivalence
        seen = []

        def recording(*args, **kwargs):
            seen.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli.family, "verify_presentation_equivalence", recording)
        assert cli.main(["build", "--params", "1", "2", "2", "2", "--verify",
                         "--fuel", "777"]) == 0
        assert [kwargs.get("fuel") for kwargs in seen] == [777]

    def test_identity_round_trips_as_1(self, system_file, pres_file, capsys):
        assert cli.main(["nf", "--system", system_file, "1"]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert cli.main(["nf", "--system", system_file, "--json", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["word"] == "1"
        assert cli.main(["equal", "--presentation", pres_file, "1", "1"]) == 0
        assert capsys.readouterr().out.strip() == "equal (d=0, s=0)"
        for image in ("1", ""):
            assert cli.main(["endo", "--params", "1", "2", "2", "2",
                             "--map", f"a=a,b={image}"]) == 0
            assert capsys.readouterr().out.startswith("map a=a,b=1: does not lift")

    def test_empty_rule_side_prints_as_identity(self, tmp_path, capsys):
        pres = tmp_path / "p.pres"
        pres.write_text("letters: a b\nab = \n")
        assert cli.main(["complete", "--presentation", str(pres), "--json"]) == 0
        rules = json.loads(capsys.readouterr().out)["result"]["system"]["rules"]
        assert rules == [{"lhs": "ab", "rhs": "1"}]

    def test_grid_out_writes_the_json_report(self, tmp_path, monkeypatch, capsys):
        # the report is serialized once, for the file and stdout alike
        calls = []
        report = cli._report

        def counted(*args, **fields):
            calls.append(fields)
            return report(*args, **fields)

        monkeypatch.setattr(cli, "_report", counted)
        out_path = tmp_path / "grid.json"
        assert cli.main(["grid", "--range", "1..1", "--json",
                         "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert out_path.read_text() == printed
        assert "budgets" in json.loads(printed)
        assert len(calls) == 1


class TestReproducibility:
    def run_json(self, argv, capsys):
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    def test_json_reports_are_byte_identical(self, pres_file, capsys):
        for argv in (
            ["build", "--params", "1", "2", "2", "2", "--verify", "--json"],
            ["equal", "--presentation", pres_file, "ab^2a^2b^2", "b",
             "--bound", "9", "--json"],
            ["dehn", "--presentation", pres_file, "--n", "4", "--json"],
            ["grid", "--range", "1..2", "--checks", "completeness", "--json"],
            ["hopf-demo", "--json"],
        ):
            first = self.run_json(argv, capsys)
            second = self.run_json(argv, capsys)
            assert first == second
            payload = json.loads(first)
            assert payload["schema"] == 1
            assert "budgets" in payload

    # every budget each command takes, at a value no golden uses
    @pytest.mark.parametrize("argv, budgets", [
        (["build", "--params", "1", "2", "2", "2", "--fuel", "777", "--nodes", "5000"],
         {"fuel": 777, "oracle_nodes": 5000}),
        (["grid", "--range", "1..1", "--fuel", "777", "--nodes", "5000",
          "--max-rules", "60", "--max-steps", "900"],
         {"fuel": 777, "oracle_nodes": 5000, "max_rules": 60, "max_steps": 900}),
        (["complete", "--presentation", PRES, "--order", "weights: a=1 b=1; precedence: b>a",
          "--max-rules", "60", "--max-steps", "900", "--fuel", "777"],
         {"max_rules": 60, "max_steps": 900, "fuel": 777}),
        (["nf", "--system", SYSTEM, "abba", "--fuel", "777"], {"fuel": 777}),
        (["equal", "--presentation", PRES, "abbab", "baabb", "--bound", "40",
          "--nodes", "5000"], {"bound": 40, "oracle_nodes": 5000}),
        (["dehn", "--presentation", PRES, "--n", "3", "--slack", "9", "--nodes", "5000"],
         {"oracle_nodes": 5000, "slack": 9}),
        (["endo", "--params", "1", "2", "2", "2", "--map", "a=a,b=bab", "--fuel", "777",
          "--surjective-bound", "2", "--noninjective-bound", "4"],
         {"fuel": 777, "surjective_bound": 2, "noninjective_bound": 4}),
        (["hopf-demo", "--fuel", "7777"], {"fuel": 7777}),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_every_budget_is_echoed(self, argv, budgets, pres_file, system_file, capsys):
        files = {PRES: pres_file, SYSTEM: system_file}
        capsys.readouterr()
        assert cli.main([files.get(a, a) for a in argv] + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["budgets"] == budgets


def test_every_command_and_option_has_help():
    """Each command, option and positional says in --help what it is; the
    subparsers action itself is described by its commands' help."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {"rewritekit": [a for a in parser._actions if a is not commands]
               + commands._choices_actions}
    actions.update((name, sub._actions) for name, sub in commands.choices.items())
    missing = [(name, a.option_strings or a.dest)
               for name, group in actions.items() for a in group if not a.help]
    assert missing == []


def _default(func, name):
    return inspect.signature(func).parameters[name].default


class TestDefaults:
    """Each CLI default that a library function also has is that function's."""

    @pytest.mark.parametrize("argv", [["grid"], ["complete", "--presentation", "m.pres"]])
    def test_completion_limits(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert (args.max_rules, args.max_steps) == (_default(knuth_bendix, "max_rules"),
                                                    _default(knuth_bendix, "max_steps"))
