"""Command-line surface: build/certify family systems, run batch grids,
complete presentations, reduce words, query the equality oracle, measure
Dehn/space tables, and analyze endomorphisms.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 budget
exhaustion.  JSON reports are deterministic: identical inputs and budgets
produce byte-identical output (timings appear in text tables only).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from itertools import product
from pathlib import Path
from typing import Optional

from . import analysis, confluence, endo, family, rewrite
from .rewrite import FuelExhausted, ReductionOrder, RewritingSystem
from .words import Word, WordSyntaxError, parse_word, print_word

SCHEMA_VERSION = 1

EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3


def _word(w: Word) -> str:
    """How every report prints a word: the identity prints as ``1``."""
    return print_word(w) or "1"


def _preimages(table) -> dict:
    return {g: None if w is None else _word(w) for g, w in table.items()}


def _system(system: RewritingSystem) -> dict:
    return {
        "letters": list(system.alphabet.letters),
        "rules": [{"lhs": _word(r.lhs), "rhs": _word(r.rhs)} for r in system.rules],
        "certification": system.certification.value,
        "order": str(system.order) if system.order else None,
    }


def _certificate(cert) -> Optional[dict]:
    if cert is None:
        return None
    return {"d": cert.d, "s": cert.s, "chain": [_word(w) for w in cert.chain]}


def _witness(witness) -> dict:
    return {key: _word(w) for key, w in asdict(witness).items()}


def _report(args, budgets: dict, **fields) -> str:
    """The JSON report envelope shared by every command."""
    return json.dumps({"schema": SCHEMA_VERSION, "command": args.command,
                       "budgets": budgets, **fields}, sort_keys=True, indent=2)


def positive_int(text: str) -> int:
    """argparse type for budgets and sizes: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_range(text: str) -> range:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected N or LO..HI") from None
    if lo < 1 or hi < lo:
        raise ValueError(f"empty or invalid range {text!r}")
    return range(lo, hi + 1)


def _read_presentation(path: str) -> rewrite.Presentation:
    return rewrite.parse_presentation_file(Path(path).read_text())


def _certify(args, exponents) -> family.CertificationSummary:
    tag, params = family.classify(*exponents)
    return family.certify_family_system(tag, params, max_weight=args.max_weight,
                                        fuel=args.fuel)


def _equivalence(args, params, system: RewritingSystem) -> family.EquivalenceReport:
    x_def = family.x_definition(params) if family.AUX_LETTER in system.alphabet else None
    return family.verify_presentation_equivalence(
        family.one_relator_presentation(params), system, x_def,
        node_budget=args.nodes, fuel=args.fuel)


def cmd_build(args) -> int:
    summary = _certify(args, args.params)
    tag, system, empirical = summary.tag, summary.system, summary.empirical
    result = {
        "params": list(args.params),
        "case": tag.variant.value,
        "extra_rule": tag.extra_rule,
        "system": _system(system),
    }
    verdict = None
    if args.verify:
        eq = _equivalence(args, summary.params, system)
        result["locally_confluent"] = summary.locally_confluent
        if empirical is not None:
            result["empirical_termination"] = asdict(empirical)
        result["equivalence"] = {
            "passed": eq.verdict == "PASS",
            "rules": [{"rule": i.rule_index, "status": i.status, "d": i.d, "s": i.s}
                      for i in eq.rule_results],
            "relator_normal_form": _word(eq.relator_normal_form),
        }
        verdict = "FAIL" if "FAIL" in (summary.verdict, eq.verdict) else eq.verdict
    if args.out:
        Path(args.out).write_text(rewrite.format_system_file(system))
    if args.json:
        print(_report(args, {"fuel": args.fuel, "max_weight": args.max_weight,
                             "oracle_nodes": args.nodes}, result=result))
    else:
        print(f"case {tag.variant.value} for a^{args.params[0]} b^{args.params[1]} "
              f"a^{args.params[2]} b^{args.params[3]} = b")
        print(str(system))
        print(f"certification: {system.certification.value}")
        if system.order:
            print(f"order: {system.order}")
        if args.verify:
            print(f"verification: {verdict}")
    if verdict == "FAIL":
        return EXIT_CHECK_FAILED
    if verdict == "inconclusive":
        print(f"budget exhausted: the {args.nodes}-node budget left the equivalence "
              "check inconclusive", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_grid(args) -> int:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    known = {"completeness", "equivalence", "probe", "dehn"}
    for c in checks:
        if c not in known:
            raise ValueError(f"unknown check {c!r}; known: {sorted(known)}")
    ranges = [_parse_range(getattr(args, name) or args.range)
              for name in ("alpha", "beta", "gamma", "delta")]
    rows = []
    truncated = []  # tuples whose Dehn table the node budget cut short
    undecided = []  # tuples whose equivalence check it left inconclusive
    hard_failure = False
    for exponents in product(*ranges):
        t0 = time.perf_counter()
        row: dict = {"params": list(exponents)}
        if "completeness" in checks:
            summary = _certify(args, exponents)
            tag, params, system = summary.tag, summary.params, summary.system
            row["certification"] = summary.certification.value
            row["locally_confluent"] = summary.locally_confluent
            row["order"] = str(summary.order) if summary.order else None
            hard_failure |= summary.verdict == "FAIL"
            if summary.empirical is not None:
                row["empirical_all_halted"] = summary.empirical.all_halted
        else:
            tag, params = family.classify(*exponents)
            system = family.build_system(tag, params)
        row["case"] = tag.variant.value
        if "equivalence" in checks:
            eq = _equivalence(args, params, system)
            row["equivalence"] = eq.verdict
            hard_failure |= eq.verdict == "FAIL"
            if eq.verdict == "inconclusive":
                undecided.append(exponents)
        if "probe" in checks:
            pres = (family.extended_presentation(params)
                    if tag.variant in (family.Case.CASE3, family.Case.CASE4)
                    else family.one_relator_presentation(params))
            report = confluence.knuth_bendix(
                pres, family.probe_order(pres.alphabet),
                max_rules=args.max_rules, max_steps=args.max_steps)
            row["probe"] = report.outcome
            if report.completed:
                row["probe_rules"] = len(report.system.rules)
                row["length_non_increasing"] = confluence.is_length_non_increasing(
                    report.system)
        if "dehn" in checks:
            table = analysis.dehn_table(
                family.one_relator_presentation(params), args.dehn_n,
                node_budget=args.nodes)
            row["dehn"] = [[s.n, s.dehn, s.space] for s in table]
            if not all(s.exhaustive for s in table):
                truncated.append(exponents)
        rows.append((row, time.perf_counter() - t0))
    payload = _report(args, {"fuel": args.fuel, "max_weight": args.max_weight,
                             "oracle_nodes": args.nodes, "max_rules": args.max_rules,
                             "max_steps": args.max_steps},
                      checks=checks, rows=[r for r, _ in rows])
    if args.json:
        print(payload)
    else:
        for row, elapsed in rows:
            fields = [f"{tuple(row['params'])}", f"{row['case']:9}"]
            for key in ("certification", "equivalence", "probe",
                        "length_non_increasing"):
                if key in row:
                    fields.append(f"{key}={row[key]}")
            if "dehn" in row:
                _, dehn, space = row["dehn"][-1]
                fields.append(f"dehn={dehn} space={space}")
            fields.append(f"{elapsed:.2f}s")
            print("  ".join(str(f) for f in fields))
        print(f"{len(rows)} tuples; hard failure: {hard_failure}")
    if args.out:
        Path(args.out).write_text(payload + "\n")
    if truncated:
        print(f"budget exhausted: the {args.nodes}-node budget truncated the Dehn "
              f"table of {', '.join(map(str, truncated))}", file=sys.stderr)
    if undecided:
        print(f"budget exhausted: the {args.nodes}-node budget left the equivalence "
              f"check of {', '.join(map(str, undecided))} inconclusive", file=sys.stderr)
    if hard_failure:
        return EXIT_CHECK_FAILED
    return EXIT_BUDGET if truncated or undecided else EXIT_OK


def cmd_complete(args) -> int:
    pres = _read_presentation(args.presentation)
    letters = pres.alphabet.letters
    order = (rewrite.parse_order(args.order) if args.order
             else ReductionOrder({c: 1 for c in letters}, tuple(letters)))
    report = confluence.knuth_bendix(pres, order, max_rules=args.max_rules,
                                     max_steps=args.max_steps, fuel=args.fuel)
    if args.json:
        print(_report(args, {"max_rules": args.max_rules, "max_steps": args.max_steps,
                             "fuel": args.fuel},
                      order=str(order),
                      result={
                          "outcome": report.outcome,
                          "system": _system(report.system) if report.system else None,
                          "stats": asdict(report.stats),
                      }))
    else:
        print(f"outcome: {report.outcome}")
        if report.system:
            print(str(report.system))
        print(f"stats: {report.stats}")
    if report.completed and args.out:
        Path(args.out).write_text(rewrite.format_system_file(report.system))
    if not report.completed:
        print(f"budget exhausted: the {args.max_rules}-rule or {args.max_steps}-step "
              "limit stopped completion", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_nf(args) -> int:
    system = rewrite.parse_system_file(Path(args.system).read_text())
    w = parse_word(args.word, system.alphabet)
    nf, trace = rewrite.normal_form(system, w, fuel=args.fuel)
    if args.json:
        print(_report(args, {"fuel": args.fuel},
                      result={"word": _word(w), "normal_form": _word(nf),
                              "steps": len(trace.steps)}))
    else:
        print(_word(nf))
    return EXIT_OK


def cmd_equal(args) -> int:
    pres = _read_presentation(args.presentation)
    u = parse_word(args.u, pres.alphabet)
    v = parse_word(args.v, pres.alphabet)
    bound = args.bound or max(len(u), len(v)) + analysis.default_slack(pres)
    outcome = analysis.equal_in_monoid(pres, u, v, bound, node_budget=args.nodes,
                                       minimize="space" if args.space else "steps")
    if args.json:
        print(_report(args, {"bound": bound, "oracle_nodes": args.nodes},
                      result={"status": outcome.status,
                              "certificate": _certificate(outcome.certificate)}))
    elif outcome.status == "equal":
        c = outcome.certificate
        print(f"equal (d={c.d}, s={c.s})")
    else:
        print(outcome.status)
    if outcome.status == "inconclusive":
        print(f"budget exhausted: the {args.nodes}-node budget left the query "
              "inconclusive", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_dehn(args) -> int:
    pres = _read_presentation(args.presentation)
    count = None
    if args.mode != "exhaustive":
        bad_mode = ValueError(f"bad mode {args.mode!r}; expected exhaustive or random:COUNT")
        if not args.mode.startswith("random:"):
            raise bad_mode
        try:
            count = int(args.mode[len("random:"):])
        except ValueError:
            raise bad_mode from None
    table = analysis.dehn_table(pres, args.n, sample_count=count,
                                slack=args.slack, node_budget=args.nodes,
                                seed=args.seed)
    if args.json:
        print(_report(args, {"oracle_nodes": args.nodes, "slack": args.slack},
                      mode=args.mode,
                      rows=[{"n": s.n, "dehn": s.dehn, "space": s.space,
                             "pairs": s.pairs_examined, "exhaustive": s.exhaustive}
                            for s in table]))
    else:
        print(f"{'n':>3} {'dehn':>5} {'space':>6} {'pairs':>8}  exhaustive")
        for s in table:
            print(f"{s.n:>3} {s.dehn:>5} {s.space:>6} {s.pairs_examined:>8}  {s.exhaustive}")
    if count is None and not all(s.exhaustive for s in table):
        print(f"budget exhausted: the {args.nodes}-node budget truncated the table "
              "(rows marked exhaustive False)", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_endo(args) -> int:
    summary = _certify(args, args.params)
    if summary.certification != rewrite.Certification.COMPLETE:
        print("error: system could not be certified complete", file=sys.stderr)
        return EXIT_CHECK_FAILED
    system = summary.system
    pres = family.one_relator_presentation(summary.params)
    phi = endo.parse_endomorphism(args.map, pres)
    lift = endo.check_lifts(system, pres, phi, fuel=args.fuel)
    result: dict = {
        "map": str(phi),
        "lifts": lift.lifts,
        "relation_normal_forms": [[_word(a), _word(b)]
                                  for a, b in lift.relation_normal_forms],
    }
    if lift.lifts and args.surjective_bound:
        result["surjectivity"] = _preimages(endo.surjectivity_evidence(
            system, pres, phi, args.surjective_bound, fuel=args.fuel))
    if lift.lifts and args.noninjective_bound:
        witness = endo.find_injectivity_violation(system, pres, phi,
                                                  args.noninjective_bound,
                                                  fuel=args.fuel)
        result["witness"] = None if witness is None else _witness(witness)
    if args.json:
        print(_report(args, {"fuel": args.fuel,
                             "surjective_bound": args.surjective_bound,
                             "noninjective_bound": args.noninjective_bound},
                      params=list(args.params), result=result))
    else:
        print(f"map {phi}: {'lifts' if lift.lifts else 'does not lift'}")
        for a, b in result["relation_normal_forms"]:
            print(f"  relation normal forms: {a} vs {b}")
        if "surjectivity" in result:
            for g, w in sorted(result["surjectivity"].items()):
                print(f"  preimage of {g}: {w}")
        if "witness" in result:
            print(f"  injectivity witness: {result['witness']}")
    return EXIT_OK


def cmd_hopf_demo(args) -> int:
    report = endo.hopf_demo(fuel=args.fuel)
    witness = _witness(report.witness)
    result = {
        "params": list(report.exponents),
        "system": _system(report.system),
        "lift_map": str(report.lift_map),
        "lifts": report.lift_verdict,
        "lift_normal_forms": [[_word(a), _word(b)] for a, b in report.lift_normal_forms],
        "surjectivity": _preimages(report.surjectivity),
        "non_lift_map": str(report.non_lift_map),
        "non_lift_normal_forms": [_word(w) for w in report.non_lift_normal_forms],
        "witness": {**witness, "found_at_bound": report.witness_bound},
        "derived_witness": {key: w for key, w in _witness(report.derived_witness).items()
                            if key in ("u", "v")},
        "conclusion": report.conclusion,
    }
    if args.json:
        print(_report(args, {"fuel": args.fuel}, result=result))
        return EXIT_OK
    print(f"system for a^1 b^2 a^2 b^2 = b ({report.system.certification.value}):")
    for rule in report.system.rules:
        print(f"  {rule}")
    print(f"lift a->a, b->bab: {report.lift_verdict} "
          f"(both relation sides reduce to {result['lift_normal_forms'][0][0]})")
    for g, w in sorted(result["surjectivity"].items()):
        print(f"preimage of {g}: {w}")
    print("inverse probe b->ab^2 does not lift: normal forms "
          "{} vs {}".format(*result["non_lift_normal_forms"]))
    print(f"injectivity witness (bound {report.witness_bound}): "
          f"{witness['u']} vs {witness['v']} "
          f"(normal forms {witness['u_normal_form']} vs {witness['v_normal_form']}; "
          f"images both {witness['image_normal_form']})")
    print(report.conclusion)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rewritekit",
        description="Finite complete rewriting systems for one-relator monoids "
                    "a^A b^B a^C b^D = b: construction, certification, completion, "
                    "and endomorphism analysis.")
    sub = parser.add_subparsers(dest="command")

    def add_common(p, func, fuel=True, nodes=None, certify=False):
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if certify:  # what _certify reads besides --fuel
            p.add_argument("--max-weight", type=positive_int, default=rewrite.MAX_WEIGHT)
        if fuel:
            p.add_argument("--fuel", type=positive_int, default=rewrite.DEFAULT_FUEL,
                           help="max rewrite steps per reduction (default %(default)s)")
        if nodes:  # what the node budget caps
            p.add_argument("--nodes", type=positive_int,
                           default=analysis.DEFAULT_NODE_BUDGET,
                           help=f"{nodes} (default %(default)s)")

    p = sub.add_parser("build", help="build (and optionally verify) a family system")
    p.add_argument("--params", nargs=4, type=int, required=True,
                   metavar=("A", "B", "C", "D"))
    p.add_argument("--verify", action="store_true",
                   help="certify and check presentation equivalence")
    p.add_argument("--out", help="write the system file here")
    add_common(p, cmd_build, nodes="oracle node budget", certify=True)

    p = sub.add_parser("grid", help="run checks over an exponent grid")
    p.add_argument("--range", default="1..4", help="range for all exponents (default %(default)s)")
    for name in ("alpha", "beta", "gamma", "delta"):
        p.add_argument(f"--{name}", help=f"override range for {name}")
    p.add_argument("--checks", default="completeness",
                   help="comma-separated: completeness,equivalence,probe,dehn")
    p.add_argument("--max-rules", type=positive_int, default=confluence.MAX_RULES)
    p.add_argument("--max-steps", type=positive_int, default=confluence.MAX_STEPS)
    p.add_argument("--dehn-n", type=positive_int, default=4)
    p.add_argument("--out", help="write the --json report here")
    add_common(p, cmd_grid, certify=True,
               nodes="node budget of each oracle search and of each Dehn "
                     "table's normal-form class graph")

    p = sub.add_parser("complete", help="Knuth-Bendix completion of a presentation file")
    p.add_argument("--presentation", required=True)
    p.add_argument("--order", help='e.g. "weights: a=1 b=1; precedence: a>b" '
                                   "(default: all weights 1, alphabet order)")
    p.add_argument("--max-rules", type=positive_int, default=confluence.MAX_RULES)
    p.add_argument("--max-steps", type=positive_int, default=confluence.MAX_STEPS)
    p.add_argument("--out", help="write the completed system file here")
    add_common(p, cmd_complete)

    p = sub.add_parser("nf", help="normal form of a word under a system file")
    p.add_argument("--system", required=True)
    p.add_argument("word")
    add_common(p, cmd_nf)

    p = sub.add_parser("equal", help="bounded equality search in a presentation")
    p.add_argument("--presentation", required=True)
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--bound", type=positive_int,
                   help="length cap (default: longer word + 2*longest side)")
    p.add_argument("--space", action="store_true",
                   help="minimize the intermediate-length bound instead of steps")
    add_common(p, cmd_equal, fuel=False, nodes="oracle node budget")

    p = sub.add_parser("dehn", help="measured Dehn/space table for a presentation")
    p.add_argument("--presentation", required=True)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--mode", default="exhaustive", help="exhaustive or random:COUNT")
    p.add_argument("--slack", type=int,
                   help="length-cap slack (default 2*longest side)")
    p.add_argument("--seed", type=int, default=0)
    add_common(p, cmd_dehn, fuel=False,
               nodes="node budget of each normal-form class's graph")

    p = sub.add_parser("endo", help="endomorphism analysis on a family monoid")
    p.add_argument("--params", nargs=4, type=int, required=True,
                   metavar=("A", "B", "C", "D"))
    p.add_argument("--map", required=True, help='e.g. "a=a,b=bab"')
    p.add_argument("--surjective-bound", type=positive_int, default=3)
    p.add_argument("--noninjective-bound", type=positive_int)
    add_common(p, cmd_endo, certify=True)

    add_common(sub.add_parser("hopf-demo", help="the full non-hopfian demonstration"),
               cmd_hopf_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except FuelExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("budget exhausted: out of memory; lower --nodes or the problem size",
              file=sys.stderr)
        return EXIT_BUDGET
    # OSError: an unreadable input or unwritable output path
    except (ValueError, WordSyntaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
