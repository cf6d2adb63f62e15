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
from .words import WordSyntaxError, parse_word, print_word

SCHEMA_VERSION = 1

EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _system_dict(system: RewritingSystem) -> dict:
    return {
        "letters": list(system.alphabet.letters),
        "rules": [{"lhs": print_word(r.lhs), "rhs": print_word(r.rhs)}
                  for r in system.rules],
        "certification": system.certification.value,
        "order": str(system.order) if system.order else None,
    }


def _certificate_dict(cert) -> Optional[dict]:
    if cert is None:
        return None
    return {"d": cert.d, "s": cert.s,
            "chain": [print_word(w) or "1" for w in cert.chain]}


def _witness_dict(witness) -> dict:
    return {"u": print_word(witness.u) or "1", "v": print_word(witness.v) or "1",
            "u_normal_form": print_word(witness.u_normal_form) or "1",
            "v_normal_form": print_word(witness.v_normal_form) or "1",
            "image_normal_form": print_word(witness.image_normal_form) or "1"}


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


def _default_order(alphabet) -> ReductionOrder:
    return ReductionOrder({c: 1 for c in alphabet.letters}, tuple(alphabet.letters))


def _read_presentation(path: str) -> family.Presentation:
    return family.parse_presentation_file(Path(path).read_text())


def _read_system(path: str) -> RewritingSystem:
    return rewrite.parse_system_file(Path(path).read_text())


def cmd_build(args) -> int:
    tag, params = family.classify(*args.params)
    summary = family.certify_family_system(tag, params, max_weight=args.max_weight,
                                           fuel=args.fuel)
    system = summary.system
    result = {
        "params": list(args.params),
        "case": tag.variant.value,
        "extra_rule": tag.extra_rule,
        "system": _system_dict(system),
    }
    failed = False
    if args.verify:
        if not summary.locally_confluent:
            failed = True
        result["locally_confluent"] = summary.locally_confluent
        if summary.empirical is not None:
            result["empirical_termination"] = {
                "samples": summary.empirical.samples,
                "max_length": summary.empirical.max_length,
                "step_budget": summary.empirical.step_budget,
                "all_halted": summary.empirical.all_halted,
            }
            failed = failed or not summary.empirical.all_halted
        elif summary.order is None:
            failed = True
        x_def = family.x_definition(params) if "x" in system.alphabet else None
        eq = family.verify_presentation_equivalence(
            family.one_relator_presentation(params), system, x_def,
            node_budget=args.nodes)
        result["equivalence"] = {
            "passed": eq.passed,
            "rules": [{"rule": i.rule_index, "status": i.status, "d": i.d, "s": i.s}
                      for i in eq.rule_results],
            "relator_normal_form": print_word(eq.relator_normal_form) or "1",
        }
        failed = failed or not eq.passed
    if args.out:
        Path(args.out).write_text(rewrite.format_system_file(system))
    if args.json:
        _emit_json({"schema": SCHEMA_VERSION, "command": "build",
                    "budgets": {"fuel": args.fuel, "max_weight": args.max_weight,
                                "oracle_nodes": args.nodes},
                    "result": result})
    else:
        print(f"case {tag.variant.value} for a^{args.params[0]} b^{args.params[1]} "
              f"a^{args.params[2]} b^{args.params[3]} = b")
        print(str(system))
        print(f"certification: {system.certification.value}")
        if system.order:
            print(f"order: {system.order}")
        if args.verify:
            print(f"verification: {'FAIL' if failed else 'PASS'}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_grid(args) -> int:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    known = {"completeness", "equivalence", "probe", "dehn"}
    for c in checks:
        if c not in known:
            raise ValueError(f"unknown check {c!r}; known: {sorted(known)}")
    ranges = [
        _parse_range(args.alpha if args.alpha else args.range),
        _parse_range(args.beta if args.beta else args.range),
        _parse_range(args.gamma if args.gamma else args.range),
        _parse_range(args.delta if args.delta else args.range),
    ]
    rows = []
    hard_failure = False
    truncated = []  # tuples whose Dehn table the node budget cut short
    for a, b, g, d in product(*ranges):
        t0 = time.perf_counter()
        tag, params = family.classify(a, b, g, d)
        row: dict = {"params": [a, b, g, d], "case": tag.variant.value}
        if "completeness" in checks:
            summary = family.certify_family_system(
                tag, params, max_weight=args.max_weight, fuel=args.fuel)
            row["certification"] = summary.certification.value
            row["locally_confluent"] = summary.locally_confluent
            row["order"] = str(summary.order) if summary.order else None
            if summary.empirical is not None:
                row["empirical_all_halted"] = summary.empirical.all_halted
            if not summary.locally_confluent:
                hard_failure = True
            system = summary.system
        else:
            system = family.build_system(tag, params)
        if "equivalence" in checks:
            x_def = family.x_definition(params) if "x" in system.alphabet else None
            eq = family.verify_presentation_equivalence(
                family.one_relator_presentation(params), system, x_def,
                node_budget=args.nodes)
            row["equivalence"] = ("PASS" if eq.passed else
                                  "inconclusive" if eq.inconclusive else "FAIL")
            if row["equivalence"] == "FAIL":
                hard_failure = True
        if "probe" in checks:
            pres = (family.extended_presentation(params)
                    if params.overlapping and tag.variant.value in ("Case3", "Case4")
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
                truncated.append((a, b, g, d))
        rows.append((row, time.perf_counter() - t0))
    if args.json:
        _emit_json({"schema": SCHEMA_VERSION, "command": "grid",
                    "budgets": {"fuel": args.fuel, "max_weight": args.max_weight,
                                "oracle_nodes": args.nodes,
                                "max_rules": args.max_rules,
                                "max_steps": args.max_steps},
                    "checks": checks,
                    "rows": [r for r, _ in rows]})
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
        payload = {"schema": SCHEMA_VERSION, "command": "grid", "checks": checks,
                   "rows": [r for r, _ in rows]}
        Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=2))
    if truncated:
        print(f"budget exhausted: the {args.nodes}-node budget truncated the Dehn "
              f"table of {', '.join(map(str, truncated))}", file=sys.stderr)
    if hard_failure:
        return EXIT_CHECK_FAILED
    return EXIT_BUDGET if truncated else EXIT_OK


def cmd_complete(args) -> int:
    pres = _read_presentation(args.presentation)
    order = rewrite.parse_order(args.order) if args.order else _default_order(pres.alphabet)
    report = confluence.knuth_bendix(pres, order, max_rules=args.max_rules,
                                     max_steps=args.max_steps, fuel=args.fuel)
    if args.json:
        _emit_json({"schema": SCHEMA_VERSION, "command": "complete",
                    "budgets": {"max_rules": args.max_rules,
                                "max_steps": args.max_steps, "fuel": args.fuel},
                    "order": str(order),
                    "result": {
                        "outcome": report.outcome,
                        "system": _system_dict(report.system) if report.system else None,
                        "stats": asdict(report.stats),
                    }})
    else:
        print(f"outcome: {report.outcome}")
        if report.system:
            print(str(report.system))
        print(f"stats: {report.stats}")
    if report.completed and args.out:
        Path(args.out).write_text(rewrite.format_system_file(report.system))
    if report.outcome == "limit-exceeded":
        return EXIT_BUDGET
    return EXIT_OK if report.completed else EXIT_CHECK_FAILED


def cmd_nf(args) -> int:
    system = _read_system(args.system)
    w = parse_word(args.word, system.alphabet)
    nf, trace = rewrite.normal_form(system, w, fuel=args.fuel)
    if args.json:
        _emit_json({"schema": SCHEMA_VERSION, "command": "nf",
                    "budgets": {"fuel": args.fuel},
                    "result": {"word": print_word(w) or "1",
                               "normal_form": print_word(nf) or "1",
                               "steps": len(trace.steps)}})
    else:
        print(print_word(nf) or "1")
    return EXIT_OK


def cmd_equal(args) -> int:
    pres = _read_presentation(args.presentation)
    u = parse_word(args.u, pres.alphabet)
    v = parse_word(args.v, pres.alphabet)
    bound = args.bound if args.bound else max(len(u), len(v)) + 2 * max(
        len(l) for l, _ in pres.equations)
    outcome = analysis.equal_in_monoid(pres, u, v, bound, node_budget=args.nodes,
                                       minimize="space" if args.space else "steps")
    if args.json:
        _emit_json({"schema": SCHEMA_VERSION, "command": "equal",
                    "budgets": {"bound": bound, "oracle_nodes": args.nodes},
                    "result": {"status": outcome.status,
                               "certificate": _certificate_dict(outcome.certificate)}})
    else:
        if outcome.status == "equal":
            c = outcome.certificate
            print(f"equal (d={c.d}, s={c.s})")
        else:
            print(outcome.status)
    return EXIT_BUDGET if outcome.status == "inconclusive" else EXIT_OK


def cmd_dehn(args) -> int:
    pres = _read_presentation(args.presentation)
    mode, count = "exhaustive", None
    if args.mode != "exhaustive":
        bad_mode = ValueError(f"bad mode {args.mode!r}; expected exhaustive or random:COUNT")
        if not args.mode.startswith("random:"):
            raise bad_mode
        try:
            mode, count = "random", int(args.mode[len("random:"):])
        except ValueError:
            raise bad_mode from None
    table = analysis.dehn_table(pres, args.n, mode=mode, sample_count=count,
                                slack=args.slack, node_budget=args.nodes,
                                seed=args.seed)
    if args.json:
        _emit_json({"schema": SCHEMA_VERSION, "command": "dehn",
                    "budgets": {"oracle_nodes": args.nodes, "slack": args.slack},
                    "mode": args.mode,
                    "rows": [{"n": s.n, "dehn": s.dehn, "space": s.space,
                              "pairs": s.pairs_examined, "exhaustive": s.exhaustive}
                             for s in table]})
    else:
        print(f"{'n':>3} {'dehn':>5} {'space':>6} {'pairs':>8}  exhaustive")
        for s in table:
            print(f"{s.n:>3} {s.dehn:>5} {s.space:>6} {s.pairs_examined:>8}  {s.exhaustive}")
    if mode == "exhaustive" and not all(s.exhaustive for s in table):
        print(f"budget exhausted: the {args.nodes}-node budget truncated the table "
              "(rows marked exhaustive False)", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_endo(args) -> int:
    tag, params = family.classify(*args.params)
    summary = family.certify_family_system(tag, params, max_weight=args.max_weight,
                                           fuel=args.fuel)
    if summary.certification != rewrite.Certification.COMPLETE:
        print("error: system could not be certified complete", file=sys.stderr)
        return EXIT_CHECK_FAILED
    system = summary.system
    pres = family.one_relator_presentation(params)
    phi = endo.parse_endomorphism(args.map, pres)
    lift = endo.check_lifts(system, pres, phi, fuel=args.fuel)
    result: dict = {
        "map": str(phi),
        "lifts": lift.lifts,
        "relation_normal_forms": [[print_word(a) or "1", print_word(b) or "1"]
                                  for a, b in lift.relation_normal_forms],
    }
    if lift.lifts and args.surjective_bound:
        evidence = endo.surjectivity_evidence(system, pres, phi,
                                              args.surjective_bound, fuel=args.fuel)
        result["surjectivity"] = {g: (print_word(w) or "1") if w is not None else None
                                  for g, w in evidence.items()}
    if lift.lifts and args.noninjective_bound:
        witness = endo.find_injectivity_violation(system, pres, phi,
                                                  args.noninjective_bound,
                                                  fuel=args.fuel)
        result["witness"] = None if witness is None else _witness_dict(witness)
    if args.json:
        _emit_json({"schema": SCHEMA_VERSION, "command": "endo",
                    "budgets": {"fuel": args.fuel,
                                "surjective_bound": args.surjective_bound,
                                "noninjective_bound": args.noninjective_bound},
                    "params": list(args.params),
                    "result": result})
    else:
        print(f"map {phi}: {'lifts' if lift.lifts else 'does not lift'}")
        for (a, b) in lift.relation_normal_forms:
            print(f"  relation normal forms: {print_word(a) or '1'} vs {print_word(b) or '1'}")
        if "surjectivity" in result:
            for g, w in sorted(result["surjectivity"].items()):
                print(f"  preimage of {g}: {w}")
        if "witness" in result:
            print(f"  injectivity witness: {result['witness']}")
    return EXIT_OK


def cmd_hopf_demo(args) -> int:
    report = endo.hopf_demo(fuel=args.fuel)
    if args.json:
        _emit_json({"schema": SCHEMA_VERSION, "command": "hopf-demo",
                    "budgets": {"fuel": args.fuel},
                    "result": {
                        "params": list(report.exponents),
                        "system": _system_dict(report.system),
                        "lift_map": str(report.lift_map),
                        "lifts": report.lift_verdict,
                        "lift_normal_forms": [[print_word(a), print_word(b)]
                                              for a, b in report.lift_normal_forms],
                        "surjectivity": {g: print_word(w) if w else w
                                         for g, w in report.surjectivity.items()},
                        "non_lift_map": str(report.non_lift_map),
                        "non_lift_normal_forms": [print_word(w)
                                                  for w in report.non_lift_normal_forms],
                        "witness": {**_witness_dict(report.witness),
                                    "found_at_bound": report.witness_bound},
                        "derived_witness": {
                            "u": print_word(report.derived_witness.u),
                            "v": print_word(report.derived_witness.v),
                        },
                        "conclusion": report.conclusion,
                    }})
    else:
        print(f"system for a^1 b^2 a^2 b^2 = b ({report.system.certification.value}):")
        for rule in report.system.rules:
            print(f"  {rule}")
        print(f"lift a->a, b->bab: {report.lift_verdict} "
              f"(both relation sides reduce to "
              f"{print_word(report.lift_normal_forms[0][0])})")
        for g, w in sorted(report.surjectivity.items()):
            print(f"preimage of {g}: {print_word(w)}")
        print(f"inverse probe b->ab^2 does not lift: normal forms "
              f"{print_word(report.non_lift_normal_forms[0])} vs "
              f"{print_word(report.non_lift_normal_forms[1])}")
        w = report.witness
        print(f"injectivity witness (bound {report.witness_bound}): "
              f"{print_word(w.u)} vs {print_word(w.v)} "
              f"(normal forms {print_word(w.u_normal_form)} vs {print_word(w.v_normal_form)}; "
              f"images both {print_word(w.image_normal_form)})")
        print(report.conclusion)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rewritekit",
        description="Finite complete rewriting systems for one-relator monoids "
                    "a^A b^B a^C b^D = b: construction, certification, completion, "
                    "and endomorphism analysis.")
    sub = parser.add_subparsers(dest="command")

    def add_common(p, fuel=True, nodes=False):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if fuel:
            p.add_argument("--fuel", type=positive_int, default=rewrite.DEFAULT_FUEL,
                           help="max rewrite steps per reduction (default %(default)s)")
        if nodes:
            p.add_argument("--nodes", type=positive_int,
                           default=analysis.DEFAULT_NODE_BUDGET,
                           help="oracle node budget (default %(default)s)")

    p = sub.add_parser("build", help="build (and optionally verify) a family system")
    p.add_argument("--params", nargs=4, type=int, required=True,
                   metavar=("A", "B", "C", "D"))
    p.add_argument("--verify", action="store_true",
                   help="certify and check presentation equivalence")
    p.add_argument("--out", help="write the system file here")
    p.add_argument("--max-weight", type=positive_int, default=8)
    add_common(p, nodes=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("grid", help="run checks over an exponent grid")
    p.add_argument("--range", default="1..4", help="range for all exponents (default %(default)s)")
    for name in ("alpha", "beta", "gamma", "delta"):
        p.add_argument(f"--{name}", help=f"override range for {name}")
    p.add_argument("--checks", default="completeness",
                   help="comma-separated: completeness,equivalence,probe,dehn")
    p.add_argument("--max-weight", type=positive_int, default=8)
    p.add_argument("--max-rules", type=positive_int, default=120)
    p.add_argument("--max-steps", type=positive_int, default=4000)
    p.add_argument("--dehn-n", type=positive_int, default=4)
    p.add_argument("--out", help="write the JSON rows here")
    add_common(p, nodes=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("complete", help="Knuth-Bendix completion of a presentation file")
    p.add_argument("--presentation", required=True)
    p.add_argument("--order", help='e.g. "weights: a=1 b=1; precedence: a>b" '
                                   "(default: all weights 1, alphabet order)")
    p.add_argument("--max-rules", type=positive_int, default=120)
    p.add_argument("--max-steps", type=positive_int, default=4000)
    p.add_argument("--out", help="write the completed system file here")
    add_common(p)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("nf", help="normal form of a word under a system file")
    p.add_argument("--system", required=True)
    p.add_argument("word")
    add_common(p)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("equal", help="bounded equality search in a presentation")
    p.add_argument("--presentation", required=True)
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--bound", type=positive_int,
                   help="length cap (default: max length + 2*relator)")
    p.add_argument("--space", action="store_true",
                   help="minimize the intermediate-length bound instead of steps")
    add_common(p, fuel=False, nodes=True)
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("dehn", help="measured Dehn/space table for a presentation")
    p.add_argument("--presentation", required=True)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--mode", default="exhaustive", help="exhaustive or random:COUNT")
    p.add_argument("--slack", type=int, help="length-cap slack (default 2*relator)")
    p.add_argument("--seed", type=int, default=0)
    add_common(p, fuel=False, nodes=True)
    p.set_defaults(func=cmd_dehn)

    p = sub.add_parser("endo", help="endomorphism analysis on a family monoid")
    p.add_argument("--params", nargs=4, type=int, required=True,
                   metavar=("A", "B", "C", "D"))
    p.add_argument("--map", required=True, help='e.g. "a=a,b=bab"')
    p.add_argument("--surjective-bound", type=positive_int, default=3)
    p.add_argument("--noninjective-bound", type=positive_int)
    p.add_argument("--max-weight", type=positive_int, default=8)
    add_common(p)
    p.set_defaults(func=cmd_endo)

    p = sub.add_parser("hopf-demo", help="the full non-hopfian demonstration")
    add_common(p)
    p.set_defaults(func=cmd_hopf_demo)

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
    except (ValueError, WordSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FuelExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:  # unreadable input or unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
