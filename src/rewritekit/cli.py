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
from .words import parse_word, report_word

SCHEMA_VERSION = 1

EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3


def _preimages(table) -> dict:
    return {g: None if w is None else report_word(w) for g, w in table.items()}


def _system(system: RewritingSystem) -> dict:
    return {
        "letters": list(system.alphabet.letters),
        "rules": [{"lhs": report_word(r.lhs), "rhs": report_word(r.rhs)} for r in system.rules],
        "certification": system.certification.value,
        "order": str(system.order) if system.order else None,
    }


def _certificate(cert) -> Optional[dict]:
    if cert is None:
        return None
    return {"d": cert.d, "s": cert.s, "chain": [report_word(w) for w in cert.chain]}


def _witness(witness) -> dict:
    return {key: report_word(w) for key, w in asdict(witness).items()}


# The options a JSON report records as its budgets, by argparse dest
BUDGETS = ("fuel", "oracle_nodes", "max_rules", "max_steps", "bound", "slack",
           "surjective_bound", "noninjective_bound")


def _report(args, **fields) -> str:
    """The JSON report envelope shared by every command; its budgets are
    the values of each BUDGETS option that the command takes."""
    budgets = {dest: value for dest, value in vars(args).items() if dest in BUDGETS}
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


def exhaustive_n(text: str) -> int:
    """argparse type for the n of an exhaustive Dehn table: 1 up to
    :data:`analysis.MAX_EXHAUSTIVE_N`."""
    value = positive_int(text)
    if value > analysis.MAX_EXHAUSTIVE_N:
        raise argparse.ArgumentTypeError(
            f"exhaustive Dehn tables are capped at n = {analysis.MAX_EXHAUSTIVE_N}, "
            f"got {value}")
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
    if hi > family.MAX_EXPONENT:
        raise ValueError(f"range {text!r} exceeds the largest exponent, "
                         f"{family.MAX_EXPONENT}")
    return range(lo, hi + 1)


def _read_presentation(path: str) -> rewrite.Presentation:
    return rewrite.parse_presentation_file(Path(path).read_text())


def _certify(args, exponents) -> family.CertificationSummary:
    tag, params = family.classify(*exponents)
    return family.certify_family_system(tag, params, fuel=args.fuel)


def _equivalence(args, params, system: RewritingSystem) -> family.EquivalenceReport:
    x_def = family.x_definition(params) if family.AUX_LETTER in system.alphabet else None
    return family.verify_presentation_equivalence(
        family.one_relator_presentation(params), system, x_def,
        node_budget=args.oracle_nodes, fuel=args.fuel)


def _verdict(*verdicts: str) -> str:
    """How ``build --verify`` and ``grid`` combine the certification and
    equivalence verdicts: FAIL over inconclusive over PASS."""
    return next((v for v in ("FAIL", "inconclusive") if v in verdicts), "PASS")


def _finish(args, fields: dict, lines: list, notes=(),
            failed: bool = False) -> int:
    """How every command ends: its JSON report under ``--json``, else its
    text lines, on stdout, and the same JSON report in ``grid --out``'s
    file; one ``budget exhausted:`` line per note on stderr; and the exit
    code, check failure over budget exhaustion over success."""
    report_out = getattr(args, "report_out", None)
    report = _report(args, **fields) if args.json or report_out else None
    if report_out:
        Path(report_out).write_text(report + "\n")
    print(report if args.json else "\n".join(lines))
    for note in notes:
        print(f"budget exhausted: {note}", file=sys.stderr)
    if failed:
        return EXIT_CHECK_FAILED
    return EXIT_BUDGET if notes else EXIT_OK


def cmd_build(args) -> int:
    summary = _certify(args, args.params)
    tag, system, empirical = summary.tag, summary.system, summary.empirical
    result = {
        "params": list(args.params),
        "case": tag.variant.value,
        "extra_rule": tag.extra_rule,
        "system": _system(system),
    }
    lines = ["case {} for a^{} b^{} a^{} b^{} = b".format(tag.variant.value, *args.params),
             str(system), f"certification: {system.certification.value}"]
    if system.order:
        lines.append(f"order: {system.order}")
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
            "relator_normal_form": report_word(eq.relator_normal_form),
        }
        verdict = _verdict(summary.verdict, eq.verdict)
        lines.append(f"verification: {verdict}")
    if args.out:
        Path(args.out).write_text(rewrite.format_system_file(system))
    notes = ([f"the {args.oracle_nodes}-node budget left the equivalence check inconclusive"]
             if verdict == "inconclusive" else [])
    return _finish(args, {"result": result}, lines, notes, failed=verdict == "FAIL")


def cmd_grid(args) -> int:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    known = {"completeness", "equivalence", "probe", "dehn"}
    for c in checks:
        if c not in known:
            raise ValueError(f"unknown check {c!r}; known: {sorted(known)}")
    ranges = [_parse_range(getattr(args, name) or args.range)
              for name in ("alpha", "beta", "gamma", "delta")]
    rows, lines = [], []
    truncated = []  # tuples whose Dehn table the node budget cut short
    undecided = []  # tuples whose verdict it left inconclusive
    hard_failure = False
    for exponents in product(*ranges):
        t0 = time.perf_counter()
        row: dict = {"params": list(exponents)}
        verdicts = []
        if "completeness" in checks:
            summary = _certify(args, exponents)
            tag, params, system = summary.tag, summary.params, summary.system
            row["certification"] = summary.certification.value
            row["locally_confluent"] = summary.locally_confluent
            row["order"] = str(summary.order) if summary.order else None
            verdicts.append(summary.verdict)
            if summary.empirical is not None:
                row["empirical_all_halted"] = summary.empirical.all_halted
        else:
            tag, params = family.classify(*exponents)
            system = family.build_system(tag, params)
        row["case"] = tag.variant.value
        if "equivalence" in checks:
            eq = _equivalence(args, params, system)
            row["equivalence"] = eq.verdict
            verdicts.append(eq.verdict)
        verdict = _verdict(*verdicts)
        hard_failure |= verdict == "FAIL"
        if verdict == "inconclusive":
            undecided.append(exponents)
        if "probe" in checks:
            pres = (family.extended_presentation(params)
                    if family.AUX_LETTER in system.alphabet
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
                node_budget=args.oracle_nodes)
            row["dehn"] = [[s.n, s.dehn, s.space] for s in table]
            if any(s.truncated for s in table):
                truncated.append(exponents)
        rows.append(row)
        fields = [f"{tuple(exponents)}", f"{row['case']:9}"]
        for key in ("certification", "equivalence", "probe", "length_non_increasing"):
            if key in row:
                fields.append(f"{key}={row[key]}")
        if "dehn" in row:
            _, dehn, space = row["dehn"][-1]
            fields.append(f"dehn={dehn} space={space}")
        fields.append(f"{time.perf_counter() - t0:.2f}s")
        lines.append("  ".join(fields))
    lines.append(f"{len(rows)} tuples; hard failure: {hard_failure}")
    notes = []
    if truncated:
        notes.append(f"the {args.oracle_nodes}-node budget truncated the Dehn table of "
                     f"{', '.join(map(str, truncated))}")
    if undecided:
        notes.append(f"the {args.oracle_nodes}-node budget left the equivalence check of "
                     f"{', '.join(map(str, undecided))} inconclusive")
    return _finish(args, {"checks": checks, "rows": rows}, lines, notes, failed=hard_failure)


def cmd_complete(args) -> int:
    pres = _read_presentation(args.presentation)
    letters = pres.alphabet.letters
    order = (rewrite.parse_order(args.order) if args.order
             else ReductionOrder({c: 1 for c in letters}, tuple(letters)))
    report = confluence.knuth_bendix(pres, order, max_rules=args.max_rules,
                                     max_steps=args.max_steps, fuel=args.fuel)
    if report.completed and args.out:
        Path(args.out).write_text(rewrite.format_system_file(report.system))
    result = {
        "outcome": report.outcome,
        "system": _system(report.system) if report.system else None,
        "stats": asdict(report.stats),
    }
    lines = [f"outcome: {report.outcome}",
             *([str(report.system)] if report.system else []),
             f"stats: {report.stats}"]
    notes = [] if report.completed else [
        f"the {args.max_rules}-rule or {args.max_steps}-step limit stopped completion"]
    return _finish(args, {"order": str(order), "result": result}, lines, notes)


def cmd_nf(args) -> int:
    system = rewrite.parse_system_file(Path(args.system).read_text())
    w = parse_word(args.word, system.alphabet)
    nf, trace = rewrite.normal_form(system, w, fuel=args.fuel)
    return _finish(args, {"result": {"word": report_word(w), "normal_form": report_word(nf),
                                     "steps": len(trace.steps)}},
                   [report_word(nf)])


def cmd_equal(args) -> int:
    pres = _read_presentation(args.presentation)
    u = parse_word(args.u, pres.alphabet)
    v = parse_word(args.v, pres.alphabet)
    args.bound = args.bound or max(len(u), len(v)) + analysis.default_slack(pres)
    outcome = analysis.equal_in_monoid(pres, u, v, args.bound, node_budget=args.oracle_nodes,
                                       minimize="space" if args.space else "steps")
    c = outcome.certificate
    line = f"equal (d={c.d}, s={c.s})" if outcome.status == "equal" else outcome.status
    notes = ([f"the {args.oracle_nodes}-node budget left the query inconclusive"]
             if outcome.status == "inconclusive" else [])
    return _finish(args, {"result": {"status": outcome.status, "certificate": _certificate(c)}},
                   [line], notes)


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
                                slack=args.slack, node_budget=args.oracle_nodes,
                                seed=args.seed)
    rows = [{"n": s.n, "dehn": s.dehn, "space": s.space,
             "pairs": s.pairs_examined, "exhaustive": s.exhaustive} for s in table]
    lines = [f"{'n':>3} {'dehn':>5} {'space':>6} {'pairs':>8}  exhaustive"]
    lines += [f"{s.n:>3} {s.dehn:>5} {s.space:>6} {s.pairs_examined:>8}  {s.exhaustive}"
              for s in table]
    notes = ([f"the {args.oracle_nodes}-node budget truncated the table "
              "(rows marked exhaustive False)"] if any(s.truncated for s in table) else [])
    fields = {"mode": args.mode, "rows": rows}
    if count is not None:  # random mode draws its words with the seed
        fields["seed"] = args.seed
    return _finish(args, fields, lines, notes)


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
        "relation_normal_forms": [[report_word(a), report_word(b)]
                                  for a, b in lift.relation_normal_forms],
    }
    lines = [f"map {phi}: {'lifts' if lift.lifts else 'does not lift'}"]
    lines += [f"  relation normal forms: {a} vs {b}"
              for a, b in result["relation_normal_forms"]]
    if lift.lifts and args.surjective_bound:
        result["surjectivity"] = _preimages(endo.surjectivity_evidence(
            system, pres, phi, args.surjective_bound, fuel=args.fuel))
        lines += [f"  preimage of {g}: {w}" for g, w in sorted(result["surjectivity"].items())]
    if lift.lifts and args.noninjective_bound:
        witness = endo.find_injectivity_violation(system, pres, phi,
                                                  args.noninjective_bound,
                                                  fuel=args.fuel)
        result["witness"] = None if witness is None else _witness(witness)
        lines.append(f"  injectivity witness: {result['witness']}")
    return _finish(args, {"params": list(args.params), "result": result}, lines)


def cmd_hopf_demo(args) -> int:
    report = endo.hopf_demo(fuel=args.fuel)
    witness = _witness(report.witness)
    result = {
        "params": list(report.exponents),
        "system": _system(report.system),
        "lift_map": str(report.lift_map),
        "lifts": report.lift_verdict,
        "lift_normal_forms": [[report_word(a), report_word(b)]
                              for a, b in report.lift_normal_forms],
        "surjectivity": _preimages(report.surjectivity),
        "non_lift_map": str(report.non_lift_map),
        "non_lift_normal_forms": [report_word(w) for w in report.non_lift_normal_forms],
        "witness": {**witness, "found_at_bound": report.witness_bound},
        "derived_witness": {key: w for key, w in _witness(report.derived_witness).items()
                            if key in ("u", "v")},
        "conclusion": report.conclusion,
    }
    lines = [f"system for a^1 b^2 a^2 b^2 = b ({report.system.certification.value}):",
             *(f"  {rule}" for rule in report.system.rules),
             f"lift a->a, b->bab: {report.lift_verdict} "
             f"(both relation sides reduce to {result['lift_normal_forms'][0][0]})",
             *(f"preimage of {g}: {w}" for g, w in sorted(result["surjectivity"].items())),
             "inverse probe b->ab^2 does not lift: normal forms "
             "{} vs {}".format(*result["non_lift_normal_forms"]),
             f"injectivity witness (bound {report.witness_bound}): "
             f"{witness['u']} vs {witness['v']} "
             f"(normal forms {witness['u_normal_form']} vs {witness['v_normal_form']}; "
             f"images both {witness['image_normal_form']})",
             report.conclusion]
    return _finish(args, {"result": result}, lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rewritekit",
        description="Finite complete rewriting systems for one-relator monoids "
                    "a^A b^B a^C b^D = b: construction, certification, completion, "
                    "and endomorphism analysis.")
    sub = parser.add_subparsers(dest="command")

    def add_common(p, func, fuel=True, nodes=None):
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if fuel:
            p.add_argument("--fuel", type=positive_int, default=rewrite.DEFAULT_FUEL,
                           help="max rewrite steps per reduction (default %(default)s)")
        if nodes:  # what the node budget caps
            p.add_argument("--nodes", type=positive_int, dest="oracle_nodes", metavar="NODES",
                           default=analysis.DEFAULT_NODE_BUDGET,
                           help=f"{nodes} (default %(default)s)")

    params_help = "the exponents of the relator a^A b^B a^C b^D = b"
    p = sub.add_parser("build", help="build (and optionally verify) a family system")
    p.add_argument("--params", nargs=4, type=int, required=True,
                   metavar=("A", "B", "C", "D"), help=params_help)
    p.add_argument("--verify", action="store_true",
                   help="certify and check presentation equivalence")
    p.add_argument("--out", help="write the system file here")
    add_common(p, cmd_build, nodes="oracle node budget")

    p = sub.add_parser("grid", help="run checks over an exponent grid")
    p.add_argument("--range", default="1..4", help="range for all exponents (default %(default)s)")
    for name in ("alpha", "beta", "gamma", "delta"):
        p.add_argument(f"--{name}", help=f"override range for {name}")
    p.add_argument("--checks", default="completeness",
                   help="comma-separated: completeness,equivalence,probe,dehn")
    p.add_argument("--max-rules", type=positive_int, default=confluence.MAX_RULES,
                   help="probe check: stop completion beyond this many rules "
                        "(default %(default)s)")
    p.add_argument("--max-steps", type=positive_int, default=confluence.MAX_STEPS,
                   help="probe check: stop completion after this many steps "
                        "(default %(default)s)")
    p.add_argument("--dehn-n", type=exhaustive_n, default=4,
                   help="dehn check: n of each exhaustive table (default %(default)s)")
    p.add_argument("--out", dest="report_out", help="write the --json report here")
    add_common(p, cmd_grid,
               nodes="node budget of each oracle search and of each Dehn "
                     "table's normal-form class graph")

    p = sub.add_parser("complete", help="Knuth-Bendix completion of a presentation file")
    p.add_argument("--presentation", required=True, help="presentation file")
    p.add_argument("--order", help='e.g. "weights: a=1 b=1; precedence: a>b" '
                                   "(default: all weights 1, alphabet order)")
    p.add_argument("--max-rules", type=positive_int, default=confluence.MAX_RULES,
                   help="stop beyond this many rules (default %(default)s)")
    p.add_argument("--max-steps", type=positive_int, default=confluence.MAX_STEPS,
                   help="stop after this many steps (default %(default)s)")
    p.add_argument("--out", help="write the completed system file here")
    add_common(p, cmd_complete)

    p = sub.add_parser("nf", help="normal form of a word under a system file")
    p.add_argument("--system", required=True, help="system file")
    p.add_argument("word", help="the word to reduce, e.g. ab^2 (1 is the identity)")
    add_common(p, cmd_nf)

    p = sub.add_parser("equal", help="bounded equality search in a presentation")
    p.add_argument("--presentation", required=True, help="presentation file")
    p.add_argument("u", help="the first word, e.g. ab^2 (1 is the identity)")
    p.add_argument("v", help="the second word")
    p.add_argument("--bound", type=positive_int,
                   help="length cap (default: longer word + 2*longest side)")
    p.add_argument("--space", action="store_true",
                   help="minimize the intermediate-length bound instead of steps")
    add_common(p, cmd_equal, fuel=False, nodes="oracle node budget")

    p = sub.add_parser("dehn", help="measured Dehn/space table for a presentation")
    p.add_argument("--presentation", required=True, help="presentation file")
    p.add_argument("--n", type=positive_int, required=True,
                   help="rows for word lengths 1..N")
    p.add_argument("--mode", default="exhaustive", help="exhaustive or random:COUNT")
    p.add_argument("--slack", type=int,
                   help="length-cap slack (default 2*longest side)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the drawn words; only random mode uses it "
                        "(default %(default)s)")
    add_common(p, cmd_dehn, fuel=False,
               nodes="node budget of each normal-form class's graph")

    p = sub.add_parser("endo", help="endomorphism analysis on a family monoid")
    p.add_argument("--params", nargs=4, type=int, required=True,
                   metavar=("A", "B", "C", "D"), help=params_help)
    p.add_argument("--map", required=True, help='e.g. "a=a,b=bab"')
    p.add_argument("--surjective-bound", type=positive_int, default=3,
                   help="longest word searched for each generator's preimage "
                        "(default %(default)s)")
    p.add_argument("--noninjective-bound", type=positive_int,
                   help="longest word searched for two elements with one image "
                        "(default: no search)")
    add_common(p, cmd_endo)

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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
