#!/usr/bin/env python3
"""The rewritekit benchmark.

One workload, as BENCHMARK.json's command runs it (from the repository root):

    python3 bench/run.py --workload completion --seed 1 --seconds 28 --trace 0

prints every end-to-end metric by name and unit, then, as its last line,
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 1`` the run records spans around the library's layer
functions and prints the per-layer metrics and the tracing overhead
instead.  ``--workload all`` runs every workload in its own process, one
after another; ``--steadiness N`` runs each workload N times with seeds
seed..seed+N-1 and reports each end-to-end metric's spread against its
bound in BENCHMARK.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 5
MODULES = ("words", "rewrite", "confluence", "family", "analysis", "endo")
# A calibration sample is CALIBRATION_LOOPS turns of _calibration_work;
# CALIBRATION_REF_S is its median duration on the machine the README's
# figures come from (2 vCPUs, Python 3.11.7), which defines "reference
# speed".  Operations are bracketed by samples at least this often:
CALIBRATION_LOOPS = 12000
CALIBRATION_REF_S = 0.0060
CALIBRATION_EVERY_S = 0.25
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "query_p50_ms": "ms", "query_p99_ms": "ms"}


def load_library() -> SimpleNamespace:
    """Import rewritekit afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "rewritekit" or m.startswith("rewritekit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("rewritekit")
    return SimpleNamespace(**{m: getattr(pkg, m) for m in MODULES})


def _calibration_work() -> dict:
    """Fixed pure-Python work of the kind the library does: building,
    searching and hashing short strings."""
    table: dict = {}
    for i in range(CALIBRATION_LOOPS):
        key = "ab"[i & 1] * (i % 13) + "x" * (i % 3)
        table[key] = table.get(key, 0) + key.find("ba")
    return table


class Gauge:
    """Converts measured seconds into seconds at the reference speed.

    The machine's speed drifts by up to a factor of two over seconds to
    minutes (see README).  A short fixed calibration loop is timed before
    and after every stretch of measured work; the work's measured time is
    scaled by CALIBRATION_REF_S over the mean of the two samples, which
    cancels the drift common to both.
    """

    def __init__(self):
        self.last = self.sample()

    @staticmethod
    def sample() -> float:
        t0 = time.perf_counter()
        _calibration_work()
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Scale for the work done since the previous call."""
        now = self.sample()
        f = CALIBRATION_REF_S / ((self.last + now) / 2)
        self.last = now
        return f


def run_rounds(ops, seconds: float) -> dict:
    """Repeat whole rounds of ``ops`` for about ``seconds`` of wall time.

    Another round starts only while more than half a round's time is
    left, so a run ends at the round boundary nearest its length; there is
    always at least one round.  Each round starts from a fresh garbage
    collection; each operation is timed alone, and the outputs are checked
    after the round, so no check runs between timed calls.
    Latencies are scaled to the reference speed by a Gauge sampled at least
    every CALIBRATION_EVERY_S seconds between operations; raw round times
    are kept too.
    """
    clock = time.perf_counter
    start = clock()
    walls, raw_walls, round_times = [], [], []
    latencies = [[] for _ in ops]  # per operation, one scaled sample per round
    attempted = failed = 0
    problems: list[str] = []  # wrong outputs
    failures: list[str] = []  # operations that did not deliver
    while True:
        gc.collect()
        round_start = clock()
        gauge = Gauge()
        outputs, raw, scaled, pending = [], [], [], []
        last_sample = clock()
        for i, op in enumerate(ops):
            t0 = clock()
            try:
                outputs.append((True, op.call()))
            except Exception as exc:  # an operation that raises has failed
                outputs.append((False, exc))
            raw.append(clock() - t0)
            scaled.append(0.0)
            pending.append(i)
            if clock() - last_sample >= CALIBRATION_EVERY_S or i == len(ops) - 1:
                f = gauge.factor()
                for j in pending:
                    scaled[j] = raw[j] * f
                pending = []
                last_sample = clock()
        for op, samples, (returned, result), dt in zip(ops, latencies, outputs, scaled):
            samples.append(dt)
            attempted += 1
            if not returned:
                failed += 1
                failures.append(f"{op.label}: raised {result!r}")
                continue
            op_failed, notes = op.check(result)
            (failures if op_failed else problems).extend(f"{op.label}: {n}" for n in notes)
            failed += op_failed
            if op_failed and not notes:
                failures.append(f"{op.label}: failed")
        del outputs
        walls.append(sum(scaled))
        raw_walls.append(sum(raw))
        round_times.append(clock() - round_start)
        if seconds - (clock() - start) <= statistics.median(round_times) / 2:
            break
    return {"walls": walls, "raw_walls": raw_walls, "latencies": latencies,
            "attempted": attempted, "failed": failed, "problems": problems,
            "failures": failures}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup, prepare, make_ops = WORKLOADS[name]
    setup_times = []
    gauge = Gauge()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = load_library()
        state = setup(lib, seed)
        setup_times.append((time.perf_counter() - t0) * gauge.factor())
    prepare(state)
    ops = make_ops(state)
    # keep the benchmark's own objects out of the collections the timed
    # calls trigger
    gc.collect()
    gc.freeze()

    if not trace:
        res = run_rounds(ops, seconds)
        # an operation's latency is its median over the rounds
        lat = [statistics.median(samples) for samples in res["latencies"]]
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(res["walls"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "query_p50_ms": statistics.median(lat) * 1e3,
            "query_p99_ms": percentile(lat, 0.99) * 1e3,
        }
        units = E2E_UNITS
        notes = [f"rounds: {len(res['walls'])}, operations per round: {len(ops)}, "
                 f"latency samples: {len(lat)} operations x {len(res['walls'])} rounds",
                 "round walls at reference speed (s): " + " ".join(f"{w:.4f}" for w in res["walls"]),
                 "round walls as measured (s): " + " ".join(f"{w:.4f}" for w in res["raw_walls"])]
    else:
        plain = run_rounds(ops, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            res = run_rounds(ops, seconds / 2)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{name}-seed{seed}.spans"
        tracer.write(trace_file)
        values = tracer.layer_metrics(len(res["walls"]))
        values["tracing.overhead_ratio"] = (statistics.median(res["walls"])
                                            / statistics.median(plain["walls"]) - 1)
        units = dict(LAYER_METRICS)
        res["attempted"] += plain["attempted"]
        res["failed"] += plain["failed"]
        res["problems"] = plain["problems"] + res["problems"]
        res["failures"] = plain["failures"] + res["failures"]
        notes = [f"untraced rounds: {len(plain['walls'])}, traced rounds: {len(res['walls'])}, "
                 f"spans: {len(tracer.start)} written to {trace_file.relative_to(ROOT)}",
                 "per-layer figures are per traced round"]

    for f in sorted(set(res["failures"]))[:20]:
        print(f"failed: {f}", file=sys.stderr)
    for p in res["problems"][:20]:
        print(f"wrong: {p}", file=sys.stderr)
    correct = not res["problems"]
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    for note in notes:
        print(f"  {note}")
    for metric, unit in units.items():
        print(f"  {metric:56s} {values[metric]:14.6g} {unit}")
    print(f"  attempted {res['attempted']}  failed {res['failed']}  correct {correct}")
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()}}


def subprocess_run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh process and return its result line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit(f"{name} (seed {seed}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    results = {name: subprocess_run(name, seed, seconds, trace) for name in WORKLOADS}
    print("summary")
    for name, r in results.items():
        print(f"  {name:13s} attempted {r['attempted']:7d}  failed {r['failed']:4d}  "
              f"correct {r['correct']}")
    return results


def steadiness(names, first_seed: int, runs: int, seconds: float) -> dict:
    """Each workload ``runs`` times on successive seeds: median and
    interquartile spread (as a share of the median) of every end-to-end
    metric, against the bound BENCHMARK.json gives it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for name in names:
        results = [subprocess_run(name, first_seed + i, seconds, False) for i in range(runs)]
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        rows = {}
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[metric] = {"median": med, "spread": spread, "bound": bound,
                            "within": spread <= bound or metric == "setup_s"}
        report[name] = {"rows": rows, "correct": all(r["correct"] for r in results),
                        "failed_share": sorted({f / a for f, a in shares})}
    print("steadiness (interquartile spread / median; setup_s is not held to its bound)")
    for name, r in report.items():
        print(f"  {name}  correct {r['correct']}  failed share {r['failed_share']}")
        for metric, row in r["rows"].items():
            print(f"    {metric:14s} median {row['median']:12.6g}  spread {row['spread']:7.4f}  "
                  f"bound {row['bound']:5.3f}  {'ok' if row['within'] else 'TOO WIDE'}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run each workload N times on successive seeds and report spreads")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "rewritekit" / "__init__.py").is_file():
        print(f"no rewritekit sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.steadiness:
        if args.steadiness < 4:
            parser.error("--steadiness needs at least 4 runs for quartiles")
        result = steadiness(names, args.seed, args.steadiness, args.seconds)
    elif args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
