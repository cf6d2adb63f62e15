"""Spans around rewritekit's layer functions, recorded from outside.

Installing a :class:`Tracer` replaces each traced function with a wrapper
in every rewritekit module that holds the function, so calls made through
``from .rewrite import _reduce`` and the like are seen too.  Each span is
kept in memory as (name, parent, start, end); ``write`` saves them when
the run ends and ``layer_metrics`` turns them into per-layer figures.

``analysis._neighbors`` is a generator, so a span around it would close
before any work happened; its cost shows in the self time of
``_explore`` and ``_bidirectional_search``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

SPANNED = (
    ("rewrite", "_reduce"),
    ("rewrite", "normal_form"),
    ("rewrite", "compare"),
    ("rewrite", "find_termination_order"),
    ("confluence", "_pairs_for_rules"),
    ("confluence", "knuth_bendix"),
    ("confluence", "check_local_confluence"),
    ("analysis", "_explore"),
    ("analysis", "dehn_table"),
    ("analysis", "_bidirectional_search"),
    ("analysis", "equal_in_monoid"),
    ("family", "certify_family_system"),
    ("family", "verify_presentation_equivalence"),
    ("family", "check_derivation_chain"),
    ("family", "empirical_termination_probe"),
    ("family", "_oracle_with_deepening"),
    ("endo", "hopf_demo"),
    ("endo", "find_injectivity_violation"),
)
# called millions of times per completion; counted, not spanned
COUNTED = (("words", "find_occurrences"),)

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("rewrite._reduce.calls", "count"),
    ("rewrite._reduce.self_s", "s"),
    ("rewrite.normal_form.calls", "count"),
    ("rewrite.normal_form.self_s", "s"),
    ("rewrite.normal_form.steps", "count"),
    ("rewrite.compare.calls", "count"),
    ("rewrite.compare.self_s", "s"),
    ("rewrite.find_termination_order.calls", "count"),
    ("rewrite.find_termination_order.self_s", "s"),
    ("confluence._pairs_for_rules.calls", "count"),
    ("confluence._pairs_for_rules.self_s", "s"),
    ("confluence._pairs_for_rules.pairs", "count"),
    ("confluence._pairs_for_rules.useful_ratio", "ratio"),
    ("confluence.knuth_bendix.calls", "count"),
    ("confluence.knuth_bendix.self_s", "s"),
    ("confluence.knuth_bendix.steps", "count"),
    ("confluence.knuth_bendix.pairs_processed", "count"),
    ("confluence.knuth_bendix.rules_added", "count"),
    ("confluence.knuth_bendix.rules_removed", "count"),
    ("confluence.check_local_confluence.self_s", "s"),
    ("confluence.check_local_confluence.pairs_checked", "count"),
    ("analysis._explore.self_s", "s"),
    ("analysis._explore.words", "count"),
    ("analysis._explore.edges", "count"),
    ("analysis.dehn_table.self_s", "s"),
    ("analysis._bidirectional_search.calls", "count"),
    ("analysis._bidirectional_search.self_s", "s"),
    ("analysis.equal_in_monoid.calls", "count"),
    ("analysis.equal_in_monoid.self_s", "s"),
    ("analysis.equal_in_monoid.searches_per_query", "ratio"),
    ("family.certify_family_system.self_s", "s"),
    ("family.verify_presentation_equivalence.self_s", "s"),
    ("family.check_derivation_chain.self_s", "s"),
    ("family.empirical_termination_probe.self_s", "s"),
    ("family._oracle_with_deepening.attempts_per_identity", "ratio"),
    ("endo.hopf_demo.self_s", "s"),
    ("endo.find_injectivity_violation.self_s", "s"),
    ("words.find_occurrences.calls", "count"),
    ("tracing.overhead_ratio", "ratio"),
)


def rebind(package: str, original, replacement) -> None:
    """Point every name bound to ``original`` in the package's modules at
    ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _result_counts(qualname, result):
    """Extra counts a call's result carries, as (quantity, amount) pairs."""
    if qualname == "rewrite.normal_form":
        return (("steps", len(result[1].steps)),)
    if qualname == "confluence._pairs_for_rules":
        return (("pairs", len(result)),)
    if qualname == "confluence.knuth_bendix":
        st = result.stats
        return (("steps", st.steps), ("pairs_processed", st.pairs_processed),
                ("rules_added", st.rules_added), ("rules_removed", st.rules_removed))
    if qualname == "confluence.check_local_confluence":
        return (("pairs_checked", result.pairs_checked),)
    if qualname == "analysis._explore":
        words, adj = result[0], result[1]
        return (("words", len(words)), ("edges", sum(map(len, adj))))
    return ()


class Tracer:
    def __init__(self, package: str = "rewritekit"):
        self.package = package
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.useful_pairs = 0
        self.kb_pairs = 0
        self._installed: list[tuple[object, object]] = []

    def _spanned(self, qualname, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        name_of, parent, start, end, stack = (self.name_of, self.parent,
                                              self.start, self.end, self.stack)
        clock = time.perf_counter
        counts = self.counts
        is_pairs = qualname == "confluence._pairs_for_rules"
        kb_id = None

        def wrapper(*args, **kwargs):
            nonlocal kb_id
            span = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            start[span] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            for quantity, amount in _result_counts(qualname, result):
                counts[f"{qualname}.{quantity}"] += amount
            if is_pairs and parent[span] >= 0:
                if kb_id is None:
                    kb_id = self.names.index("confluence.knuth_bendix")
                if name_of[parent[span]] == kb_id:
                    newest = len(args[0]) - 1
                    self.kb_pairs += len(result)
                    self.useful_pairs += sum(1 for cp in result
                                             if cp.rule_i == newest or cp.rule_j == newest)
            return result

        return wrapper

    def _counted(self, qualname, fn):
        counts = self.counts
        key = f"{qualname}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        pkg = sys.modules[self.package]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for modname, fname in table:
                module = getattr(pkg, modname)
                original = getattr(module, fname)
                replacement = make(f"{modname}.{fname}", original)
                rebind(self.package, original, replacement)
                self._installed.append((original, replacement))

    def uninstall(self) -> None:
        for original, replacement in self._installed:
            rebind(self.package, replacement, original)
        self._installed.clear()

    def write(self, path) -> None:
        """A JSON header line, then the name, parent, start and end arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name:H", "parent:l", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round figures for every layer metric except the overhead."""
        n = len(self.start)
        total = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            d = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child_time[p] += d
        self_time = [0.0] * len(self.names)
        attempts = 0
        for i in range(n):
            k = self.name_of[i]
            calls[k] += 1
            self_time[k] += (self.end[i] - self.start[i]) - child_time[i]
            p = self.parent[i]
            if (p >= 0 and self.names[k] == "analysis.equal_in_monoid"
                    and self.names[self.name_of[p]] == "family._oracle_with_deepening"):
                attempts += 1
        by_name = {name: i for i, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for metric, _ in LAYER_METRICS[:-1]:  # the overhead is the caller's
            module, fname, quantity = metric.rsplit(".", 2)
            qual = f"{module}.{fname}"
            k = by_name.get(qual)
            if quantity == "calls" and k is not None:
                out[metric] = calls[k] / rounds
            elif quantity == "self_s" and k is not None:
                out[metric] = self_time[k] / rounds
            elif metric in self.counts:
                out[metric] = self.counts[metric] / rounds
            else:
                out[metric] = 0.0
        out["confluence._pairs_for_rules.useful_ratio"] = (
            self.useful_pairs / self.kb_pairs if self.kb_pairs else 0.0)
        eq_calls = calls[by_name["analysis.equal_in_monoid"]]
        out["analysis.equal_in_monoid.searches_per_query"] = (
            calls[by_name["analysis._bidirectional_search"]] / eq_calls if eq_calls else 0.0)
        deepening = calls[by_name["family._oracle_with_deepening"]]
        out["family._oracle_with_deepening.attempts_per_identity"] = (
            attempts / deepening if deepening else 0.0)
        return out
