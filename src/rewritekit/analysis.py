"""Presentation-level equality oracle and empirical Dehn/space measurement.

Equality of two words in a finitely presented monoid is searched for by
bidirectional breadth-first search over the graph whose edges are single
relation applications (in either direction), restricted to words no
longer than a caller-supplied bound.  All outcomes are values: a
certificate, a definite "not connected within the bound", or an
"inconclusive" when the node budget ran out first.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .confluence import knuth_bendix
from .rewrite import (DEFAULT_FUEL, Certification, Presentation,
                      ReductionOrder, RewritingSystem, _reduce)
from .words import Word, _shortlex_words

DEFAULT_NODE_BUDGET = 10**6
MAX_EXHAUSTIVE_N = 14
# Limits of the completion runs that look for a system to prune Dehn-table
# seeds with.  A run that is not done within these rarely completes soon,
# and every table pays for its runs, so they stay small.
_PRUNE_LIMITS = {"max_rules": 10, "max_steps": 50}

FORWARD, BACKWARD = "lr", "rl"


def default_slack(presentation: Presentation) -> int:
    """The default room a search gets above its longest input word: twice
    the longest side of any equation (0 without equations)."""
    return 2 * max((max(len(l), len(r)) for l, r in presentation.equations),
                   default=0)


@dataclass(frozen=True)
class EqualityCertificate:
    """An explicit derivation x = w0 ~ w1 ~ ... ~ wk = y.

    ``applications[i]`` is the (equation index, direction, position)
    rewriting ``chain[i]`` into ``chain[i+1]``; ``d`` is the number of
    applications and ``s`` the longest word in the chain.
    """

    chain: tuple[Word, ...]
    applications: tuple[tuple[int, str, int], ...]
    d: int
    s: int

    def replay(self, presentation: Presentation) -> bool:
        """Re-apply every recorded application and compare with the chain."""
        if self.d != len(self.chain) - 1 or self.d != len(self.applications):
            return False
        if self.s != max(len(w) for w in self.chain):
            return False
        for i, (eq_idx, direction, pos) in enumerate(self.applications):
            lhs, rhs = presentation.equations[eq_idx]
            if direction == BACKWARD:
                lhs, rhs = rhs, lhs
            w = self.chain[i]
            if w[pos:pos + len(lhs)] != lhs:
                return False
            if w[:pos] + rhs + w[pos + len(lhs):] != self.chain[i + 1]:
                return False
        return True


@dataclass(frozen=True)
class EqualityOutcome:
    status: str  # "equal" | "unequal-within-bound" | "inconclusive"
    certificate: Optional[EqualityCertificate] = None


def _directed(equations) -> tuple[tuple[Word, Word, int], ...]:
    """Each equation as two directed rules (pattern, substitute, growth),
    lhs -> rhs first.  Rule ``k`` applies equation ``k // 2`` in direction
    FORWARD when ``k`` is even and BACKWARD when it is odd."""
    rules = []
    for lhs, rhs in equations:
        rules.append((lhs, rhs, len(rhs) - len(lhs)))
        rules.append((rhs, lhs, len(lhs) - len(rhs)))
    return tuple(rules)


def _neighbors(rules, w: Word, cap: int) -> list[Word]:
    """The words one relation application away from ``w`` within the length
    cap, in enumeration order: rule by rule, then by ascending position.

    This is the one relation-application enumerator.  It returns words only
    (a word may repeat when two applications join the same pair);
    :func:`_application` recovers a step's (equation, direction, position)
    in the same order when a certificate needs it.  An empty pattern
    matches at every position, as ``str.find`` reports it.
    """
    out = []
    room = cap - len(w)
    for pat, sub, growth in rules:
        if growth <= room:
            m = len(pat)
            p = w.find(pat)
            while p != -1:
                out.append(w[:p] + sub + w[p + m:])
                p = w.find(pat, p + 1)
    return out


def _application(rules, u: Word, v: Word) -> tuple[int, str, int]:
    """The first application, in :func:`_neighbors` order, rewriting u into v."""
    growth = len(v) - len(u)
    for k, (pat, sub, g) in enumerate(rules):
        if g == growth:
            m = len(pat)
            p = u.find(pat)
            while p != -1:
                if u[:p] + sub + u[p + m:] == v:
                    return k // 2, BACKWARD if k % 2 else FORWARD, p
                p = u.find(pat, p + 1)
    raise ValueError(f"no single application rewrites {u!r} into {v!r}")


def _tree_path(vis, w: Word) -> list[Word]:
    """``w`` and its ancestors in a search tree, up to the tree's root."""
    path = [w]
    while (w := vis[w][1]) is not None:
        path.append(w)
    return path


def _build_certificate(rules, meet: Word, vis_f, vis_b) -> EqualityCertificate:
    """Join the tree paths x..meet and meet..y into one chain and recover
    each step forward: the first application rewriting a word into the
    next.  On y's half that is the reverse of the move the search took,
    because moves are listed by equation, direction, then position, and
    one equation rewrites u into v both ways only if its sides are equal."""
    chain = _tree_path(vis_f, meet)[::-1] + _tree_path(vis_b, meet)[1:]
    apps = tuple(_application(rules, chain[i], chain[i + 1])
                 for i in range(len(chain) - 1))
    return EqualityCertificate(tuple(chain), apps, len(apps),
                               max(map(len, chain)))


def _bidirectional_search(rules, x: Word, y: Word, cap: int,
                          node_budget: int) -> EqualityOutcome:
    """Bidirectional BFS between x and y under the directed ``rules``.

    It has three exits: ``equal`` with a step-minimal certificate at the
    first word both trees reach, ``unequal-within-bound`` when a side's
    frontier empties first, and ``inconclusive`` when the two trees
    together outgrow the node budget first.
    """
    if x == y:
        return EqualityOutcome("equal",
                               EqualityCertificate((x,), (), 0, len(x)))
    # word -> (depth, parent) in the tree grown from x (forward) or y
    vis_f = {x: (0, None)}
    vis_b = {y: (0, None)}
    frontier_f, frontier_b = [x], [y]
    depth_f = depth_b = 0

    while True:
        if not frontier_f or not frontier_b:
            return EqualityOutcome("unequal-within-bound")

        forward = len(frontier_f) <= len(frontier_b)
        this_vis, other_vis = (vis_f, vis_b) if forward else (vis_b, vis_f)
        frontier = frontier_f if forward else frontier_b
        depth = (depth_f if forward else depth_b) + 1
        room = node_budget - len(other_vis)  # for this side, while it grows
        new_frontier: list[Word] = []
        for w in frontier:
            for w2 in _neighbors(rules, w, cap):
                if w2 in this_vis:
                    continue
                this_vis[w2] = (depth, w)
                new_frontier.append(w2)
                if w2 in other_vis:
                    # the first meet is step-minimal.  With K the other
                    # side's completed depth, a meet on this level totalling
                    # less than depth + K finds w2 at an other-side depth
                    # below K; w neighbours w2, so the other side reached w
                    # by depth K, a meet on an earlier level, which would
                    # have returned already
                    return EqualityOutcome(
                        "equal", _build_certificate(rules, w2, vis_f, vis_b))
                if len(this_vis) > room:
                    return EqualityOutcome("inconclusive")
        if forward:
            frontier_f, depth_f = new_frontier, depth
        else:
            frontier_b, depth_b = new_frontier, depth


def equal_in_monoid(presentation: Presentation, x: Word, y: Word,
                    bound: int, node_budget: int = DEFAULT_NODE_BUDGET,
                    minimize: str = "steps") -> EqualityOutcome:
    """Decide x ~ y among derivations whose words stay within ``bound``.

    ``minimize="steps"`` returns a certificate with the fewest
    applications among bounded derivations; ``minimize="space"`` instead
    returns the fewest applications under the least length cap that
    connects x and y, so the certificate's ``s`` is exactly the least
    achievable intermediate-length bound.
    Callers without a bound of their own use ``max(|x|, |y|)`` plus
    :func:`default_slack`.

    Space mode searches at ``bound`` first.  An ``unequal-within-bound``
    answer there holds under every smaller cap, so it is returned at once;
    a cap that would have run out of nodes never turns it into
    ``inconclusive``.  Otherwise the cap deepens one letter at a time from
    ``max(|x|, |y|)``, up to the first answer's ``s`` when it is ``equal``
    and up to ``bound`` when it is ``inconclusive``, and the first answer
    that is not ``unequal-within-bound`` is returned.
    """
    presentation.alphabet.validate_word(x)
    presentation.alphabet.validate_word(y)
    if bound < max(len(x), len(y)):
        raise ValueError("bound must cover both input words")
    if minimize not in ("steps", "space"):
        raise ValueError(f"unknown minimize mode {minimize!r}")
    rules = _directed(presentation.equations)
    outcome = _bidirectional_search(rules, x, y, bound, node_budget)
    if minimize == "steps" or outcome.status == "unequal-within-bound":
        return outcome
    top = outcome.certificate.s if outcome.certificate else bound
    for cap in range(max(len(x), len(y)), top + 1):
        found = (outcome if cap == bound
                 else _bidirectional_search(rules, x, y, cap, node_budget))
        if found.status != "unequal-within-bound":
            return found
    return outcome


@dataclass(frozen=True)
class DehnSample:
    n: int
    dehn: int
    space: int
    pairs_examined: int
    exhaustive: bool


def _explore(equations, seeds, cap: int, node_budget: int):
    """The relation graph reachable from ``seeds`` within the length cap.

    Returns ``(words, adj, id_of, exhausted)``.  Ids are assigned in
    discovery order, the distinct seeds first (ids 0, 1, ... in seed
    order), so walking ``words`` by index is a breadth-first search.
    ``adj[i]`` is a tuple of neighbour ids, one per application in
    :func:`_neighbors` order (repeats included); every edge is stored at
    both ends.  Once ``node_budget`` words are known, new words are
    dropped and ``exhausted`` is False.
    """
    rules = _directed(equations)
    words = list(dict.fromkeys(seeds))
    id_of = {w: i for i, w in enumerate(words)}
    get = id_of.get
    adj: list[tuple[int, ...]] = []
    exhausted = True
    for w in words:  # grows while it is walked
        row = []
        for w2 in _neighbors(rules, w, cap):
            j = get(w2)
            if j is None:
                if len(words) >= node_budget:
                    exhausted = False
                    continue
                j = id_of[w2] = len(words)
                words.append(w2)
            row.append(j)
        adj.append(tuple(row))
    return words, adj, id_of, exhausted


def _pruning_system(presentation: Presentation) -> Optional[RewritingSystem]:
    """A complete system for the presentation, or None if none is found.

    Tries all-weights-1 shortlex completion within :data:`_PRUNE_LIMITS`,
    first under the alphabet's own precedence and then under its reverse.
    A completed system is self-checked by :func:`knuth_bendix`.
    """
    letters = presentation.alphabet.letters
    weights = dict.fromkeys(letters, 1)
    for precedence in (letters, letters[::-1]):
        report = knuth_bendix(presentation, ReductionOrder(weights, precedence),
                              **_PRUNE_LIMITS)
        if report.completed:
            return report.system
    return None


def _partnered_seeds(presentation: Presentation, seeds) -> list[Word]:
    """The seeds, in order, that may be equal to another seed.

    Under a complete system two words are equal in the monoid exactly when
    they share a normal form, so a seed whose normal form no other seed
    has is dropped.  Without a complete system every seed stays.
    """
    system = _pruning_system(presentation)
    if system is None:
        return list(seeds)
    pairs = system.rule_pairs()
    forms = [_reduce(pairs, w, DEFAULT_FUEL) for w in seeds]
    count = Counter(forms)
    return [w for w, f in zip(seeds, forms) if count[f] > 1]


def dehn_table(presentation: Presentation, n_max: int,
               mode: str = "exhaustive", sample_count: Optional[int] = None,
               slack: Optional[int] = None,
               node_budget: int = DEFAULT_NODE_BUDGET,
               seed: int = 0) -> list[DehnSample]:
    """Measured Dehn and space values for n = 1..n_max.

    All rows share one reachability graph capped at ``n_max + slack``
    (:func:`_explore`; ``slack`` defaults to :func:`default_slack`), which
    makes the measured values non-decreasing in n by construction.  Two
    passes over it give the rows:

    - a union-find sweep that activates words one length bucket at a time
      gives, for every equal pair, the least length cap under which the
      pair connects (the space entries); its final roots are the
      connected components;
    - a breadth-first search from each seed that has a later seed in its
      component, stopped once all of them are reached, gives the
      distances (the Dehn entries).

    Trivial pairs (x, x) participate: their space requirement is |x|.

    Seeds that no other seed can equal are not explored
    (:func:`_partnered_seeds`).  This is sound because two words equal in
    the monoid share their normal form under any complete system for it, so
    a seed whose normal form no other seed shares has no partner, and its
    component adds nothing to the Dehn, space or pair figures of the
    others.  The space floor still counts every seed length.  Without a
    complete system every seed is explored.
    """
    if n_max < 1:
        raise ValueError("n must be >= 1")
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive" and n_max > MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive mode is capped at n = {MAX_EXHAUSTIVE_N}; "
                         "use random sampling for larger n")
    equations = presentation.equations
    if slack is None:
        slack = default_slack(presentation)
    if slack < 0:
        raise ValueError(f"slack must be >= 0, got {slack}")
    cap = n_max + slack

    if mode == "exhaustive":
        seeds = tuple(_shortlex_words(presentation.alphabet.letters, n_max))
    else:
        if not sample_count or sample_count < 1:
            raise ValueError("random mode needs a positive sample count")
        rng = random.Random(seed)
        letters = presentation.alphabet.letters
        picked = set()
        for _ in range(sample_count):
            n = rng.randint(1, n_max)
            picked.add("".join(rng.choice(letters) for _ in range(n)))
        seeds = sorted(picked, key=lambda w: (len(w), w))

    # the explored seeds are distinct, so they hold ids 0..n_seeds-1
    explored = _partnered_seeds(presentation, seeds)
    words, adj, id_of, exhausted = _explore(equations, explored, cap, node_budget)
    n_seeds = len(explored)
    length = [len(w) for w in words]
    del words, id_of  # only the lengths are needed from here on
    size = len(length)

    # space: activate words by ascending length (ids ascending within a
    # length); an edge becomes usable when its later endpoint activates, so
    # unioning on activation makes the activation length the exact minimax
    # requirement for every pair the union newly connects.  min_seed[r] is
    # the shortest seed length in root r's class (n_max + 1 for none), so
    # t <= n_max exactly when both sides hold a seed.
    parent = list(range(size))
    min_seed = length[:n_seeds] + [n_max + 1] * (size - n_seeds)
    active = bytearray(size)
    space_at = [0] * (n_max + 1)
    buckets: list[list[int]] = [[] for _ in range(cap + 1)]
    for i, L in enumerate(length):
        buckets[L].append(i)
    for threshold, bucket in enumerate(buckets):
        for i in bucket:
            # i activates as its own root and stays the root of every
            # class it absorbs
            active[i] = 1
            mi = min_seed[i]
            for j in adj[i]:
                if not active[j]:
                    continue
                while parent[j] != j:  # find, with path halving
                    parent[j] = j = parent[parent[j]]
                if j == i:
                    continue
                mj = min_seed[j]
                t = max(mi, mj)
                if t <= n_max:  # thresholds only grow: the last one is the max
                    space_at[t] = threshold
                parent[j] = i
                mi = min(mi, mj)
            min_seed[i] = mi

    # dehn: seeds grouped by final root, ascending ids within each class
    classes: dict[int, list[int]] = {}
    for u in range(n_seeds):
        r = u
        while parent[r] != r:
            r = parent[r]
        classes.setdefault(r, []).append(u)

    max_d_at = [0] * (n_max + 1)     # by threshold max(|x|, |y|)
    pairs_at = [0] * (n_max + 1)
    dist = [-1] * size
    for members in classes.values():
        for k, u in enumerate(members[:-1]):
            lu = length[u]
            todo = len(members) - 1 - k  # later seeds of u's class
            dist[u] = 0
            reached = [u]  # the BFS queue, kept to reset dist afterwards
            head = 0
            while todo:
                i = reached[head]
                head += 1
                d = dist[i] + 1
                for j in adj[i]:
                    if dist[j] < 0:
                        dist[j] = d
                        reached.append(j)
                        if u < j < n_seeds:
                            todo -= 1
                            t = max(lu, length[j])
                            pairs_at[t] += 1
                            if d > max_d_at[t]:
                                max_d_at[t] = d
            for i in reached:
                dist[i] = -1

    seed_lengths = {len(w) for w in seeds}
    rows = []
    running_d = running_sp = running_pairs = floor = 0
    for n in range(1, n_max + 1):
        running_d = max(running_d, max_d_at[n])
        running_sp = max(running_sp, space_at[n])
        running_pairs += pairs_at[n]
        if n in seed_lengths:
            floor = n
        rows.append(DehnSample(n, running_d, max(running_sp, floor),
                               running_pairs,
                               mode == "exhaustive" and exhausted))
    return rows


def enumerate_elements(system: RewritingSystem, max_length: int,
                       allow_uncertified: bool = False) -> list[Word]:
    """All irreducible words of length <= max_length, shortlex order.

    On a complete system these enumerate the distinct monoid elements;
    pass ``allow_uncertified=True`` to enumerate under a system whose
    completeness has not been certified.
    """
    if max_length < 0:
        raise ValueError("max length must be >= 0")
    if system.certification != Certification.COMPLETE and not allow_uncertified:
        raise ValueError("system is not certified complete; "
                         "pass allow_uncertified=True to override")
    lhss = tuple(r.lhs for r in system.rules)
    # a word is irreducible iff its longest proper prefix is and it ends
    # with no lhs
    return list(_shortlex_words(system.alphabet.letters, max_length,
                                lambda w: w.endswith(lhss)))
