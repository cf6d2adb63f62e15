"""Presentation-level equality oracle and empirical Dehn/space measurement.

Equality of two words in a finitely presented monoid is searched for by
bidirectional breadth-first search over the graph whose edges are single
relation applications (in either direction), restricted to words no
longer than a caller-supplied bound.  All outcomes are values: a
certificate, a definite "not connected within the bound", or an
"inconclusive" when the node budget ran out first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import or_
from typing import Optional

from .confluence import knuth_bendix
from .rewrite import (DEFAULT_FUEL, Certification, Presentation,
                      ReductionOrder, RewritingSystem, _reduce)
from .words import Word, _random_words, _shortlex_words

DEFAULT_NODE_BUDGET = 10**6
MAX_EXHAUSTIVE_N = 14
# Limits of the completion runs that look for a system to prune and bound
# Dehn-table seeds with.  A run that is not done within these rarely
# completes soon, and every presentation pays for its runs, so they stay
# small.
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
    while (w := vis[w]) is not None:
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
    # word -> parent (None at the root) in the tree grown from x (forward) or y
    vis_f = {x: None}
    vis_b = {y: None}
    frontier_f, frontier_b = [x], [y]

    while frontier_f and frontier_b:
        forward = len(frontier_f) <= len(frontier_b)
        this_vis, other_vis = (vis_f, vis_b) if forward else (vis_b, vis_f)
        frontier = frontier_f if forward else frontier_b
        room = node_budget - len(other_vis)  # for this side, while it grows
        new_frontier: list[Word] = []
        for w in frontier:
            for w2 in _neighbors(rules, w, cap):
                if w2 in this_vis:
                    continue
                this_vis[w2] = w
                new_frontier.append(w2)
                if w2 in other_vis:
                    # the first meet is step-minimal.  With this tree building
                    # level L and the other's last complete level K, a meet
                    # totalling fewer than L + K steps finds w2 on a level of
                    # the other tree below K; w neighbours w2, so both trees
                    # held w before this level, and whichever reached it
                    # second met the other there and would have returned
                    return EqualityOutcome(
                        "equal", _build_certificate(rules, w2, vis_f, vis_b))
                if len(this_vis) > room:
                    return EqualityOutcome("inconclusive")
        if forward:
            frontier_f = new_frontier
        else:
            frontier_b = new_frontier
    return EqualityOutcome("unequal-within-bound")


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
    that is not ``unequal-within-bound`` is returned.  The last cap always
    gives one: the first answer's chain fits under ``s``, and at ``bound``
    the first answer itself is returned.
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
    for cap in range(max(len(x), len(y)), top):
        found = _bidirectional_search(rules, x, y, cap, node_budget)
        if found.status != "unequal-within-bound":
            return found
    return outcome if top == bound else _bidirectional_search(rules, x, y, top, node_budget)


@dataclass(frozen=True)
class DehnSample:
    n: int
    dehn: int
    space: int
    pairs_examined: int
    exhaustive: bool
    truncated: bool = False  # the node budget cut some class's graph short


def _explore(rules, batch, words: list[Word], id_of: dict[Word, int],
             adj: list, cap: int, node_budget: int):
    """Expand the words whose ids are in ``batch``: the one place a class
    graph grows.

    A word's row is the tuple of its neighbours' ids within the length cap,
    one per application in :func:`_neighbors` order (repeats included); it
    is stored as ``adj[i]``, which is None until ``i`` is expanded.  The
    relation is symmetric, so every edge is stored at both ends once both
    are expanded.  A neighbour not yet in ``words`` gets the next id, unless
    ``node_budget`` words are known already: then it is dropped.

    Returns ``(added, rows, whole)``: the ids added, the rows built in
    batch order, and False when a word was dropped.  ``added`` holds the
    same int objects as ``id_of`` and the rows, so a caller that keeps ids
    adds no copies of them.
    """
    get = id_of.get
    added = []
    rows = []
    whole = True
    for i in batch:
        row = []
        for w2 in _neighbors(rules, words[i], cap):
            j = get(w2)
            if j is None:
                if len(words) >= node_budget:
                    whole = False
                    continue
                j = id_of[w2] = len(words)
                words.append(w2)
                added.append(j)
            row.append(j)
        adj[i] = row = tuple(row)
        rows.append(row)
    adj.extend(repeat(None, len(added)))
    return added, rows, whole


@lru_cache(maxsize=16)
def _complete_system(presentation: Presentation) -> Optional[tuple]:
    """A complete system for the presentation with each rule's cost, as
    ``(system, costs)``, or None if no system is found.  Every Dehn table
    takes its system here, and a presentation's answer is kept.

    Tries all-weights-1 shortlex completion within :data:`_PRUNE_LIMITS`,
    first under the alphabet's own precedence and then under its reverse.
    A completed system is self-checked by :func:`knuth_bendix`.  Rule r's
    cost is the ``(d, s)`` of the :func:`equal_in_monoid` certificate of
    lhs_r = rhs_r in the presentation, searched within max(|lhs_r|, |rhs_r|)
    plus :func:`default_slack` letters and the default node budget; it is
    None when the answer is not ``equal``.
    """
    letters = presentation.alphabet.letters
    weights = dict.fromkeys(letters, 1)
    slack = default_slack(presentation)
    for precedence in (letters, letters[::-1]):
        report = knuth_bendix(presentation, ReductionOrder(weights, precedence),
                              **_PRUNE_LIMITS)
        if report.completed:
            costs = []
            for lhs, rhs in report.system.rule_pairs():
                cert = equal_in_monoid(presentation, lhs, rhs,
                                       max(len(lhs), len(rhs)) + slack).certificate
                costs.append(None if cert is None else (cert.d, cert.s))
            return report.system, tuple(costs)
    return None


def _seed_cost(pairs, costs, w: Word) -> tuple[Word, int, float]:
    """Seed w's normal form under a complete system's rule ``pairs`` with
    their ``costs`` (:func:`_complete_system`), with c(w) and S(w), folded
    from the steps of its reduction.

    A step that rewrites lhs_r inside a word v lifts, by rule r's
    certificate, to d_r relation applications whose longest word is
    |v| - |lhs_r| + s_r.  So c(w), the sum of d_r, and S(w), the longest
    lifted word (|w| if w is already in normal form), are the d and s of a
    derivation from w to its normal form.  A step by a rule without a cost
    makes S(w) infinite: w gets no bound.
    """
    steps: list = []
    nf = _reduce(pairs, w, DEFAULT_FUEL, steps)
    c, s = 0, len(w)
    for idx, _, after in steps:  # after is the word after the step, holding rhs_r
        cost = costs[idx]
        if cost is None:
            s = math.inf
        else:
            c += cost[0]
            s = max(s, len(after) - len(pairs[idx][1]) + cost[1])
    return nf, c, s


def _cost_classes(system: RewritingSystem, costs, seeds) -> list[list]:
    """The seeds that may be equal to another seed, grouped by normal form
    under the complete ``system``, each seed u as ``(u, c(u), S(u))``
    (:func:`_seed_cost`).

    Two words are equal in the monoid exactly when they share a normal
    form, so a group of one seed is dropped.  Each group is in seed order,
    and the groups are in the order of their first seeds.
    """
    pairs = system.rule_pairs()
    groups: dict[Word, list] = {}
    for w in seeds:
        nf, c, s = _seed_cost(pairs, costs, w)
        groups.setdefault(nf, []).append((w, c, s))
    return [g for g in groups.values() if len(g) > 1]


def _measure_class(rules, seeds, costs, cap: int, node_budget: int,
                   max_d_at: list[int], pairs_at: list[int],
                   space_at: list[int], sweep: bool = True) -> bool:
    """Add the Dehn, pair and space figures of the graph reachable from
    ``seeds`` under the directed ``rules`` into the per-threshold lists;
    True when :func:`_explore` dropped no word of this graph for
    ``node_budget``.  The graph grows only as far as the figures need it,
    and is freed on return.

    The seeds must be distinct and in nondecreasing length: they hold ids
    0..n_seeds-1 in that order, and the sweep's roots rely on it.
    ``costs[i]`` is seed i's c (:func:`_seed_cost`) when its derivation to
    its normal form stays within the cap, and None otherwise.
    ``max_d_at`` may already hold the figures of the table's earlier
    classes: the distance pass reads them as floors of the rows.
    ``sweep=False`` is for a class whose every pair is bounded within the
    space rows: no pair can raise them, and the seeds share one component,
    so the sweep is skipped.
    """
    words = list(seeds)
    id_of = {w: i for i, w in enumerate(words)}
    adj: list = [None] * len(words)
    whole = True

    def grow(batch):
        nonlocal whole
        added, rows, ok = _explore(rules, batch, words, id_of, adj, cap, node_budget)
        whole &= ok
        return added, rows

    classes = (_space_sweep(grow, words, space_at) if sweep
               else {0: list(range(len(words)))})
    _distance_pass(grow, words, adj, classes, costs, max_d_at, pairs_at)
    return whole


def _space_sweep(grow, words: list[Word], space_at: list[int]):
    """Raise ``space_at`` to the least length caps under which the seeds,
    the ``words`` on entry, connect, and group the seeds by component.
    ``grow(batch)`` is :func:`_explore` on the class's graph: it expands
    the words whose ids are in ``batch``, appends the words it finds, and
    returns the ids added and the rows built.

    A union-find search from the seeds takes words in order of length and
    gives, for every pair of seeds, the least length cap under which the
    pair connects; ``space_at`` keeps the largest at the longer seed's
    length.  It stops at the first level where all the seeds share one
    component.

    Level L expands every word that words no longer than L join to a seed,
    and no other: a word found no longer than the level joins the level's
    bucket, which grows while it is walked, and a longer one waits in its
    own, made when the first word of its length is found.  An edge becomes
    usable when its later endpoint activates, so unioning on activation
    makes the level the exact minimax requirement for every pair the union
    newly connects.  ``parent[j]`` is -1 until j
    activates, and a union links under the lesser root, so a root is its
    class's least id.  The seeds hold ids 0..n_seeds-1 in nondecreasing
    length, so a root is below n_seeds exactly when its class holds a seed,
    and is then its shortest seed: a union of two seed classes has
    threshold |words[j]| for the greater root j.  After n_seeds - 1 such
    unions every seed shares one component, and the search stops.

    Returns the seeds' ids by the root of their component, ascending
    within each.
    """
    n_seeds = len(words)
    parent = [-1] * n_seeds
    buckets: list[list[int]] = [[] for _ in range(len(words[-1]) + 1)]
    for i, w in enumerate(words):
        buckets[len(w)].append(i)
    joins_left = n_seeds - 1
    for level, bucket in enumerate(buckets):  # buckets grows as words are found
        if not joins_left:
            break
        pos = 0
        while joins_left and pos < len(bucket):
            batch = bucket[pos:]
            pos = len(bucket)
            added, rows = grow(batch)
            parent.extend(repeat(-1, len(added)))
            for j in added:
                L = len(words[j])
                if L >= len(buckets):
                    buckets.extend([] for _ in range(L + 1 - len(buckets)))
                buckets[L if L > level else level].append(j)
            for i, row in zip(batch, rows):
                parent[i] = r = i  # r: the root of i's class
                for j in row:
                    if parent[j] < 0:
                        continue
                    while parent[j] != j:  # find, with path halving
                        parent[j] = j = parent[parent[j]]
                    if j == r:
                        continue
                    if j < r:
                        r, j = j, r
                    parent[j] = r
                    if j < n_seeds:
                        joins_left -= 1
                        t = len(words[j])
                        if level > space_at[t]:
                            space_at[t] = level
                if not joins_left:
                    break
        bucket.clear()  # no later level reads it

    # every parent precedes its child, so in id order each seed's parent
    # already holds its root
    classes: dict[int, list[int]] = {}
    for u in range(n_seeds):
        parent[u] = r = parent[parent[u]]
        classes.setdefault(r, []).append(u)
    return classes


def _distance_pass(grow, words: list[Word], adj: list, classes: dict[int, list[int]],
                   costs: list, max_d_at: list[int], pairs_at: list[int]) -> None:
    """Raise ``max_d_at`` to the distances of the seed pairs within each of
    the sweep's ``classes``, and count those pairs in ``pairs_at``.
    ``grow`` is as in :func:`_space_sweep`, ``adj[i]`` is word i's row
    once it is expanded, and ``costs`` is as in :func:`_measure_class`.

    One breadth-first search per class from all its seeds at once, level
    by level.  Bit b of ``seen[w]`` marks the class's b-th seed as reaching
    word w before level k, and bit b of ``fresh[w]`` at level k.  A pair at
    distance d first meets at level k = ceil(d / 2): on a word one seed
    reaches newly and the other earlier if d = 2k - 1, or on one both reach
    newly if d = 2k, which a pair at 2k - 1 may share too, so odd meets
    count first, and each seed searches about half of its longest
    distance.  A pair's first meet at d bounds its distance from above, and
    is its distance while both seeds search: only a settled pair can meet
    after one of them has stopped.  Bit c of ``ball[d][b]`` marks a seed c
    that b met at d or less, from meets only, never from settlements.
    Bit b of ``within[k]`` marks a seed whose cost is at most k.

    A seed stops spreading once each of its pairs is known: met, or
    settled by :func:`_settled`, before the first level and after each.
    The search also stops at a level that reaches no new word, which only
    a graph cut short by the node budget can leave with a pair apart.  The
    b-th seed of a class pairs with the b seeds before it, at its own
    length, so ``pairs_at`` counts a pair whether it was searched or
    settled.  The classes are disjoint components, so they share the marks
    without clearing them.
    """
    seen, fresh = [0] * len(words), [0] * len(words)
    for members in classes.values():
        m = len(members)
        for b, u in enumerate(members):
            pairs_at[len(words[u])] += b
            seen[u] = 1 << b
        if m == 1:
            continue
        own = [costs[u] for u in members]
        within = [0] * (max((c for c in own if c is not None), default=-1) + 1)
        for b, c in enumerate(own):
            if c is not None:
                within[c] |= 1 << b
        within = list(accumulate(within, or_))
        full = active = (1 << m) - 1
        known = [1 << b for b in range(m)]  # each seed and its known partners
        ball = [known.copy()]
        level = members
        k = 0
        while True:
            reach = list(accumulate(max_d_at, max))
            g = active
            while g:
                b = g.bit_length() - 1
                g ^= 1 << b
                open_ = full & ~known[b]
                if open_:
                    settled = _settled(ball, b, reach[len(words[members[b]])], open_,
                                       own[b], within)
                    known[b] |= settled
                    while settled:
                        c = settled.bit_length() - 1
                        settled ^= 1 << c
                        known[c] |= 1 << b
            active &= ~sum(1 << b for b in range(m) if known[b] == full)
            if not (active and level):
                break
            k += 1
            batch = [i for i in level if adj[i] is None and seen[i] & active]
            added, _ = grow(batch)
            seen.extend(repeat(0, len(added)))
            fresh.extend(repeat(0, len(added)))
            found = []
            for i in level:
                # i's older bits have reached its neighbours already
                bits = seen[i] & active
                if bits:
                    for j in adj[i]:
                        new = bits & ~seen[j]
                        if new:
                            f = fresh[j]
                            if not f:
                                found.append(j)
                            fresh[j] = f | new
            meets: dict[int, int] = {}  # fresh bits -> earlier bits beside them
            for j in found:
                f, e = fresh[j], seen[j]
                fresh[j] = 0
                seen[j] = e | f
                if e or f & (f - 1):
                    meets[f] = meets.get(f, 0) | e
            odd, even = [0] * m, [0] * m
            for f, e in meets.items():
                g = f
                while g:
                    b = g.bit_length() - 1
                    g ^= 1 << b
                    odd[b] |= e
                    even[b] |= f
            # both seeds of a pair see its meets (an odd one on either side of
            # a shortest path's middle) while both search, and the longer
            # seed raises the row at its length by each pair not yet known
            for d, hits in ((2 * k - 1, odd), (2 * k, even)):
                ball.append([a | h for a, h in zip(ball[-1], hits)])
                for b, u in enumerate(members):
                    new = hits[b] & ~known[b]
                    if new:
                        known[b] |= new
                        if new & ((1 << b) - 1):
                            t = len(words[u])
                            max_d_at[t] = max(max_d_at[t], d)
            level = found


def _settled(ball: list[list[int]], b: int, reach: int, open_: int,
             cost: Optional[int], within: list[int]) -> int:
    """The mask of seed b's ``open_`` partners that a bound settles: the one
    place where a pair becomes known without a meet.

    ``reach`` is the largest distance met at |b| or below, in this class or
    an earlier one.  The rows take a running max, so reach is at most the
    final row at |b| and at every greater length: a partner c whose
    distance from b is bounded within reach cannot raise its row, and is
    settled for both of its seeds.  Two bounds are used.

    - A priori: ``cost`` is b's c, or None, and ``within[k]`` marks the
      seeds whose c is at most k (:func:`_distance_pass`).  b and c reach
      their shared normal form by derivations within the cap of c(b) and
      c(c) applications, so their distance is at most c(b) + c(c).
    - Triangle: ``ball[d][b]`` marks the seeds that b has met within d, for
      d up to the search's last distance.  A partner c that some seed w
      bounds by d(b, w) + d(w, c) within reach is settled.  Every open pair
      is farther apart than the last distance, so none is settled this way
      unless reach exceeds it.
    """
    near = 0  # the seeds within reach of b
    if cost is not None and cost <= reach:
        near = within[min(reach - cost, len(within) - 1)]
    top = len(ball) - 1
    if reach > top:
        for d in range(1, top + 1):
            first = ball[d][b] & ~ball[d - 1][b]  # the seeds b first met at d
            rest = ball[min(reach - d, top)]
            while first:
                c = first.bit_length() - 1
                first ^= 1 << c
                near |= rest[c]
    return near & open_


def _bounded(group, dehn_row: list[int], space_row: list[int]) -> tuple[bool, bool]:
    """Whether every pair of the class ``group`` (:func:`_cost_classes`) is
    bounded within the Dehn rows, and whether within the space rows: for
    each pair (u, v) at its threshold t = |v|, c(u) + c(v) against
    ``dehn_row[t]``, and max(S(u), S(v)) against ``space_row[t]``, which is
    within the cap.  The seeds are in nondecreasing length, so the later
    seed's length is the threshold, and one pass with the largest c(u) and
    S(u) of the seeds before it checks every pair.
    """
    _, top_c, top_s = group[0]
    dehn_ok = space_ok = True
    for w, c, s in group[1:]:
        t = len(w)
        dehn_ok &= top_c + c <= dehn_row[t]
        space_ok &= max(top_s, s) <= space_row[t]
        if not (dehn_ok or space_ok):
            break
        top_c, top_s = max(top_c, c), max(top_s, s)
    return dehn_ok, space_ok


def dehn_table(presentation: Presentation, n_max: int,
               sample_count: Optional[int] = None,
               slack: Optional[int] = None,
               node_budget: int = DEFAULT_NODE_BUDGET,
               seed: int = 0) -> list[DehnSample]:
    """Measured Dehn and space values for n = 1..n_max.

    ``sample_count=None`` seeds every word up to length n_max, for n_max up
    to ``MAX_EXHAUSTIVE_N``; an integer seeds that many random words drawn
    with ``seed``, and those rows are never marked exhaustive.  A random
    row whose n is below the shortest drawn word holds no seed and no pair,
    so it reads 0 in every column and its space is below n: the five words
    that ``sample_count=5, seed=0`` draws for the demonstration monoid at
    n_max = 20 are 13 letters or longer, so rows 1..12 read (0, 0, 0).

    All rows are read off the relation graph reachable from the seeds
    within the length cap ``n_max + slack`` (``slack`` defaults to
    :func:`default_slack`).  Each pair of seeds enters its figures at its
    threshold max(|x|, |y|), and row n is the running maximum of the
    entries at or below n (for ``pairs_examined``, their sum), so the rows
    are non-decreasing in n.  A seed's trivial pair (x, x) gives its space
    entry, |x|, and is not counted as examined.  A relation application never
    leaves a normal-form class, so that graph is a disjoint union of one
    graph per class: the seeds are grouped by normal form under the
    presentation's complete system (:func:`_complete_system`,
    :func:`_cost_classes`), and each group's graph is grown, measured and
    freed before the next one (:func:`_measure_class`), so only one class's
    graph is held at a time.  Two passes give its figures, and a word's
    neighbours are found (:func:`_explore`) only when one of them first
    needs them: a union-find sweep gives the space entries and the seeds'
    components (:func:`_space_sweep`), and one breadth-first search per
    component, from all of its seeds at once, gives the Dehn entries
    (:func:`_distance_pass`).

    The system bounds every pair before any search (Madlener & Otto,
    *J. Symbolic Computation* 1, 1985).  Each of its rules carries the d
    and s of an oracle certificate in the presentation, so each seed u
    reaches its normal form by a derivation of c(u) applications whose
    longest word is S(u) (:func:`_seed_cost`).  A pair (u, v) whose S(u)
    and S(v) are within the cap connects within it, at distance at most
    c(u) + c(v) and under a least cap of at most max(S(u), S(v)).  The rows
    are running maxima, so a pair whose bounds are within the rows already
    known at its threshold cannot raise them, whichever classes were
    measured before it.  The classes are taken in the order of their first
    seeds, and each is settled as far as its bounds allow
    (:func:`_bounded`): a class whose every pair is bounded within both
    rows only adds its pair count; one whose every pair is bounded within
    the space row skips the sweep, since its seeds share one component; and
    the distance pass settles each pair whose distance bound is within its
    row before searching it, as it settles by a triangle bound the pairs
    that its meets show cannot raise their row (:func:`_settled`).  A seed
    whose reduction applies a rule without a certificate has no bound.

    Distances and least caps within the length cap do not depend on the
    order in which words are found, so the rows are those of the whole
    graph.  ``pairs_examined`` counts the pairs whose seeds share a
    component, whether their distance was searched or settled.

    Seeds that no other seed can equal are not explored.  This is sound
    because two words equal in the monoid share their normal form under
    any complete system for it, so a seed whose normal form no other seed
    shares has no partner, and its component adds nothing to the Dehn,
    space or pair figures of the others.  Without a complete system the
    seeds form one group with no bound (c and S infinite), measured in one
    graph unless it holds a single seed; unless every seed equals every
    other, they never all share one component, so the search finds every
    word within the cap.

    ``node_budget`` caps the words found in each class's graph, not their
    sum: it guards memory, and a class's graph is all that is held at
    once.  Only the words the two passes need are found, so a table can
    be exhaustive under a budget that the class's whole graph would
    outgrow.  When the budget drops a word, in either mode, the rows are
    marked truncated and not exhaustive.
    """
    if n_max < 1:
        raise ValueError("n must be >= 1")
    if sample_count is None and n_max > MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive mode is capped at n = {MAX_EXHAUSTIVE_N}; "
                         "use random sampling for larger n")
    if slack is None:
        slack = default_slack(presentation)
    if slack < 0:
        raise ValueError(f"slack must be >= 0, got {slack}")
    cap = n_max + slack

    if sample_count is None:
        seeds = tuple(_shortlex_words(presentation.alphabet.letters, n_max))
    else:
        if sample_count < 1:
            raise ValueError("random mode needs a positive sample count")
        seeds = sorted(set(_random_words(presentation.alphabet.letters, sample_count,
                                         1, n_max, seed)), key=lambda w: (len(w), w))

    max_d_at = [0] * (n_max + 1)     # by threshold max(|x|, |y|)
    pairs_at = [0] * (n_max + 1)
    space_at = [0] * (n_max + 1)
    for w in seeds:
        space_at[len(w)] = len(w)  # the trivial pair (w, w)
    rules = _directed(presentation.equations)
    found = _complete_system(presentation)
    exhausted = True
    for group in (_cost_classes(*found, seeds) if found
                  else [[(w, math.inf, math.inf) for w in seeds]]):
        dehn_ok, space_ok = _bounded(group, list(accumulate(max_d_at, max)),
                                     list(accumulate(space_at, max)))
        if dehn_ok and space_ok:
            for j, (w, _, _) in enumerate(group):
                pairs_at[len(w)] += j
            continue
        exhausted &= _measure_class(
            rules, [w for w, _, _ in group],
            [c if s <= cap else None for _, c, s in group], cap,
            node_budget, max_d_at, pairs_at, space_at, sweep=not space_ok)

    exhaustive = sample_count is None and exhausted
    rows = zip(accumulate(max_d_at[1:], max), accumulate(space_at[1:], max),
               accumulate(pairs_at[1:]))
    return [DehnSample(n, d, sp, pairs, exhaustive, not exhausted)
            for n, (d, sp, pairs) in enumerate(rows, 1)]


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
