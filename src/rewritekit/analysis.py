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
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .rewrite import Certification, RewritingSystem
from .words import Word

if TYPE_CHECKING:
    from .family import Presentation

DEFAULT_NODE_BUDGET = 10**6
MAX_EXHAUSTIVE_N = 14

FORWARD, BACKWARD = "lr", "rl"


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

    def replay(self, presentation: "Presentation") -> bool:
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


def _neighbors(equations, w: Word, cap: int):
    """Yield (word, (equation index, direction, position)) for every single
    application whose result stays within the length cap."""
    for idx, (lhs, rhs) in enumerate(equations):
        for pat, sub, direction in ((lhs, rhs, FORWARD), (rhs, lhs, BACKWARD)):
            if len(w) - len(pat) + len(sub) > cap:
                continue
            if pat:
                p = w.find(pat)
                while p != -1:
                    yield w[:p] + sub + w[p + len(pat):], (idx, direction, p)
                    p = w.find(pat, p + 1)
            else:
                for p in range(len(w) + 1):
                    yield w[:p] + sub + w[p:], (idx, direction, p)


def _flip(move):
    idx, direction, pos = move
    return idx, BACKWARD if direction == FORWARD else FORWARD, pos


def _build_certificate(meet: Word, vis_f, vis_b) -> EqualityCertificate:
    chain = [meet]
    apps: list = []
    w = meet
    while True:  # walk back to x
        _, parent, move = vis_f[w]
        if parent is None:
            break
        chain.insert(0, parent)
        apps.insert(0, move)
        w = parent
    w = meet
    while True:  # walk forward to y, inverting the backward tree's moves
        _, parent, move = vis_b[w]
        if parent is None:
            break
        chain.append(parent)
        apps.append(_flip(move))
        w = parent
    return EqualityCertificate(tuple(chain), tuple(apps),
                               len(chain) - 1, max(len(c) for c in chain))


def _bidirectional_search(equations, x: Word, y: Word, cap: int,
                          node_budget: int) -> EqualityOutcome:
    if x == y:
        return EqualityOutcome("equal",
                               EqualityCertificate((x,), (), 0, len(x)))
    vis_f = {x: (0, None, None)}
    vis_b = {y: (0, None, None)}
    frontier_f, frontier_b = [x], [y]
    depth_f = depth_b = 0
    best: Optional[tuple[int, Word]] = None

    while True:
        # a recorded meet is provably minimal once no shorter path can
        # remain uncaught by the completed levels
        if best is not None and best[0] <= depth_f + depth_b + 1:
            return EqualityOutcome("equal", _build_certificate(best[1], vis_f, vis_b))
        if not frontier_f or not frontier_b:
            if best is not None:
                return EqualityOutcome("equal", _build_certificate(best[1], vis_f, vis_b))
            return EqualityOutcome("unequal-within-bound")

        forward = len(frontier_f) <= len(frontier_b)
        this_vis, other_vis = (vis_f, vis_b) if forward else (vis_b, vis_f)
        frontier = frontier_f if forward else frontier_b
        depth = (depth_f if forward else depth_b) + 1
        new_frontier: list[Word] = []
        for w in frontier:
            for w2, move in _neighbors(equations, w, cap):
                if w2 in this_vis:
                    continue
                this_vis[w2] = (depth, w, move)
                new_frontier.append(w2)
                if w2 in other_vis:
                    total = depth + other_vis[w2][0]
                    if best is None or total < best[0]:
                        best = (total, w2)
                if len(vis_f) + len(vis_b) > node_budget:
                    if best is not None:
                        return EqualityOutcome(
                            "equal", _build_certificate(best[1], vis_f, vis_b))
                    return EqualityOutcome("inconclusive")
        if forward:
            frontier_f, depth_f = new_frontier, depth
        else:
            frontier_b, depth_b = new_frontier, depth


def equal_in_monoid(presentation: "Presentation", x: Word, y: Word,
                    bound: int, node_budget: int = DEFAULT_NODE_BUDGET,
                    minimize: str = "steps") -> EqualityOutcome:
    """Decide x ~ y among derivations whose words stay within ``bound``.

    ``minimize="steps"`` returns a certificate with the fewest
    applications among bounded derivations; ``minimize="space"`` instead
    deepens the length cap one letter at a time, so the certificate's
    ``s`` is exactly the least achievable intermediate-length bound.
    """
    presentation.alphabet.validate_word(x)
    presentation.alphabet.validate_word(y)
    if bound < max(len(x), len(y)):
        raise ValueError("bound must cover both input words")
    if minimize not in ("steps", "space"):
        raise ValueError(f"unknown minimize mode {minimize!r}")
    equations = presentation.equations
    if minimize == "space":
        outcome = EqualityOutcome("unequal-within-bound")
        for cap in range(max(len(x), len(y)), bound + 1):
            outcome = _bidirectional_search(equations, x, y, cap, node_budget)
            if outcome.status != "unequal-within-bound":
                return outcome
        return outcome
    return _bidirectional_search(equations, x, y, bound, node_budget)


@dataclass(frozen=True)
class DehnSample:
    n: int
    dehn: int
    space: int
    pairs_examined: int
    exhaustive: bool


class _DisjointSet:
    def __init__(self, size: int):
        self.parent = list(range(size))
        self.min_seed = [None] * size  # minimal seed length in each class

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root


def _all_words(letters, max_length: int) -> list[Word]:
    out = [""]
    frontier = [""]
    for _ in range(max_length):
        frontier = [w + c for w in frontier for c in letters]
        out.extend(frontier)
    return out


def _explore(equations, seeds, cap: int, node_budget: int):
    """The relation graph reachable from ``seeds`` within the length cap."""
    id_of: dict[Word, int] = {}
    words: list[Word] = []
    adj: list[list[int]] = []
    queue = deque()
    exhausted = True
    for seed in seeds:
        if seed not in id_of:
            id_of[seed] = len(words)
            words.append(seed)
            adj.append([])
            queue.append(seed)
    while queue:
        w = queue.popleft()
        wi = id_of[w]
        for w2, _ in _neighbors(equations, w, cap):
            j = id_of.get(w2)
            if j is None:
                if len(words) >= node_budget:
                    exhausted = False
                    continue
                j = len(words)
                id_of[w2] = j
                words.append(w2)
                adj.append([])
                queue.append(w2)
            adj[wi].append(j)
    return words, adj, id_of, exhausted


def dehn_table(presentation: "Presentation", n_max: int,
               mode: str = "exhaustive", sample_count: Optional[int] = None,
               slack: Optional[int] = None,
               node_budget: int = DEFAULT_NODE_BUDGET,
               seed: int = 0,
               max_exhaustive_n: int = MAX_EXHAUSTIVE_N) -> list[DehnSample]:
    """Measured Dehn and space values for n = 1..n_max.

    All rows share one reachability graph capped at ``n_max + slack``,
    which makes the measured values non-decreasing in n by construction.
    Distances give the Dehn entries; a union-find sweep over ascending
    word lengths gives, for every equal pair, the least length cap under
    which the pair connects (the space entries).  Trivial pairs (x, x)
    participate: their space requirement is |x|.
    """
    if n_max < 1:
        raise ValueError("n must be >= 1")
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive" and n_max > max_exhaustive_n:
        raise ValueError(f"exhaustive mode is capped at n = {max_exhaustive_n}; "
                         "use random sampling for larger n")
    equations = presentation.equations
    if slack is None:
        slack = 2 * max((max(len(l), len(r)) for l, r in equations), default=0)
    if slack < 0:
        raise ValueError(f"slack must be >= 0, got {slack}")
    cap = n_max + slack

    if mode == "exhaustive":
        seeds = _all_words(presentation.alphabet.letters, n_max)
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

    words, adj, id_of, exhausted = _explore(equations, seeds, cap, node_budget)
    seed_ids = sorted(id_of[s] for s in seeds)
    seed_set = set(seed_ids)

    # connected components (relation edges are symmetric)
    component = [-1] * len(words)
    comp_members: list[list[int]] = []
    for start in range(len(words)):
        if component[start] != -1:
            continue
        comp = len(comp_members)
        comp_members.append([start])
        component[start] = comp
        dq = deque([start])
        while dq:
            i = dq.popleft()
            for j in adj[i]:
                if component[j] == -1:
                    component[j] = comp
                    comp_members[comp].append(j)
                    dq.append(j)

    max_d_at = [0] * (n_max + 1)     # by threshold max(|x|, |y|)
    pairs_at = [0] * (n_max + 1)
    dist = [-1] * len(words)
    for members in comp_members:
        member_seeds = [i for i in members if i in seed_set]
        if len(member_seeds) < 2:
            continue
        for u in member_seeds:
            lu = len(words[u])
            for i in members:
                dist[i] = -1
            dist[u] = 0
            dq = deque([u])
            while dq:
                i = dq.popleft()
                for j in adj[i]:
                    if dist[j] == -1:
                        dist[j] = dist[i] + 1
                        dq.append(j)
            for v in member_seeds:
                if v <= u:
                    continue
                t = max(lu, len(words[v]))
                if t <= n_max:
                    pairs_at[t] += 1
                    if dist[v] > max_d_at[t]:
                        max_d_at[t] = dist[v]

    # space: activate nodes by ascending length; an edge becomes usable when
    # its later endpoint activates, so unioning on activation makes the
    # activation length the exact minimax requirement for every pair the
    # union newly connects (recorded when both sides hold a seed <= n).
    ds = _DisjointSet(len(words))
    space_at = [0] * (n_max + 1)
    order = sorted(range(len(words)), key=lambda i: (len(words[i]), i))
    active = [False] * len(words)
    for i in order:
        threshold = len(words[i])
        active[i] = True
        if i in seed_set:
            ds.min_seed[i] = threshold  # i is still its own root here
        for j in adj[i]:
            if not active[j]:
                continue
            ri, rj = ds.find(i), ds.find(j)
            if ri == rj:
                continue
            mi, mj = ds.min_seed[ri], ds.min_seed[rj]
            if mi is not None and mj is not None:
                t = max(mi, mj)
                if t <= n_max and threshold > space_at[t]:
                    space_at[t] = threshold
            ds.parent[rj] = ri
            mins = [m for m in (mi, mj) if m is not None]
            ds.min_seed[ri] = min(mins) if mins else None

    seed_lengths = sorted(len(s) for s in seeds)
    rows = []
    running_d = running_sp = running_pairs = 0
    for n in range(1, n_max + 1):
        running_d = max(running_d, max_d_at[n])
        running_sp = max(running_sp, space_at[n])
        running_pairs += pairs_at[n]
        floor = max((L for L in seed_lengths if L <= n), default=0)
        rows.append(DehnSample(n, running_d, max(running_sp, floor),
                               running_pairs,
                               mode == "exhaustive" and exhausted))
    return rows


def dehn_sample(presentation: "Presentation", n: int,
                mode: str = "exhaustive", sample_count: Optional[int] = None,
                slack: Optional[int] = None,
                node_budget: int = DEFAULT_NODE_BUDGET,
                seed: int = 0,
                max_exhaustive_n: int = MAX_EXHAUSTIVE_N) -> DehnSample:
    """The n-th row of :func:`dehn_table`."""
    return dehn_table(presentation, n, mode=mode, sample_count=sample_count,
                      slack=slack, node_budget=node_budget, seed=seed,
                      max_exhaustive_n=max_exhaustive_n)[-1]


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
    lhss = [r.lhs for r in system.rules]
    out = [""]
    frontier = [""]
    for _ in range(max_length):
        new = []
        for w in frontier:
            for c in system.alphabet.letters:
                w2 = w + c
                if any(w2.endswith(l) for l in lhss):
                    continue
                new.append(w2)
        out.extend(new)
        frontier = new
    return out
