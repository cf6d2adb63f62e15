import tempfile
from collections import deque
from itertools import permutations, product

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import rewritekit as rk
from rewritekit.analysis import DehnSample
from rewritekit.rewrite import _letter_ranks, _order_key

# Property tests draw the same examples on every run and keep no example
# database; Hypothesis's other caches go to a directory removed at exit,
# so no run leaves a .hypothesis/ directory behind.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)

GRID = [(a, b, g, d)
        for a in range(1, 5) for b in range(1, 5)
        for g in range(1, 5) for d in range(1, 5)]


def words_up_to(letters, n):
    """Every word over ``letters`` of length <= n, shortest first, each
    length in the order of ``letters``; built here rather than taken from
    the library, so tests that use it check against an independent list."""
    out, frontier = [""], [""]
    for _ in range(n):
        frontier = [w + c for w in frontier for c in letters]
        out.extend(frontier)
    return out


def weight_needed(pairs, letter):
    """The least weight w >= 1 of ``letter`` at which every rule with more
    of it on its left than on its right is strictly heavier on the left,
    every other letter weighing 1; found by trying w = 1, 2, ... in turn."""
    def weight(word, w):
        return sum(w if c == letter else 1 for c in word)
    gaining = [(lhs, rhs) for lhs, rhs in pairs if lhs.count(letter) > rhs.count(letter)]
    w = 1
    while not all(weight(lhs, w) > weight(rhs, w) for lhs, rhs in gaining):
        w += 1
    return w


def reference_order_scan(system, max_weight):
    """The termination-order search as a plain scan: every precedence, then
    every weight vector in ``product`` order, each letter's weight up to
    ``max(max_weight, weight_needed(...))``, each vector tested on every
    rule's sort keys.  ``find_termination_order`` must return what this
    returns."""
    letters = system.alphabet.letters
    pairs = system.rule_pairs()
    ranges = [range(1, max(max_weight, weight_needed(pairs, c)) + 1) for c in letters]
    for prec in permutations(letters):
        ranks = _letter_ranks(prec)
        for vec in product(*ranges):
            weights = dict(zip(letters, vec))
            if all(_order_key(weights, ranks, lhs) > _order_key(weights, ranks, rhs)
                   for lhs, rhs in pairs):
                return rk.ReductionOrder(weights, prec)
    return None


def bfs_graph(equations, seeds, cap):
    """Test-local exploration of the relation graph, written independently:
    plain double-loop occurrence scanning, explicit edge set."""
    def moves(w):
        out = []
        for l, r in equations:
            for pat, sub in ((l, r), (r, l)):
                if len(w) - len(pat) + len(sub) > cap:
                    continue
                for p in range(len(w) - len(pat) + 1):
                    if w[p:p + len(pat)] == pat:
                        out.append(w[:p] + sub + w[p + len(pat):])
        return out

    seen = set(seeds)
    queue = deque(seeds)
    edges = set()
    while queue:
        w = queue.popleft()
        for w2 in moves(w):
            edges.add((w, w2))
            if w2 not in seen:
                seen.add(w2)
                queue.append(w2)
    return seen, edges


def bfs_distances(edges_by_node, src):
    """Distance from ``src`` to every word it reaches."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        w = queue.popleft()
        for w2 in edges_by_node.get(w, ()):
            if w2 not in dist:
                dist[w2] = dist[w] + 1
                queue.append(w2)
    return dist


def reference_dehn_rows(equations, n_max, cap, seeds=None):
    """Rows from first principles: a BFS per seed for its distances to the
    later seeds, and components recomputed under every length cap for the
    least cap joining each pair.  The seeds default to every word up to
    n_max; given ones must be distinct."""
    if seeds is None:
        seeds = words_up_to("ab", n_max)
    nodes, edges = bfs_graph(equations, seeds, cap)
    by_node = {}
    for a, b in edges:
        by_node.setdefault(a, []).append(b)

    def components(limit):
        label = {}
        for start in nodes:
            if len(start) <= limit and start not in label:
                label[start] = start
                todo = [start]
                while todo:
                    w = todo.pop()
                    for v in by_node.get(w, ()):
                        if len(v) <= limit and v not in label:
                            label[v] = start
                            todo.append(v)
        return label

    labels = [components(limit) for limit in range(cap + 1)]
    pairs = []  # (max length, distance, least cap)
    for i, x in enumerate(seeds):
        dist = bfs_distances(by_node, x)
        for y in seeds[i + 1:]:
            d = dist.get(y)
            if d is not None:
                least = next(c for c, lab in enumerate(labels)
                             if x in lab and y in lab and lab[x] == lab[y])
                pairs.append((max(len(x), len(y)), d, least))
    rows = []
    for n in range(1, n_max + 1):
        mine = [p for p in pairs if p[0] <= n]
        floor = max((len(x) for x in seeds if len(x) <= n), default=0)
        rows.append(DehnSample(n, max((p[1] for p in mine), default=0),
                               max([floor] + [p[2] for p in mine]), len(mine), True))
    return rows


def system(alpha, *rules):
    """A rewriting system over ``alpha`` with the given (lhs, rhs) rules."""
    return rk.RewritingSystem(alpha, tuple(rk.Rule(l, r) for l, r in rules))


@pytest.fixture(scope="session")
def demo_summary():
    tag, params = rk.classify(1, 2, 2, 2)
    summary = rk.certify_family_system(tag, params)
    assert summary.certification == rk.Certification.COMPLETE
    return summary


@pytest.fixture(scope="session")
def demo_system(demo_summary):
    return demo_summary.system


@pytest.fixture(scope="session")
def demo_presentation():
    _, params = rk.classify(1, 2, 2, 2)
    return rk.one_relator_presentation(params)


# Modules that call one of the next two fixtures ``demo`` import it under
# that name.
@pytest.fixture(scope="session")
def certified_demo(demo_summary, demo_presentation):
    """The certified (1,2,2,2) system, its presentation and its params."""
    return demo_summary.system, demo_presentation, demo_summary.params


@pytest.fixture(scope="session")
def demo_schema():
    """The (1,2,2,2) system as build_system writes it, left uncertified."""
    tag, params = rk.classify(1, 2, 2, 2)
    return rk.build_system(tag, params)


@pytest.fixture(scope="session")
def grid_summaries():
    """Certification summaries for every tuple in [1..4]^4, keyed by tuple."""
    out = {}
    for t in GRID:
        tag, params = rk.classify(*t)
        out[t] = rk.certify_family_system(tag, params)
    return out
