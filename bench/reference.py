"""The benchmark's own computations, written without rewritekit's code.

Every output check compares the library against these functions or
against a property the method must have.  Nothing here imports
rewritekit: rules are plain ``(lhs, rhs)`` string pairs, equations are
``(lhs, rhs)`` pairs, and an order is a weight map plus a greatest-first
precedence.
"""

from __future__ import annotations

from collections import deque
from itertools import product


def order_key(weights, precedence, word):
    """Weighted shortlex key: total weight, then length, then the letters
    compared left to right, a letter earlier in ``precedence`` being
    greater.  Keys compare like the words they belong to."""
    greatness = {c: len(precedence) - i for i, c in enumerate(precedence)}
    return (sum(weights[c] for c in word), len(word), [greatness[c] for c in word])


def misoriented(rules, weights, precedence):
    """The rules whose lhs is not strictly greater than their rhs."""
    return [(l, r) for l, r in rules
            if not order_key(weights, precedence, l) > order_key(weights, precedence, r)]


def reduce_word(rules, word, max_steps=10**6):
    """Normal form by a stack machine: letters move from the input to the
    output one at a time, and whenever a lhs ends the output it is
    replaced by pushing its rhs back onto the input.  On a complete
    system the result is the unique normal form whatever the strategy."""
    by_last = {}
    for lhs, rhs in rules:
        by_last.setdefault(lhs[-1], []).append((lhs, rhs))
    out: list[str] = []
    pending = list(reversed(word))
    steps = 0
    while pending:
        out.append(pending.pop())
        for lhs, rhs in by_last.get(out[-1], ()):
            n = len(lhs)
            if len(out) >= n and "".join(out[-n:]) == lhs:
                del out[-n:]
                pending.extend(reversed(rhs))
                steps += 1
                if steps > max_steps:
                    raise RuntimeError(f"no normal form within {max_steps} steps")
                break
    return "".join(out)


def is_irreducible(rules, word):
    return not any(lhs in word for lhs, _ in rules)


def words_up_to(letters, max_length):
    """Every word over ``letters`` of length 0..max_length."""
    out = []
    for n in range(max_length + 1):
        out.extend("".join(t) for t in product(letters, repeat=n))
    return out


def partition(rules, words):
    """Group ``words`` by normal form: a sorted tuple of sorted classes."""
    classes = {}
    for w in words:
        classes.setdefault(reduce_word(rules, w), []).append(w)
    return tuple(sorted(tuple(sorted(c)) for c in classes.values()))


def equal_pair_counts(rules, letters, n_max):
    """For n = 1..n_max, the number of unordered pairs of distinct words of
    length <= n that share a normal form."""
    class_size_at = {}
    counts = []
    total = 0
    for n in range(n_max + 1):
        for t in product(letters, repeat=n):
            nf = reduce_word(rules, "".join(t))
            size = class_size_at.get(nf, 0)
            total += size  # the new word pairs with every earlier class member
            class_size_at[nf] = size + 1
        if n:
            counts.append(total)
    return counts


def apply_once(equations, word, eq_index, direction, pos):
    """The word after one application, or None if it does not apply there."""
    lhs, rhs = equations[eq_index]
    if direction == "rl":
        lhs, rhs = rhs, lhs
    elif direction != "lr":
        return None
    if pos < 0 or word[pos:pos + len(lhs)] != lhs:
        return None
    return word[:pos] + rhs + word[pos + len(lhs):]


def chain_problems(equations, start, end, chain, applications, d, s):
    """Why a derivation x = w0 ~ ... ~ wk = y does not replay, or []."""
    problems = []
    if not chain or chain[0] != start or chain[-1] != end:
        problems.append(f"chain does not join {start!r} and {end!r}")
        return problems
    if len(applications) != len(chain) - 1 or d != len(applications):
        problems.append("step count disagrees with the chain")
    if s != max(len(w) for w in chain):
        problems.append("space disagrees with the chain")
    for i, (eq_index, direction, pos) in enumerate(applications[:len(chain) - 1]):
        if not 0 <= eq_index < len(equations):
            problems.append(f"step {i} names no equation")
            break
        if apply_once(equations, chain[i], eq_index, direction, pos) != chain[i + 1]:
            problems.append(f"step {i} is not one application of a relation")
            break
    return problems


def neighbours(equations, word, cap):
    """Every word one relation application away, within the length cap."""
    out = set()
    for lhs, rhs in equations:
        for pat, sub in ((lhs, rhs), (rhs, lhs)):
            if len(word) - len(pat) + len(sub) > cap:
                continue
            for p in range(len(word) - len(pat) + 1):
                if word.startswith(pat, p):
                    out.add(word[:p] + sub + word[p + len(pat):])
    out.discard(word)
    return out


def dehn_space_table(equations, letters, n_max, cap):
    """Exhaustive Dehn and space values, rows n = 1..n_max, as
    ``[(n, d_n, sp_n, pairs_n)]``.

    The graph holds every word within ``cap`` reachable from a seed of
    length <= n_max.  d is the largest graph distance of a connected seed
    pair; sp is the largest least cap under which a pair connects, found
    by recomputing components for each cap in turn (trivial pairs need
    their own length); pairs counts connected unordered seed pairs.
    """
    seeds = [w for w in words_up_to(letters, n_max) if w]
    adj = {}
    queue = deque(seeds)
    for s in seeds:
        adj[s] = None
    while queue:
        w = queue.popleft()
        nbrs = neighbours(equations, w, cap)
        adj[w] = nbrs
        for v in nbrs:
            if v not in adj:
                adj[v] = None
                queue.append(v)

    def components(limit):
        label = {}
        for start in adj:
            if len(start) > limit or start in label:
                continue
            label[start] = start
            todo = [start]
            while todo:
                w = todo.pop()
                for v in adj[w]:
                    if len(v) <= limit and v not in label:
                        label[v] = start
                        todo.append(v)
        return label

    full = components(cap)
    groups = {}
    for s in seeds:
        groups.setdefault(full[s], []).append(s)
    least_cap = {}
    for limit in range(cap, 0, -1):
        label = components(limit)
        for members in groups.values():
            for i, x in enumerate(members):
                for y in members[i + 1:]:
                    if x in label and y in label and label[x] == label[y]:
                        least_cap[(x, y)] = limit
    dist = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        for x in members:
            seen = {x: 0}
            todo = deque([x])
            while todo:
                w = todo.popleft()
                for v in adj[w]:
                    if v not in seen:
                        seen[v] = seen[w] + 1
                        todo.append(v)
            for y in members:
                if y != x:
                    dist[(x, y)] = seen[y]
    rows = []
    for n in range(1, n_max + 1):
        d = sp = pairs = 0
        for (x, y), c in least_cap.items():
            if max(len(x), len(y)) <= n:
                pairs += 1
                d = max(d, dist[(x, y)])
                sp = max(sp, c)
        rows.append((n, d, max(sp, n), pairs))
    return rows


def substitute(images, word):
    return "".join(images[c] for c in word)
