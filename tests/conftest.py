import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import rewritekit as rk

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
