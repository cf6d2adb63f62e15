"""Seeded fuzz of the command line: any argv drawn from a small grammar of
valid and malformed tokens ends in a documented exit code (0 success, 1
check failure, 2 usage error, 3 budget exhaustion) and never raises.

Budgets stay small (at most 1,000 oracle nodes and 1,000 fuel, ranges
inside 1..2, --n at most 4, --max-steps at most 50), so no drawn argv
starts a long search.
"""

import contextlib
import io

import pytest
from hypothesis import Phase, given, settings, strategies as st

from rewritekit import cli

HUGE = "9" * 20  # an exponent past sys.maxsize
EXPONENTS = ("1", "2", "0", "-1", "x", HUGE)
WORDS = ("ab^2", "b", "1", "", "x^2b", "a^0", "a^", "z", "^2", "abbab")
PRESENTATIONS = {
    "demo.pres": "letters: a b\nab^2a^2b^2 = b\n",
    "free.pres": "letters: a b\n",
    "hash.pres": "letters: a #\n#a = a\n",
    "bad.pres": "ab = b\n",
    "loose.pres": "letters: a b\nab b\n",
}
SYSTEMS = {
    "demo.rs": "letters: a b x\nax^2b -> x\nab -> x^2\nx^2bx -> b\nx^2b^2 -> bxbx\n",
    "loop.rs": "letters: a b\nab -> ba\nba -> ab\n",
    "bad.rs": "letters: a b\nb -> b\n",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in {**PRESENTATIONS, **SYSTEMS}.items():
        (root / name).write_text(text)
    return root


def _option(name, good, bad=(), optional=True):
    """``name`` followed by one value, or (when ``optional``) nothing; a
    valid value is drawn three times as often as a malformed one."""
    values = [str(v) for v in good] * 3 + [str(v) for v in bad]
    given = st.sampled_from(values).map(lambda v: [name, v])
    return st.one_of(st.just([]), given) if optional else given


def _flag(name):
    return st.sampled_from(([], [name]))


def _budgets(nodes=False, fuel=True):
    """The budget options a command takes; node and fuel budgets are always
    given, since their defaults allow long searches."""
    parts = [_flag("--json")]
    if nodes:
        parts.append(_option("--nodes", (1, 10, 1000), (0,), optional=False))
    if fuel:
        parts.append(_option("--fuel", (1, 50, 1000), (-3,), optional=False))
    return parts


def _argv(files):
    pres = st.sampled_from([str(files / n) for n in PRESENTATIONS] + ["missing.pres"])
    system = st.sampled_from([str(files / n) for n in SYSTEMS] + [str(files)])
    good_params = st.lists(st.sampled_from(("1", "2")), min_size=4, max_size=4)
    bad_params = st.lists(st.sampled_from(EXPONENTS), min_size=3, max_size=5)
    # four exponents, most often one or more of them past sys.maxsize
    huge_params = st.lists(st.sampled_from(("1", "2", HUGE)), min_size=4, max_size=4)
    params = st.one_of(good_params, good_params, good_params, bad_params, huge_params)
    out = _option("--out", (str(files / "out.txt"),), (str(files),))
    word = st.sampled_from(WORDS)
    ranges = (("1..2", "1", "2"), ("0..1", "2..1", "x", "1..2..3", f"1..{HUGE}"))
    commands = {
        "build": [params.map(lambda p: ["--params", *p]), _flag("--verify"), out,
                  *_budgets(nodes=True)],
        "grid": [_option("--range", *ranges, optional=False),
                 *(_option(f"--{name}", *ranges) for name in ("alpha", "beta", "gamma", "delta")),
                 _option("--checks", ("completeness", "equivalence", "probe", "dehn",
                                      "completeness,equivalence,probe,dehn"), ("bogus", "")),
                 _option("--max-rules", (1, 20), (0,)), _option("--max-steps", (1, 50), (-1,)),
                 _option("--dehn-n", (1, 4), (0,)), out,
                 *_budgets(nodes=True)],
        "complete": [pres.map(lambda p: ["--presentation", p]),
                     _option("--order", ("weights: a=1 b=1; precedence: a>b",
                                         "weights: a=1 b=2; precedence: b>a"),
                             ("weights: a=1; precedence: a", "a>b",
                              "weights: a=0 b=1; precedence: b>a")),
                     _option("--max-rules", (1, 20), (0,)), _option("--max-steps", (1, 50), (-1,)),
                     out, *_budgets()],
        "nf": [system.map(lambda p: ["--system", p]), word.map(lambda w: [w]), *_budgets()],
        "equal": [pres.map(lambda p: ["--presentation", p]), word.map(lambda w: [w]),
                  word.map(lambda w: [w]), _option("--bound", (1, 12), (0,)), _flag("--space"),
                  *_budgets(nodes=True, fuel=False)],
        "dehn": [pres.map(lambda p: ["--presentation", p]), _option("--n", (1, 4), (0, "x")),
                 _option("--mode", ("exhaustive", "random:3"), ("random:x", "bogus")),
                 _option("--slack", (0, 2), (-1,)), _option("--seed", (0, 7)),
                 *_budgets(nodes=True, fuel=False)],
        "endo": [params.map(lambda p: ["--params", *p]),
                 _option("--map", ("a=a,b=bab", "a=a,b=1", "a=a,b="),
                         ("a=a", "a=z,b=b", "garbage", "a=a,b=b,x=a")),
                 _option("--surjective-bound", (1, 3), (0,)),
                 _option("--noninjective-bound", (1, 4), (0,)),
                 *_budgets()],
        "hopf-demo": _budgets(),
    }
    stray = st.sampled_from([[]] * 9 + [["--bogus"], ["extra"], ["-h"]])
    return st.sampled_from(sorted(commands)).flatmap(lambda name: st.tuples(
        st.just([name]), *commands[name], stray)).map(lambda parts: sum(parts, []))


# no explain phase: on a failure it re-runs variations of the argv for minutes
@settings(max_examples=400, phases=(Phase.generate, Phase.shrink))
@given(st.data())
def test_any_argv_ends_in_a_documented_exit_code(files, data):
    argv = data.draw(_argv(files), label="argv")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
