"""Golden JSON reports: a fixed command set whose stdout and exit code
must stay byte-for-byte the same.

Each ``tests/golden/<name>.json`` holds the exact stdout of one command.
To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from rewritekit import cli

GOLDEN = Path(__file__).parent / "golden"
DEMO_PRESENTATION = "letters: a b\nab^2a^2b^2 = b\n"
PRES, SYSTEM = "{pres}", "{system}"

# name -> (argv, exit code); PRES and SYSTEM stand for the demo files
COMMANDS = {
    "build_demo": (["build", "--params", "1", "2", "2", "2", "--verify", "--json"], 0),
    "build_case2": (["build", "--params", "2", "2", "3", "2", "--verify", "--json"], 0),
    "grid": (["grid", "--range", "1..2", "--checks",
              "completeness,equivalence,probe,dehn", "--json"], 0),
    "complete_default_order": (["complete", "--presentation", PRES, "--json"], 3),
    "complete_b_first": (["complete", "--presentation", PRES, "--order",
                          "weights: a=1 b=1; precedence: b>a", "--json"], 0),
    "nf": (["nf", "--system", SYSTEM, "a^3b^5a^2b^3ab^2", "--json"], 0),
    "equal_steps": (["equal", "--presentation", PRES, "abbab", "baabb", "--json"], 0),
    "equal_space": (["equal", "--presentation", PRES, "abbab", "baabb",
                     "--space", "--json"], 0),
    "dehn_exhaustive": (["dehn", "--presentation", PRES, "--n", "6", "--json"], 0),
    "dehn_random": (["dehn", "--presentation", PRES, "--n", "6",
                     "--mode", "random:20", "--json"], 0),
    "endo": (["endo", "--params", "1", "2", "2", "2", "--map", "a=a,b=bab",
              "--noninjective-bound", "10", "--json"], 0),
    "hopf_demo": (["hopf-demo", "--json"], 0),
}


def _demo_files(directory: Path) -> dict:
    pres = directory / "m.pres"
    pres.write_text(DEMO_PRESENTATION)
    system = directory / "demo.rs"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["build", "--params", "1", "2", "2", "2",
                         "--out", str(system)]) == 0
    return {PRES: str(pres), SYSTEM: str(system)}


def _run(argv, files) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([files.get(a, a) for a in argv])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def demo_files(tmp_path_factory):
    return _demo_files(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(name, demo_files):
    argv, expected_code = COMMANDS[name]
    code, stdout = _run(argv, demo_files)
    assert code == expected_code
    assert stdout == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":  # re-record every golden file
    with tempfile.TemporaryDirectory() as tmp:
        files = _demo_files(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for name, (argv, expected_code) in sorted(COMMANDS.items()):
            code, stdout = _run(argv, files)
            (GOLDEN / f"{name}.json").write_text(stdout)
            flag = "" if code == expected_code else f" (expected {expected_code})"
            print(f"{name}: exit {code}{flag}", file=sys.stderr)
