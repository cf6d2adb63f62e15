"""The README's examples show what the code computes.

The Python block runs as written, and every expression line whose comment
is a literal must evaluate to that literal.  Every line of the CLI block
must parse; the lines up to its last ``# -> result`` line also run through
``cli.main``, in a directory holding the ``m.pres`` the README shows, and
each must succeed, with each ``# ->`` line printing its result.  Every
``--flag`` the READMEs name in an inline code span or on a ``rewritekit``
line is an option of some subcommand.
"""

import argparse
import ast
import re
import shlex
from pathlib import Path

from rewritekit import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_python_example_shows_what_it_computes():
    (source,) = re.findall(r"```python\n(.*?)```", README, re.S)
    lines = source.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            expected = ast.literal_eval(lines[stmt.end_lineno - 1].split("#", 1)[1].strip())
            assert eval(code, namespace) == expected, code
            shown.append(expected)
        else:
            exec(code, namespace)
    assert shown == ["b", 1]


def test_cli_examples_print_what_they_show(tmp_path, monkeypatch, capsys):
    (pres,) = re.findall(r"read `m\.pres`.*?\n```\n(.*?)```", README, re.S)
    (tmp_path / "m.pres").write_text(pres)
    monkeypatch.chdir(tmp_path)
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", README, re.S)
                if b.startswith("rewritekit ")]
    commands = [line.partition("#") for line in block.splitlines()]
    parser = cli.build_parser()
    for command, _, _ in commands:
        parser.parse_args(shlex.split(command)[1:])  # a stale flag exits 2
    last = max(i for i, (_, _, comment) in enumerate(commands) if comment.startswith(" ->"))
    checked = []
    for command, _, comment in commands[:last + 1]:
        assert cli.main(shlex.split(command)[1:]) == 0, command
        out = capsys.readouterr().out
        if comment.startswith(" ->"):
            expected = comment[len(" ->"):].strip()
            assert out.strip() == expected, command
            checked.append(expected)
    assert checked == ["x^2b", "unequal-within-bound"]


def _named_flags(text):
    """The ``--flags`` on each fenced ``rewritekit`` line and in each inline
    code span outside the fences; other fenced lines (``pip …``) are not
    about the CLI."""
    prose, fenced, in_fence = [], [], False
    for line in text.splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
        elif not in_fence:
            prose.append(line)
        elif line.startswith("rewritekit "):
            fenced.append(line)
    code = fenced + re.findall(r"`([^`]+)`", "\n".join(prose))
    return {flag for span in code for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", span)}


def test_readmes_name_no_flag_the_cli_lacks():
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = {flag for sub in commands.choices.values()
               for flag in sub._option_string_actions}
    for readme in (ROOT / "README.md", ROOT / "docs" / "dehn" / "README.md"):
        flags = _named_flags(readme.read_text())
        assert "--json" in flags, readme  # the scan sees the flags
        assert flags <= options, (readme, sorted(flags - options))
