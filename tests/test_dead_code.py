"""Static scans of the source, by stdlib ``ast`` and ``tokenize`` since
neither pyflakes nor ruff is a dependency: no module imports a name it
never uses, no module-level name of the package is left without a user,
and every module of the package parses under the oldest grammar that
``pyproject.toml`` declares."""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "rewritekit"


def test_no_unused_imports():
    # __init__.py is exempt, as its imports are re-exports
    unused = []
    for path in sorted([*(ROOT / "tests").glob("*.py"), *PACKAGE.glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", "") != "__future__"):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _used_words(text: str):
    """The words of a module's code and string literals; a comment or a
    docstring that names something is not a use of it."""
    docstrings = {(n.body[0].lineno, n.body[0].col_offset) for n in ast.walk(ast.parse(text))
                  if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef))
                  and n.body and isinstance(n.body[0], ast.Expr)
                  and isinstance(n.body[0].value, ast.Constant)
                  and isinstance(n.body[0].value.value, str)}
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type != tokenize.COMMENT and not (token.type == tokenize.STRING
                                                   and token.start in docstrings):
            yield from re.findall(r"\w+", token.string)


def test_no_dead_names():
    # a module-level function, class or constant of the package (dunder
    # names exempt) whose name occurs, as a whole word, nowhere in the code
    # or string literals of the .py files of src/, tests/ or bench/ but at
    # its definition
    words = Counter(word for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")
                    for word in _used_words(p.read_text()))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if words[name] < 2 and not (name.startswith("__") and name.endswith("__")):
                    dead.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert not dead, "names nothing uses:\n" + "\n".join(dead)


def test_package_parses_under_the_declared_python_floor():
    """Every package module parses under the grammar of the oldest Python
    that ``requires-python`` admits (3.10).  This checks syntax only: a
    stdlib function or module that the floor lacks still passes."""
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    assert floor, "pyproject.toml declares no requires-python floor"
    version = tuple(map(int, floor.groups()))
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
