"""Every layer the benchmark traces still exists under its name.

``bench/tracing.py`` wraps the functions named in its SPANNED and COUNTED
tables by module attribute; a refactor that renames or removes one of them
fails here instead of in a traced benchmark run.  The tables are read from
the file's source, so the benchmark code is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names() -> dict:
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                    tables[target.id] = ast.literal_eval(node.value)
    return tables


TABLES = _traced_names()


def test_both_tables_are_read():
    assert set(TABLES) == {"SPANNED", "COUNTED"}
    assert all(TABLES.values())


@pytest.mark.parametrize("module, name",
                         [pair for table in TABLES.values() for pair in table])
def test_traced_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"rewritekit.{module}"), name, None))
