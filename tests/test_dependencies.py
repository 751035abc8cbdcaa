"""Every third-party module the library imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _top_level_imports(path: Path) -> set[str]:
    """First components of the absolute imports in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_third_party_import_is_a_declared_dependency():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9._-]+", requirement).group().lower().replace("-", "_")
        for requirement in project["dependencies"]
    }
    sources = sorted((ROOT / "src" / "cryptoherm").rglob("*.py"))
    imported = set().union(*map(_top_level_imports, sources))
    third_party = imported - set(sys.stdlib_module_names) - {"cryptoherm"}
    assert third_party <= declared, sorted(third_party - declared)
    assert {"numpy", "orjson"} <= third_party
