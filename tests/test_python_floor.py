"""The package runs on the oldest Python it supports (pyproject.toml:
requires-python >= 3.10): its source parses with the 3.10 grammar and reads no
standard-library name added in 3.11 or later.  The floors CI job checks this by
running on Python 3.10; this scan checks it on any Python."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "slmfic"
FLOOR = (3, 10)

NEW_MODULES = frozenset({"tomllib"})  # standard-library modules new in 3.11 or later
# names new in 3.11 or later, read on their module or imported from it
NEW_NAMES = {
    "typing": frozenset({"Self", "LiteralString", "Never", "assert_never", "reveal_type",
                         "Required", "NotRequired", "TypeVarTuple", "Unpack", "override"}),
    "enum": frozenset({"StrEnum", "verify", "EnumCheck", "ReprEnum"}),
    "datetime": frozenset({"UTC"}),
    "math": frozenset({"cbrt", "exp2"}),
    "itertools": frozenset({"batched"}),
    "contextlib": frozenset({"chdir"}),
    "hashlib": frozenset({"file_digest"}),
    "operator": frozenset({"call"}),
}
NEW_BUILTINS = frozenset({"ExceptionGroup", "BaseExceptionGroup"})


def py311_uses(source: str) -> list[str]:
    """The standard-library names new in Python 3.11 or later that the source
    reads: imports of a new module, module.X and names imported from a
    module, and the new builtins.  The source must parse with the 3.10
    grammar (SyntaxError otherwise)."""
    tree = ast.parse(source, feature_version=FLOOR)
    aliases = {}  # local name -> module of NEW_NAMES
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] in NEW_MODULES:
                    found.append(a.name)
                elif a.name in NEW_NAMES:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in NEW_MODULES:
                found.append(node.module)
            elif node.module in NEW_NAMES:
                found += [f"{node.module}.{a.name}" for a in node.names
                          if a.name in NEW_NAMES[node.module]]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in NEW_BUILTINS:
            found.append(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.attr in NEW_NAMES.get(aliases.get(node.value.id), ())):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_python311_only_names(path):
    assert py311_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("import tomllib\ntomllib.loads(s)", ["tomllib"]),
    ("from tomllib import loads", ["tomllib"]),
    ("from typing import Self, Any", ["typing.Self"]),
    ("import typing as t\ndef f(self) -> t.Self: ...", ["typing.Self"]),
    ("import enum\nclass K(enum.StrEnum): ...", ["enum.StrEnum"]),
    ("from datetime import UTC", ["datetime.UTC"]),
    ("import datetime\ndatetime.UTC", ["datetime.UTC"]),
    ("import math\nmath.cbrt(x)", ["math.cbrt"]),
    ("from itertools import batched\nfor chunk in batched(xs, 3): pass", ["itertools.batched"]),
    ("import itertools\nitertools.batched(xs, 3)", ["itertools.batched"]),
    ("raise ExceptionGroup('m', [e])", ["ExceptionGroup"]),
    ("import math, itertools\nmath.sqrt(x); itertools.pairwise(xs); other.batched(xs)", []),
    ("from typing import Any\nfrom . import io", []),
])
def test_the_scan_finds_python311_names(source, found):
    assert py311_uses(source) == found


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "type Vector = list[float]\n",
    "def first[T](xs: list[T]) -> T: ...\n",
], ids=["except-star", "type-alias", "type-parameters"])
def test_the_parse_rejects_newer_syntax(source):
    with pytest.raises(SyntaxError):
        py311_uses(source)
