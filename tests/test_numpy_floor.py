"""The package runs on the oldest numpy it supports (pyproject.toml: numpy
1.24): its source uses no name that numpy added in 2.0 or later.  The floors
CI job checks this by running on numpy 1.24; this scan checks it on any numpy."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "slmfic"

# names numpy added in 2.0 or later, read on the numpy module and on numpy.linalg
NEW_NAMES = {
    "numpy": frozenset({
        "vecdot", "matrix_transpose", "concat", "permute_dims", "unstack", "astype", "isdtype",
        "pow", "acos", "acosh", "asin", "asinh", "atan", "atanh", "atan2", "bitwise_invert",
        "bitwise_left_shift", "bitwise_right_shift", "unique_all", "unique_counts",
        "unique_inverse", "unique_values", "cumulative_sum", "cumulative_prod", "matvec",
        "vecmat", "bitwise_count",
    }),
    "numpy.linalg": frozenset({
        "vecdot", "matrix_transpose", "matrix_norm", "vector_norm", "svdvals", "diagonal",
        "outer", "cross", "trace", "tensordot", "matmul",
    }),
}
NEW_ATTRIBUTES = frozenset({"mT"})  # ndarray attributes new in numpy 2.0


def numpy2_uses(source: str) -> list[str]:
    """The numpy >= 2.0 names the source reads: np.X and np.linalg.X, names
    imported from numpy or numpy.linalg, and the ndarray attribute mT."""
    tree = ast.parse(source)
    aliases = {}  # local name -> "numpy" or "numpy.linalg"
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name in ("numpy", "numpy.linalg"):
                    aliases[a.asname or a.name.split(".")[0]] = a.name if a.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            for a in node.names:
                if a.name == "linalg" and node.module == "numpy":
                    aliases[a.asname or a.name] = "numpy.linalg"
                elif a.name in NEW_NAMES[node.module]:
                    found.append(f"{node.module}.{a.name}")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in NEW_ATTRIBUTES:
            found.append(f".{node.attr}")
            continue
        chain, base = [node.attr], node.value
        while isinstance(base, ast.Attribute):
            chain.insert(0, base.attr)
            base = base.value
        if not (isinstance(base, ast.Name) and base.id in aliases):
            continue
        module = aliases[base.id]
        if chain[0] == "linalg" and module == "numpy":
            module, chain = "numpy.linalg", chain[1:]
        if len(chain) == 1 and chain[0] in NEW_NAMES[module]:
            found.append(f"{module}.{chain[0]}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_numpy2_only_names(path):
    assert numpy2_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("import numpy as np\nnp.vecdot(a, b)", ["numpy.vecdot"]),
    ("import numpy as np\nnp.linalg.vecdot(a, b)", ["numpy.linalg.vecdot"]),
    ("import numpy\nnumpy.concat([a, b])", ["numpy.concat"]),
    ("from numpy import linalg as la\nla.matrix_transpose(a)", ["numpy.linalg.matrix_transpose"]),
    ("from numpy import permute_dims, unstack", ["numpy.permute_dims", "numpy.unstack"]),
    ("x = a.mT", [".mT"]),
    ("import numpy as np\nnp.concatenate([a]); np.linalg.inv(a); np.outer(a, b); np.trace(a)", []),
    ("import numpy as np\nnp.linalg.outer(a, b)", ["numpy.linalg.outer"]),
    ("other.vecdot(a, b)", []),
    ("import numpy as np\nnp.bitwise_count(masks)", ["numpy.bitwise_count"]),
])
def test_the_scan_finds_numpy2_names(source, found):
    assert numpy2_uses(source) == found
