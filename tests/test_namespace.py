"""The package's public surface: what `slmfic` exports, and no public function
in src/ that only the tests call."""

import ast
import re
import types
from pathlib import Path

import slmfic

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(slmfic.__file__).resolve().parent

EXPORTS = {
    "CriterionSpec", "Dataset", "FicRow", "FisherInfo", "FitResult", "FocusSpec",
    "MoranResult", "PsiWeights", "RunReport", "SimConfig", "SpatialWeights", "SubmodelId",
    "Theta", "aic", "build_chain_lag1", "build_weights", "default_criteria",
    "enumerate_submodels", "fic_score", "fic_table", "fic_terms", "fit_mle",
    "generate_dataset", "median_bandwidth", "monte_carlo", "morans_i",
    "psi_kernel", "psi_uniform", "safic_score", "safic_table",
}


def public_functions(tree):
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def references(tree, by_string=False):
    """Names and attributes read anywhere in tree, except a top-level
    function's reads of its own name; with by_string, also each part of a
    string that is a dotted name, as perfbench/spans.py names what it patches."""
    found = set()
    for node in tree.body:
        reads = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                reads.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                reads.add(sub.attr)
            elif (by_string and isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                  and re.fullmatch(r"\w+(\.\w+)*", sub.value)):
                reads.update(sub.value.split("."))
        if isinstance(node, ast.FunctionDef):
            reads.discard(node.name)
        found |= reads
    return found


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_function_has_a_caller_outside_the_tests():
    """Each module-level public function of src/ is read somewhere other than
    its own def: elsewhere in src/, or by the benchmark in perfbench/.  A
    function only the tests call is a test oracle and belongs in tests/."""
    modules = [parse(path) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    defined = set().union(*(public_functions(tree) for tree in modules))
    read = set().union(*(references(tree) for tree in modules),
                       *(references(parse(path), by_string=True)
                         for path in sorted((ROOT / "perfbench").glob("*.py"))))
    assert sorted(defined - read) == []


def test_the_package_exports_the_pinned_names():
    public = {name for name, value in vars(slmfic).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTS
    assert len(EXPORTS) == 30


def test_only_the_weights_read_the_spectrum():
    """SpatialWeights.spectrum may be complex, and the sums over it that the
    model reads are the real parts SpatialWeights' own methods return.  So no
    module of src/ but weights.py reads `.spectrum`: a new reader goes through
    a SpatialWeights method."""
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "weights.py":
            continue
        for node in parse(path).body:
            if any(isinstance(sub, ast.Attribute) and sub.attr == "spectrum"
                   for sub in ast.walk(node)):
                readers.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert readers == set()


def test_only_the_risk_kernel_scores_subsets():
    """FIC and sAFIC score their subsets through one kernel, fic._risk_terms,
    which borders each subset's Cholesky factor from its parent's with
    fic._border: no other top-level function or method of src/ calls
    _border, and the one that loops over slm._size_groups calling a solve is
    slm._regressions, the profile regressions of the fits.  A second scoring
    engine goes through the kernel instead."""
    solvers, borderers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, ast.FunctionDef)]
        for name, node in defs:  # a nested function counts as its enclosing one
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call)
                        and "_border" in (getattr(sub.func, "id", None),
                                          getattr(sub.func, "attr", None))):
                    borderers.add(f"{path.stem}.{name}")
                if (isinstance(sub, ast.For) and isinstance(sub.iter, ast.Call)
                        and getattr(sub.iter.func, "id", None) == "_size_groups"
                        and any(isinstance(part, ast.Attribute) and part.attr == "solve"
                                for part in ast.walk(sub))):
                    solvers.add(f"{path.stem}.{name}")
    assert solvers == {"slm._regressions"}
    assert borderers == {"fic._risk_terms"}
