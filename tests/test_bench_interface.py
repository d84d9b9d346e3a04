"""The benchmark finds every name it uses in slmfic: the tracer's layers
(perfbench/spans.py) and what the workloads read (perfbench/workloads.py)."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer", load_layers(), ids=lambda layer: layer[0])
def test_traced_name_resolves(layer):
    _name, module, attr, _kind = layer
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def workload_reads():
    """(module, dotted attribute) of every slmfic name workloads.py reads:
    each attribute chain on a module it imports from slmfic (slm.Theta.from_vector
    gives ("slmfic.slm", "Theta.from_vector") and ("slmfic.slm", "Theta")), and
    each name it imports from one."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname, a.name) if a.asname else ("slmfic", "slmfic")
                           for a in node.names if a.name.split(".")[0] == "slmfic")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "slmfic":
            reads.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            reads.add((modules[node.id], ".".join(chain)))
    return sorted(reads)


def test_workload_reads_are_found():
    reads = workload_reads()
    for read in [("slmfic.slm", "observed_info"), ("slmfic.slm", "Theta.from_vector"),
                 ("slmfic.fic", "delta_hat"), ("slmfic.safic", "rho_beta_blocks"),
                 ("slmfic.safic", "pointwise_risk"), ("slmfic.io", "write_report"),
                 ("slmfic.focus", "FocusSpec")]:
        assert read in reads


@pytest.mark.parametrize("module, attr", workload_reads(), ids=lambda x: x)
def test_workload_read_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
