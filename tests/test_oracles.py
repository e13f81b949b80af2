"""The test oracles must not call the code they check."""

import ast
from pathlib import Path

# the spec classes describe the input; the quadrature engine is a generic tool
ALLOWED = {"spantor.graphs": {"CirculantSpec", "TorusSpec", "GraphSpec"},
           "spantor.quadrature": None}


def test_oracles_import_only_specs_and_quadrature_from_spantor():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported += [(node.module, alias.name) for alias in node.names]
    spantor = [(module, name) for module, name in imported
               if module == "spantor" or module.startswith("spantor.")]
    assert spantor, "the oracles no longer import the spec classes"
    for module, name in spantor:
        assert module in ALLOWED, f"oracles import {name or module} from {module}"
        names = ALLOWED[module]
        assert name is not None and (names is None or name in names), \
            f"oracles import {name or module} from {module}"
