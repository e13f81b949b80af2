"""The test oracles must not call the code they check."""

import ast
from pathlib import Path

# the spec classes describe the input; the Mellin engine is a generic tool,
# while the periodic rule computes the lead terms the oracles check
ALLOWED = {"spantor.graphs": {"CirculantSpec", "TorusSpec", "GraphSpec"},
           "spantor.quadrature": {"IntegralResult", "QuadratureConfig", "QuadratureError",
                                  "integrate_mellin"}}


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
        assert name in ALLOWED[module], f"oracles import {name or module} from {module}"
