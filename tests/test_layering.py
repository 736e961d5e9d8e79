"""Only the discretization layer touches the raw P1 tables of a level.

Every other module evaluates P1 functions through the level operators
(``grad_op``, ``qp_op`` and their transposes), ``nodal_samples`` or
``point_operators``, and none scatters coefficients onto nodes.
"""

import ast
from pathlib import Path

import competefem

RAW = {"elem_nodes", "grad_basis", "basis_at_qp", "einsum",
       "free", "free_of_node", "_free_operator"}


def test_raw_tables_and_einsum_only_in_discretization():
    offenders = []
    for path in sorted(Path(competefem.__file__).parent.glob("*.py")):
        if path.name == "discretization.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]  # getattr(lvl, "elem_nodes")
            else:
                continue
            offenders += [f"{path.name}:{getattr(node, 'lineno', '?')} {n}"
                          for n in names if n in RAW]
    assert offenders == []
