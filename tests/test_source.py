"""Source rules: no check may live in an ``assert`` statement, because
``python -O`` strips them."""

import ast
from pathlib import Path

import qcap


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(qcap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
