"""Source rules: no check may live in an ``assert`` statement, because
``python -O`` strips them; and the two sides of a hierarchy case stay
independent evaluators."""

import ast
from pathlib import Path

import qcap

PACKAGE = Path(qcap.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _tree(name):
    path = PACKAGE / name
    return ast.parse(path.read_text(), str(path))


def test_identities_imports_nothing_from_bailey():
    found = []
    for node in ast.walk(_tree("identities.py")):
        if isinstance(node, ast.ImportFrom):
            if node.module == "qcap.bailey" or (
                    node.module in ("qcap", None) and any(a.name == "bailey" for a in node.names)):
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name == "qcap.bailey" for a in node.names):
                found.append(node.lineno)
    assert not found, found


def test_bailey_names_no_direct_expansion_helper():
    # the generator is the cross-oracle of the directly expanded multi-sums
    banned = {"hierarchy_finite_lhs", "hierarchy_limit_lhs", "hierarchy_chain_exponent",
              "index_vectors", "suffix_sums"}
    found = []
    for node in ast.walk(_tree("bailey.py")):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in banned:
            found.append(name)
    assert not found, found
