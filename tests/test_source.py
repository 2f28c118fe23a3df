import ast
from pathlib import Path

import wreathcenter

PACKAGE = Path(wreathcenter.__file__).parent


def test_no_assert_statements_in_package():
    # invariants must raise InvariantViolation: `assert` vanishes under python -O
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_divmod_is_in_exact_quotient():
    # a remainder is tested in one place, errors.exact_quotient, so every
    # exact division raises the same way
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "divmod":
                found.append(f"{where}:{child.lineno}")
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    assert [place.partition(":")[0] for place in found] == ["errors.exact_quotient"], found
