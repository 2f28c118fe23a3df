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


def test_center_reads_the_tables_only_through_class_product():
    # every character-route fault test patches characters.class_product; a
    # center read of any other table accessor would bypass those tests.
    # characters is imported once, as ch, and only its attributes are read
    tree = ast.parse((PACKAGE / "center.py").read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name, alias.asname)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert [i for i in imports if "characters" in i[:2]] == [(None, "characters", "ch")]
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ch"
    }
    assert read == {"class_product", "has_character_table"}
