import ast
import re
from importlib import import_module
from pathlib import Path

import pytest

import wreathcenter
from wreathcenter import blockperm as bp
from wreathcenter import errors, families
from wreathcenter import kpartial as kp

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


def test_center_reads_the_tables_only_through_level_terms_and_has_character_table():
    # every character-route fault test patches characters.level_terms, the
    # one reader of the packed sum, which both character routes call; a
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
    assert read == {"level_terms", "has_character_table"}


def test_only_immutable_refuses_writes_and_only_of_sets_slots():
    # one base class refuses every write and del, and each value type sets its
    # slots through object.__setattr__ in one unchecked constructor, `_of`.
    # Immutable writes `_of`, equality, hashing and pickling once for every value
    # type; only the interned PartitionFamily has its own `_of`, pickling and
    # identity equality, and ClassSumVector its order-free equality
    guards, setters, defined = [], [], {}

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                names = []
                for item in child.body:
                    if isinstance(item, ast.FunctionDef):
                        names.append(item.name)
                    elif isinstance(item, ast.Assign):
                        for target in item.targets:
                            elts = target.elts if isinstance(target, ast.Tuple) else [target]
                            names += [elt.id for elt in elts if isinstance(elt, ast.Name)]
                for name in names:
                    defined.setdefault(name, []).append(child.name)
                guards.extend(f"{child.name}.{name}" for name in names if name in ("__setattr__", "__delattr__"))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "__setattr__"
                and getattr(child.func.value, "id", None) == "object"
            ):
                setters.append((function, child.lineno))
            visit(child, function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    assert sorted(guards) == ["Immutable.__delattr__", "Immutable.__setattr__"]
    assert setters and all(function == "_of" for function, _ in setters), setters
    for name in ("_of", "__reduce__"):
        assert sorted(defined[name]) == ["Immutable", "PartitionFamily"], name
    for name in ("__eq__", "__hash__"):
        assert sorted(defined[name]) == ["ClassSumVector", "Immutable", "PartitionFamily"], name


# every name the package exports, by the module it lives in
PUBLIC = {
    "blockperm": [
        "BlockPermutation",
        "class_representative",
        "conjugate",
        "cycle_type",
        "enumerate_class",
        "enumerate_group",
        "group_order",
        "is_block_permutation",
    ],
    "center": [
        "ClassSumVector",
        "PolynomialStructure",
        "multiply_group",
        "multiply_universal",
        "polynomial_structure",
        "project",
    ],
    "characters": [
        "dim_irrep",
        "hyperoct_character",
        "shifted_power_sum_eval",
        "sym_character",
        "verify_iso",
    ],
    "errors": [
        "BudgetExceeded",
        "DimensionMismatch",
        "DomainNotCovered",
        "InvariantViolation",
        "NotContained",
        "NotProper",
        "SizeMismatch",
        "TooSmall",
        "WreathError",
    ],
    "families": [
        "PartitionFamily",
        "big_z",
        "class_size",
        "families_with_size",
        "format_family",
        "pad_family",
        "parse_family",
    ],
    "kpartial": [
        "KPartialPermutation",
        "act",
        "count_all",
        "enumerate_kpartial",
        "extend",
        "kp_type",
        "partial_class_size",
        "product",
        "support",
        "universal_class_members",
    ],
    "partitions": [
        "format_partition",
        "is_proper",
        "pad_to",
        "parse_partition",
        "partitions_of",
        "subtract",
        "union",
        "z_of",
    ],
}


def test_every_public_name_loads_as_the_object_of_its_module():
    # the namespace imports a name's module on first use; each name, read
    # through the package, a star import or the lazy lookup itself, is the
    # object its module holds, and each submodule is reachable as before
    star = {}
    exec("from wreathcenter import *", star)
    for module_name, names in PUBLIC.items():
        module = import_module(f"wreathcenter.{module_name}")
        assert wreathcenter.__getattr__(module_name) is module
        for name in names:
            home = getattr(module, name)
            assert getattr(wreathcenter, name) is home, name
            assert wreathcenter.__getattr__(name) is home, name
            assert star[name] is home, name
    assert set(wreathcenter.__all__) == {name for names in PUBLIC.values() for name in names}
    assert set(wreathcenter.__all__) <= set(wreathcenter.__dir__())
    with pytest.raises(AttributeError, match="no_such_name"):
        wreathcenter.no_such_name
    assert not hasattr(wreathcenter, "no_such_name")
    # the moved names are one object wherever they are read
    assert bp.DEFAULT_BUDGET is errors.DEFAULT_BUDGET
    assert kp.partial_class_size is families.partial_class_size


def test_readme_lists_every_memo_with_the_reason_it_is_kept():
    # a memo is a function decorated with functools.cache or lru_cache, or a
    # module-level dict that starts empty; each has its row in README "What a
    # process keeps", and each row names the reader that makes it pay
    memos = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if getattr(target, "id", getattr(target, "attr", None)) in ("cache", "lru_cache"):
                        memos.add(f"{path.stem}.{node.name}")
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict) and not node.value.keys:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                memos.update(f"{path.stem}.{target.id}" for target in targets)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## What a process keeps", 1)[1].split("\n## ", 1)[0]
    # cells split at the pipes that are not escaped as \|
    rows = [re.split(r"(?<!\\)\|", line.strip()[1:-1]) for line in section.splitlines() if line.startswith("| `")]
    listed = [name for cells in rows for name in re.findall(r"`([\w.]+)`", cells[0])]
    assert len(listed) == len(set(listed)), listed
    assert set(listed) == memos
    assert all(len(cells) == 5 and cells[4].strip() for cells in rows), rows
