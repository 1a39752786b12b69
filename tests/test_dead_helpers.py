"""Every private module-level name in permbound is referred to somewhere in
it, and only in the module that defines it; every public function and class
has a caller outside the tests; only `matcore` multiplies matrices with
the `@` operator, so one guard decides when a product stands in for a sum;
only `matcore.is_int` decides what an integer argument is; and no module
enumerates permutations with `itertools.permutations`: the sums over
orderings (the tensor permanent, the cycle sums) run over subsets.

A function, class or constant whose name starts with one underscore is
internal to its module in `src/permbound`: once no module there refers to
it, it is dead code, and no other module imports it.  No linter ships with
the test dependencies, so each module is parsed with `ast`: a name read
anywhere, an attribute name and a name imported from a module all count as
references.

A public function or class is one the package exports.  It is used when
the package itself, a script or a benchmark module reads it by name or as
an attribute outside its own definition; an import alone, such as the
re-export in `__init__.py`, does not count.  Code only the tests call
belongs in `tests/`, next to the oracles.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "permbound"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private names bound at module level, with their line numbers."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read and attribute names anywhere in tree, outside the subtree skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def references(tree: ast.Module) -> set[str]:
    """reads(tree) and every name imported from a module."""
    imported = (alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names)
    return reads(tree) | set(imported)


def dead_helpers(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*map(references, trees.values()))
    return sorted(
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in used
    )


def test_every_private_helper_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_helpers(sources) == []


def test_dead_helper_is_reported():
    sources = {
        "a.py": "def _kept():\n    pass\n\n\ndef _dead():\n    pass\n\n\n_A, _B = 1, 2\n",
        "b.py": "from .a import _kept\n\nx = _A\n",
    }
    assert dead_helpers(sources) == ["a.py: _B (line 9)", "a.py: _dead (line 5)"]


def private_imports(sources: dict[str, str]) -> list[str]:
    """Private names one package module imports from another (`from .x import _y`)."""
    return sorted(
        f"{module}: {alias.name} from {'.' * node.level}{node.module or ''} (line {node.lineno})"
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "permbound")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )


def test_no_module_imports_a_private_name():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert private_imports(sources) == []


def test_private_import_is_reported():
    sources = {
        "a.py": "from __future__ import annotations\n\nfrom .b import _helper, kept\n",
        "b.py": "from permbound.a import _B\nfrom . import __version__\nfrom os import _exit\n",
    }
    assert private_imports(sources) == [
        "a.py: _helper from .b (line 3)",
        "b.py: _B from permbound.a (line 1)",
    ]


def public_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Public functions and classes defined at module level, by name."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def uncalled_public_names(package: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Public names of the package modules (`__init__.py` excepted) that no
    package module, outside the name's own definition, and no caller module reads."""
    trees = {module: ast.parse(text) for module, text in package.items()}
    outside = set().union(*(reads(ast.parse(text)) for text in callers.values()))
    return sorted(
        f"{module}: {name} (line {node.lineno})"
        for module, tree in trees.items()
        if module != "__init__.py"
        for name, node in public_definitions(tree).items()
        if name not in outside
        and not any(name in reads(other, skip=node) for other in trees.values())
    )


def test_every_public_name_has_a_caller_outside_the_tests():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = {
        str(p.relative_to(ROOT)): p.read_text()
        for p in sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
        if not p.name.startswith("test_")
    }
    assert uncalled_public_names(package, callers) == []


def test_uncalled_public_name_is_reported():
    package = {
        "__init__.py": "from .a import Kept, dead, recursive, used_by_script\n",
        "a.py": (
            "class Kept:\n    pass\n\n\n"
            "def dead():\n    return Kept()\n\n\n"
            "def recursive(n):\n    return recursive(n - 1)\n\n\n"
            "def used_by_script():\n    pass\n\n\n"
            "def _private():\n    pass\n"
        ),
    }
    callers = {"scripts/s.py": "import a\n\na.used_by_script()\n"}
    assert uncalled_public_names(package, callers) == [
        "a.py: dead (line 5)",
        "a.py: recursive (line 9)",
    ]


def matrix_products(sources: dict[str, str], owner: str = "matcore.py") -> list[str]:
    """Each `@` (and `@=`) outside owner: the one module that decides when a
    matrix product may stand in for a running sum of outer products."""
    return sorted(
        f"{module}: line {node.lineno}"
        for module, text in sources.items()
        if module != owner
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    )


def test_only_matcore_multiplies_matrices_with_the_operator():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert matrix_products(sources) == []


# the one integer rule, and the two checks of an entry's type that bool and int pass through
INT_RULE = {("matcore.py", "is_int"), ("matcore.py", "Matrix.__init__"), ("scalars.py", "coerce")}


def scoped_nodes(tree: ast.Module):
    """(dotted name of the innermost enclosing def or class, "" at module level, node)
    for every node of tree."""
    stack = [("", tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def is_bool_or_int(node: ast.AST) -> bool:
    """node is the name bool or int, or a tuple holding one."""
    if isinstance(node, ast.Tuple):
        return any(map(is_bool_or_int, node.elts))
    return isinstance(node, ast.Name) and node.id in ("bool", "int")


def int_type_checks(sources: dict[str, str], allowed=INT_RULE) -> list[str]:
    """Each test of a value's type against bool or int outside the allowed scopes: a
    comparison with either name (`type(x) is bool`, `bool not in map(type, xs)`,
    `type(x) is not int`) or an isinstance or issubclass call naming one."""
    return sorted(
        f"{module}: {scope or '<module>'} (line {node.lineno})"
        for module, text in sources.items()
        for scope, node in scoped_nodes(ast.parse(text))
        if (module, scope) not in allowed
        and (isinstance(node, ast.Compare)
             and any(map(is_bool_or_int, (node.left, *node.comparators)))
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2
             and is_bool_or_int(node.args[1]))
    )


def test_only_the_integer_rule_checks_for_bool_or_int():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert int_type_checks(sources) == []


def test_integer_check_outside_the_rule_is_reported():
    sources = {
        "matcore.py": (
            "def is_int(i):\n    return isinstance(i, int) and type(i) is not bool\n\n\n"
            "class Matrix:\n    def __init__(self, t):\n        assert t is not bool\n\n"
            "    def row(self, i):\n        return issubclass(type(i), (int, float))\n"
        ),
        "process.py": (
            "def snapshot(t, perm):\n"
            "    a = type(t) is bool\n"
            "    b = bool not in map(type, perm)\n"
            "    c = isinstance(t, bool)\n"
            "    return type(t) is not int or int(t) < 1 or isinstance(t, str)\n"
        ),
    }
    assert int_type_checks(sources) == [
        "matcore.py: Matrix.row (line 10)",
        "process.py: snapshot (line 2)",
        "process.py: snapshot (line 3)",
        "process.py: snapshot (line 4)",
        "process.py: snapshot (line 5)",
    ]


def test_matrix_product_outside_matcore_is_reported():
    sources = {
        "matcore.py": "def f(a, b):\n    return a @ b\n",
        "process.py": "def g(a, b):\n    c = a @ b\n    c @= b\n    return c\n",
    }
    assert matrix_products(sources) == ["process.py: line 2", "process.py: line 3"]


def permutation_loops(sources: dict[str, str]) -> list[str]:
    """Each import of `itertools.permutations` and each read of it as an attribute of
    the itertools module, under any name that module is imported as."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "itertools"}
        found += [
            f"{module}: line {node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "itertools"
            and any(alias.name == "permutations" for alias in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "permutations"
            and isinstance(node.value, ast.Name) and node.value.id in aliases
        ]
    return sorted(found)


def test_no_module_enumerates_permutations():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert permutation_loops(sources) == []


def test_permutation_loop_is_reported():
    # the package's own sources with the old loops planted back, beside other spellings
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    sources["psd.py"] += "\n\nfrom itertools import permutations\n"
    sources["bounds.py"] += "\n\nimport itertools as it\n\norders = list(it.permutations(range(3)))\n"
    sources["plain.py"] = (
        "import itertools\n"
        "from itertools import combinations, permutations as orders\n"
        "\n"
        "a = itertools.permutations\n"
        "b = itertools.combinations(range(3), 2)\n"
        "c = st.permutations(range(3))\n"
    )
    lines = {name: text.count("\n") for name, text in sources.items()}
    assert permutation_loops(sources) == [
        f"bounds.py: line {lines['bounds.py']}",
        "plain.py: line 2",
        "plain.py: line 4",
        f"psd.py: line {lines['psd.py']}",
    ]
