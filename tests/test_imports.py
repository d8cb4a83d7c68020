"""Module independence, read from the source rather than from ``sys.modules``.

The oracles re-derive the block spectrum without the formulas, the formula
routes and the entropies run without the oracles or numpy, and the two exact
routes build their weight tables without each other. A runtime import check
sees only the modules one run happens to load; these tests read every import
statement, including the lazy ones inside functions.
"""

import ast
import importlib
from pathlib import Path

import pytest

import akltblock
from akltblock import oracle

PACKAGE = Path(akltblock.__file__).parent

PUBLIC_MODULES = [
    "akltblock",
    "akltblock.angular",
    "akltblock.spectrum",
    "akltblock.entropy",
    "akltblock.exact_suites",
    "akltblock.verify",
    "akltblock.cli",
    "akltblock.oracle",
    "akltblock.oracle.dense",
    "akltblock.oracle.fock",
    "akltblock.oracle.hamiltonians",
    "akltblock.oracle.pauli",
]


def _imports(relative: str) -> list[tuple[str, str | None]]:
    """(absolute module name, enclosing top-level function or None) per import."""
    path = PACKAGE / relative
    package = ["akltblock", *Path(relative).parent.parts]
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, function) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = package[: len(package) - child.level + 1] if child.level else []
                if child.module:
                    found.append((".".join([*base, child.module]), function))
                else:
                    found.extend((".".join([*base, a.name]), function) for a in child.names)
            scope = function
            if function is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = child.name
            visit(child, scope)

    visit(tree, None)
    return found


def _names(imports) -> set[str]:
    return {name for name, _ in imports}


def _under(names: set[str], *prefixes: str) -> set[str]:
    return {n for n in names if any(n == p or n.startswith(p + ".") for p in prefixes)}


def test_the_oracles_never_import_the_formula_routes():
    modules = sorted(p.relative_to(PACKAGE) for p in (PACKAGE / "oracle").glob("*.py"))
    assert len(modules) >= 4
    for module in modules:
        assert not _under(_names(_imports(str(module))), "akltblock.spectrum"), module


def test_the_exact_layers_never_import_the_oracles_verify_or_numpy():
    for module in ("spectrum.py", "entropy.py"):
        names = _names(_imports(module))
        assert not _under(names, "akltblock.oracle", "akltblock.verify", "numpy"), module


def test_exact_suites_reaches_verify_only_through_the_lazy_dispatch():
    imports = _imports("exact_suites.py")
    assert not _under(_names(imports), "akltblock.oracle", "numpy")
    assert {function for name, function in imports if name == "akltblock.verify"} == {
        "run_suite"
    }


def test_the_two_weight_tables_never_reach_each_other():
    tree = ast.parse((PACKAGE / "spectrum.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    named = {
        name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & functions.keys()
        for name, node in functions.items()
    }

    def reach(start):
        seen, todo = set(), [start]
        while todo:
            for name in named[todo.pop()] - seen:
                seen.add(name)
                todo.append(name)
        return seen

    assert "_closed_weights" not in reach("_recurrence_weights")
    assert "_recurrence_weights" not in reach("_closed_weights")


def test_no_module_imports_dataclasses():
    # dataclasses pulls in inspect, ast and dis at start-up; the record types
    # are namedtuples and slotted classes instead.
    for path in sorted(PACKAGE.rglob("*.py")):
        names = _names(_imports(str(path.relative_to(PACKAGE))))
        assert not _under(names, "dataclasses"), path


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__), name
    assert [n for n in module.__all__ if not hasattr(module, n)] == [], name


@pytest.mark.parametrize(
    "package, submodules",
    [
        (akltblock, ("angular", "spectrum", "entropy")),
        (oracle, ("dense", "fock", "hamiltonians", "pauli")),
    ],
)
def test_package_exports_are_their_submodules_objects(package, submodules):
    # Each export is the same object in every submodule that holds the name.
    modules = [importlib.import_module(f"{package.__name__}.{sub}") for sub in submodules]
    for name in package.__all__:
        if name == "__version__":
            continue
        sources = [module for module in modules if hasattr(module, name)]
        assert sources, name
        for module in sources:
            assert getattr(package, name) is getattr(module, name), (name, module.__name__)
