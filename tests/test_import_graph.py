"""The package's shape, read from source: the import graph and the public API.

The shooting oracle checks the other two routes, so it must reach neither;
the Lanczos route must not reach the fixed point or the oracle it is
compared against.  ``waxman`` may use ``lanczos``'s grid Hamiltonian.  Every
public name has a reader besides its own definition and the export.  No
module starts a thread: every command runs on its caller's.
"""

import ast
import re
from pathlib import Path

import pytest

import boundstates

PACKAGE = Path(boundstates.__file__).parent
ROOT = PACKAGE.resolve().parents[1]


def _imports(path: Path) -> set[str]:
    """Package modules that ``path`` imports, by name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").startswith("boundstates"):
                parts = node.module.split(".")[1:]
            elif node.level == 1:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            if parts:
                names.add(parts[0])
            else:  # from . import a, b
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "boundstates" and len(parts) > 1:
                    names.add(parts[1])
    return names


GRAPH = {path.stem: _imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def _reach(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        for dep in GRAPH[todo.pop()] & GRAPH.keys():
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def test_graph_is_read():
    assert {"waxman", "lanczos", "shooting", "grid"} <= GRAPH.keys()
    assert "lanczos" in GRAPH["waxman"]
    assert "grid" in GRAPH["shooting"]


@pytest.mark.parametrize(
    "module, forbidden",
    [("shooting", {"waxman", "lanczos"}), ("lanczos", {"waxman", "shooting"})],
)
def test_route_reaches_no_other_route(module, forbidden):
    assert not _reach(module) & forbidden


def test_no_import_cycle():
    cyclic = sorted(m for m in GRAPH if m in _reach(m))
    assert cyclic == []


def _absolute_imports(path: Path):
    """Modules that ``path`` imports by absolute name, in any body."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_thread_machinery():
    machinery = {"threading", "concurrent", "contextvars"}
    found = sorted(
        (path.name, name)
        for path in (ROOT / "src").rglob("*.py")
        for name in _absolute_imports(path)
        if name.split(".")[0] in machinery
    )
    assert found == []


def _package_reads(path: Path) -> set[str]:
    """Names and attributes a module reads outside the definition they name."""
    reads = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                reads.add(name)
    return reads


def _benchmark_reads(path: Path) -> set[str]:
    """Attributes read off the package or its modules as the benchmarks import them."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in {"wx", "lz", "sh", "boundstates"}
    }


def test_every_public_name_has_a_reader():
    read = set().union(
        *(_package_reads(p) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
        *(_benchmark_reads(p) for p in (ROOT / "benchmarks").glob("*.py")),
        re.findall(r"\w+", (ROOT / "README.md").read_text()),
    )
    assert sorted(set(boundstates.__all__) - read) == []


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    """Calls in ``tree`` of a function or method called ``name``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_the_fold_rule_is_stated_once():
    # ``_scan`` alone builds a kernel scan and decides, from the integrand's
    # factors, whether it folds onto x >= 0: no entry point tests evenness.
    waxman = ast.parse((PACKAGE / "waxman.py").read_text())
    builders = {top.name for top in waxman.body if _calls(top, "_KernelScan")}
    assert builders == {"_scan"}
    evenness = [
        (path.stem, getattr(top, "name", None))
        for path in sorted(PACKAGE.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for call in _calls(top, "array_equal")
        if any(ast.unparse(arg).endswith("[::-1]") for arg in call.args)
    ]
    assert evenness == [("waxman", "_scan")]


def test_the_order_rules_are_stated_once():
    # lambda(eps) strictly increases: ``LambdaEpsilonCurve`` alone tests the
    # couplings' order, as ``_epsilon_array`` alone tests the energies'.  An
    # order test compares a ``diff``; the PCHIP slopes only divide by one.
    order_tests = [
        (path.stem, getattr(top, "name", None), ast.unparse(call.args[0]))
        for path in sorted(PACKAGE.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for compare in ast.walk(top)
        if isinstance(compare, ast.Compare)
        for call in _calls(compare, "diff")
    ]
    assert order_tests == [
        ("waxman", "_epsilon_array", "eps"),
        ("waxman", "LambdaEpsilonCurve", "lam"),
    ]
