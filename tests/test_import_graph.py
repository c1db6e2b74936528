"""The solver routes stay independent: the module import graph, read from source.

The shooting oracle checks the other two routes, so it must reach neither;
the Lanczos route must not reach the fixed point or the oracle it is
compared against.  ``waxman`` may use ``lanczos``'s grid Hamiltonian.
"""

import ast
from pathlib import Path

import pytest

import boundstates

PACKAGE = Path(boundstates.__file__).parent


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
