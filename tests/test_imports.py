import ast
from pathlib import Path

import twomode

PACKAGE = Path(twomode.__file__).parent


def _import_graph() -> dict[str, set[str]]:
    """module -> the twomode modules it imports, at any level of its source."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for name in modules:
        edges = set()
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    edges.add(node.module.split(".")[0])
                else:  # from . import x: a submodule, or a name of the package itself
                    edges |= {a.name if a.name in modules else "__init__" for a in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("twomode"):
                edges.add((node.module.split(".") + ["__init__"])[1])
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "twomode":
                        edges.add((alias.name.split(".") + ["__init__"])[1])
        graph[name] = edges
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle of graph as a path whose last module is its first, or None."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for target in sorted(graph.get(name, ())):
            found = visit(target)
            if found:
                return found
        path.pop()
        done.add(name)
        return None

    for name in sorted(graph):
        found = visit(name)
        if found:
            return found
    return None


def test_the_package_has_no_import_cycle():
    assert _cycle(_import_graph()) is None


def test_model_imports_only_errors():
    # model owns the drift matrix's layout and depends on no module that reads it
    assert _import_graph()["model"] == {"errors"}


def test_the_cycle_finder_finds_a_cycle():
    graph = {"__init__": {"model"}, "model": {"dynamics", "errors"}, "dynamics": {"model"}}
    assert _cycle(graph) == ["model", "dynamics", "model"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_names_imported_by(module: str) -> set[str]:
    """The names module imports from the twomode package, at any level of its source."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (
            node.level == 1 or (node.module or "").startswith("twomode")
        ):
            names |= {alias.name for alias in node.names}
            names |= {node.module.split(".")[-1]} if node.module else set()
    return names


def test_cli_imports_no_private_name():
    # the CLI is a client of the library's public names, dunders such as __version__ included
    imported = _package_names_imported_by("cli")
    assert "analyze" in imported and "__version__" in imported
    assert sorted(filter(_private, imported)) == []


def test_the_private_name_check_finds_one():
    assert [name for name in ("_MIRROR", "__version__", "MIRROR", "_x") if _private(name)] == [
        "_MIRROR",
        "_x",
    ]
