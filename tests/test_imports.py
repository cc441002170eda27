import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # the package loads its modules by name, on first use of one of their names
    graph["__init__"] |= set(twomode._EXPORTS)
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


def test_the_package_namespace_is_an_edge_of_the_graph():
    assert _import_graph()["__init__"] == {"model", "dynamics", "entanglement", "errors"}


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


def _run_fresh(code: str, **env: str) -> list[str]:
    """The words `code` prints in a fresh interpreter, with OPENBLAS_NUM_THREADS unset unless given."""
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), child.get("PYTHONPATH")]))
    child.update(env)
    done = subprocess.run(
        [sys.executable, "-c", code], env=child, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


# Prints the variable and the process's thread count (-1 without /proc).
_THREADS = (
    "import os; print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'), "
    "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1)"
)


class TestBlasThreads:
    def test_the_cli_starts_no_blas_worker(self):
        setting, threads = _run_fresh("import twomode.cli; " + _THREADS)
        assert setting == "1"
        if threads == "-1" or len(os.sched_getaffinity(0)) == 1:
            pytest.skip("one CPU, or no /proc: OpenBLAS would start no worker anyway")
        assert threads == "1"

    def test_a_users_setting_wins(self):
        assert _run_fresh("import twomode.cli; " + _THREADS, OPENBLAS_NUM_THREADS="2")[0] == "2"

    def test_the_library_leaves_blas_threading_alone(self):
        assert _run_fresh("import twomode; twomode.analyze; " + _THREADS)[0] == "unset"


# Prints the generation of each collection started during `import twomode.cli`,
# and the collector's state after it.  The package is compiled first, as an
# install does: compiling cli.py from source runs before its first line.
_GC_AFTER_CLI_IMPORT = (
    "import compileall, gc, twomode; "
    "compileall.compile_dir(twomode.__path__[0], quiet=1); starts = []; "
    "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info)); "
    "import twomode.cli; gc.callbacks.clear(); "
    "print(','.join(str(info['generation']) for info in starts) or 'none', "
    "gc.isenabled(), gc.get_freeze_count() > 0)"
)


class TestGarbageCollector:
    def test_the_cli_import_freezes_its_objects_without_collecting(self, tmp_path):
        # no collection while the imports load, nor before the freeze
        assert _run_fresh(_GC_AFTER_CLI_IMPORT, PYTHONPYCACHEPREFIX=str(tmp_path)) == [
            "none",
            "True",
            "True",
        ]

    def test_a_callers_disabled_collector_stays_disabled(self):
        assert _run_fresh("import gc; gc.disable(); import twomode.cli; print(gc.isenabled())") == [
            "False"
        ]

    def test_a_failed_import_restores_the_collector(self):
        code = (
            "import gc, sys; sys.modules['numpy'] = None\n"
            "try:\n    import twomode.cli\nexcept ImportError:\n"
            "    print(gc.isenabled(), gc.get_freeze_count())"
        )
        assert _run_fresh(code) == ["True", "0"]

    def test_the_library_leaves_the_collector_alone(self):
        assert _run_fresh(
            "import gc, twomode; twomode.analyze; print(gc.isenabled(), gc.get_freeze_count())"
        ) == ["True", "0"]


class TestLazyNames:
    def test_each_name_is_the_object_its_module_defines(self):
        for module, names in twomode._EXPORTS.items():
            defining = importlib.import_module(f"twomode.{module}")
            for name in names:
                assert getattr(twomode, name) is getattr(defining, name), name

    def test_importing_the_package_loads_no_numpy(self):
        assert _run_fresh("import sys, twomode; print('numpy' in sys.modules)") == ["False"]

    def test_each_submodule_is_an_attribute(self):
        # as when `__init__` imported them eagerly: the README's `twomode.entanglement.report`
        assert _run_fresh(
            "import twomode; twomode.entanglement.report; twomode.model.Coefficients; "
            "print(twomode.errors is __import__('twomode.errors').errors)"
        ) == ["True"]

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from twomode import *", namespace)
        assert set(twomode.__all__) <= set(namespace)

    def test_dir_lists_every_name(self):
        assert {*twomode.__all__, *twomode._EXPORTS} <= set(dir(twomode))

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'twomode' has no attribute 'nope'$"):
            twomode.nope
