"""The package as documented: the README's library example, the version
and console script that pyproject.toml declares, each module reachable as
a package attribute and an import graph without cycles."""

import ast
import importlib
import os
import re

import numpy as np

import dimerqpt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return fh.read()


def test_readme_library_example_runs():
    """The ``## Library example`` block runs as written and recovers the
    tensor it simulated."""
    section = _read("README.md").split("## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    recovered, truth = namespace["recovered"], namespace["truth"]
    assert np.max(np.abs(recovered.elements - truth.elements)) < 1e-10
    assert np.max(np.abs(recovered.ground_row - truth.ground_row)) < 1e-10


def test_pyproject_version_is_the_package_version():
    project = _read("pyproject.toml").split("[project]\n", 1)[1]
    version = re.search(r'^version = "([^"]*)"$', project, re.M).group(1)
    assert version == dimerqpt.__version__


def test_console_script_resolves_and_runs(tmp_path, capsys):
    """The ``dimerqpt`` entry point of ``[project.scripts]`` names a
    function that runs the CLI: ``report`` on an empty directory exits 3."""
    scripts = _read("pyproject.toml").split("[project.scripts]\n", 1)[1]
    entry = re.search(r'^dimerqpt = "([\w.]+):(\w+)"$', scripts, re.M)
    main = getattr(importlib.import_module(entry.group(1)), entry.group(2))
    assert main(["report", "--output-dir", str(tmp_path)]) == 3
    assert "run_manifest.json" in capsys.readouterr().err


def test_each_module_is_its_package_attribute():
    """``dimerqpt.<name>`` is the module ``<name>.py``: no name that
    ``__init__`` re-exports shadows a module, so ``from dimerqpt import
    <name>`` gives the module whose functions a test patches."""
    src = os.path.dirname(dimerqpt.__file__)
    names = sorted(name[:-3] for name in os.listdir(src)
                   if name.endswith(".py") and name != "__init__.py")
    assert "reconstruct" in names
    for name in names:
        module = importlib.import_module(f"dimerqpt.{name}")
        assert getattr(dimerqpt, name) is module, name


def _package_imports(tree, modules):
    """(import node, {module imported}) of each import of the package in
    ``tree``: relative imports and absolute ``dimerqpt`` ones.  A name
    imported from the package itself is its module if it has one, else the
    package's ``__init__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node, {node.module.split(".")[0]}
            else:
                yield node, {alias.name if alias.name in modules
                             else "__init__" for alias in node.names}
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
            if any(name[0] == "dimerqpt" for name in names):
                yield node, {name[1] if len(name) > 1 else "__init__"
                             for name in names if name[0] == "dimerqpt"}


def test_package_imports_are_module_level_and_acyclic():
    """Every import of a package module sits at module level, and the
    modules import one another without a cycle: none relies on a
    function-local import to break one."""
    src = os.path.dirname(dimerqpt.__file__)
    modules = {name[:-3] for name in os.listdir(src) if name.endswith(".py")}
    graph = {}
    for module in modules:
        with open(os.path.join(src, module + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        graph[module] = set()
        for node, imported in _package_imports(tree, modules):
            assert node in tree.body, (
                f"{module}.py:{node.lineno}: import of the package inside "
                "a function or block")
            graph[module] |= imported
    assert set().union(*graph.values()) <= modules
    # peel off modules that import nothing left in the graph; a cycle stays
    while True:
        leaves = {module for module, deps in graph.items()
                  if not deps & graph.keys()}
        if not leaves:
            break
        for module in leaves:
            del graph[module]
    assert not graph, f"an import cycle under {sorted(graph)}"
