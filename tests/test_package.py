"""The package as documented: the README's library example and the version
that pyproject.toml declares."""

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
