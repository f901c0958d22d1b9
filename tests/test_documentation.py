"""Documentation-coverage meta-tests.

The reproduction promises doc comments on every public item; these
tests enforce it mechanically so the promise cannot rot.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

MODULES = [
    name for _finder, name, _pkg in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")
]


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports documented at their definition site
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), \
        f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = [
        name for name, obj in _public_members(module)
        if not (obj.__doc__ and obj.__doc__.strip())
    ]
    assert not undocumented, \
        f"{module_name}: undocumented public items {undocumented}"


def test_public_api_exports_exist():
    """Everything in __all__ must resolve."""
    for module_name in MODULES + ["repro"]:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.__all__: {name}"


def test_readme_mentions_key_entry_points():
    with open("README.md") as fh:
        readme = fh.read()
    for needle in ("run_workload", "cachecraft-sim", "pytest benchmarks/",
                   "DESIGN.md", "EXPERIMENTS.md"):
        assert needle in readme, needle


def test_experiments_sections_point_at_their_results_files():
    """Each F/T section of EXPERIMENTS.md names the results file the
    benchmarks regenerate, instead of a hand-copied table that can go
    stale."""
    root = Path(__file__).resolve().parents[1]
    text = (root / "EXPERIMENTS.md").read_text()
    sections = re.findall(r"^## ([FT]\d+) —(.*?)(?=^## |\Z)", text,
                          flags=re.M | re.S)
    assert len(sections) >= 19
    for ident, body in sections:
        results = f"benchmarks/results/{ident}.txt"
        assert results in body, f"EXPERIMENTS.md {ident} lacks {results}"
        assert (root / results).is_file(), results
