"""Documentation-quality gates: every public module, class, and function
in the library carries a docstring."""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


ALL_MODULES = sorted(_walk_modules())


def test_package_tree_is_nontrivial():
    assert len(ALL_MODULES) > 40


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", ALL_MODULES)
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    for attr_name in dir(module):
        if attr_name.startswith("_"):
            continue
        obj = getattr(module, attr_name)
        if getattr(obj, "__module__", None) != name:
            continue  # re-exports are documented at their home
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"{name}.{attr_name} lacks a docstring"
            )


def test_top_level_exports_resolve():
    from repro import core, cxl, dram, genomics, memmgmt, sim  # noqa: F401

    from repro.core import BeaconD, BeaconS, Report  # noqa: F401
    from repro.experiments import ExperimentScale  # noqa: F401


#: The prose documents whose ``repro.*`` paths must resolve.
DOCS_NAMING_MODULES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")


def _modules_named_in_docs():
    import pathlib
    import re

    root = pathlib.Path(__file__).resolve().parent.parent
    names = set()
    for pattern in DOCS_NAMING_MODULES:
        for doc in sorted(root.glob(pattern)):
            # No closing backtick required: `repro.x.f(arg)` names repro.x.f.
            names |= set(re.findall(r"`(repro(?:\.\w+)+)", doc.read_text()))
    assert "repro.perf" in names, "the docs name no repro.* modules?"
    return sorted(names)


@pytest.mark.parametrize("name", _modules_named_in_docs())
def test_api_doc_modules_import(name):
    """Every dotted `repro.*` path written in the docs must import (as a
    module, or as an attribute of its parent module)."""
    try:
        importlib.import_module(name)
    except ImportError:
        parent, _, attr = name.rpartition(".")
        module = importlib.import_module(parent)
        assert hasattr(module, attr), f"the docs name missing {name}"
